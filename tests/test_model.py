"""Denoiser network, mean-type conversion, and EMA shadowing."""

import numpy as np
import pytest

from specdiff.autodiff import forward
from specdiff.diffusion import DiffusionSchedule
from specdiff.model import (
    MEAN_TYPES,
    UPDATE_BLOCK,
    Denoiser,
    _embedding_row,
    time_embedding,
)

from helpers import fraction_close


@pytest.fixture
def schedule():
    return DiffusionSchedule(100, 1e-4, 0.2)


def small_model(mean_type="predict_x", seed=0, n=6):
    return Denoiser.create(n, hidden=(12, 10), emb_dim=8, mean_type=mean_type,
                           ema_decay=0.999, rng=np.random.default_rng(seed))


def test_odd_embedding_dimension_rejected():
    with pytest.raises(ValueError, match="emb_dim"):
        Denoiser.create(4, hidden=(8,), emb_dim=3)


class TestConversion:
    def test_zero_noise_prediction(self, schedule):
        # predict_epsilon with eps_hat == 0 gives x0 = x_t / sqrt(abar)
        model = small_model("predict_epsilon")
        model.params[:] = 0.0  # zero weights and biases -> zero raw output
        x = np.random.default_rng(1).standard_normal(6)
        t = 17
        out = model.denoise(x, t, schedule)
        np.testing.assert_allclose(out, x / np.sqrt(schedule.abar(t)), atol=1e-12)

    def test_predict_x_passthrough(self, schedule):
        model = small_model("predict_x")
        x = np.random.default_rng(2).standard_normal(6)
        raw = forward(model.build_graph(np.array([5])), np.atleast_2d(x))[0]
        np.testing.assert_array_equal(model.denoise(x, 5, schedule), raw[0])

    def test_conversion_roundtrip(self, schedule):
        # feeding the exact noise as eps_hat recovers the exact clean signal
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(6)
        t = 33
        abar = schedule.abar(t)
        eps = rng.standard_normal(6)
        xt = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps

        # a network whose raw output is exactly eps: zero weights, bias eps
        model = Denoiser.create(6, hidden=(4,), emb_dim=8, mean_type="predict_epsilon")
        model.params[:] = 0.0
        model.params[-6:] = eps
        out = model.denoise(xt, t, schedule)
        np.testing.assert_allclose(out, x0, rtol=0, atol=1e-10)

    def test_per_row_timesteps(self, schedule):
        model = small_model("predict_epsilon", seed=4)
        rng = np.random.default_rng(4)
        xb = rng.standard_normal((3, 6))
        ts = np.array([3, 40, 99])
        batched = model.denoise(xb, ts, schedule)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(batched[i],
                                       model.denoise(xb[i], int(t), schedule),
                                       atol=1e-13)


class TestEmptyBatch:
    @pytest.mark.parametrize("tangent_shape", [(0, 3), (2, 0, 3)])
    @pytest.mark.parametrize("mean_type", MEAN_TYPES)
    def test_tangent_pass_and_gradient(self, schedule, mean_type, tangent_shape):
        model = small_model(mean_type, n=3)
        x0, dx0, grad = model.evaluate(np.zeros((0, 3)), 5, schedule,
                                       tangent=np.zeros(tangent_shape))
        assert x0.shape == (0, 3) and dx0.shape == tangent_shape
        g = grad(np.zeros((0, 3)), np.zeros(tangent_shape))
        assert g.shape == (model.param_count,) and np.all(g == 0.0)
        assert model.denoise(np.zeros((0, 3)), 5, schedule).shape == (0, 3)


class TestSharedTimestep:
    """An int timestep reaches :meth:`Denoiser.build_graph` as an int; its
    passes give the bits of the per-row vector form."""

    @pytest.mark.parametrize("rows", [1, 4, 64])
    @pytest.mark.parametrize("ema", [False, True])
    @pytest.mark.parametrize("mean_type", MEAN_TYPES)
    def test_int_equals_the_vector_form(self, schedule, mean_type, ema, rows):
        model = small_model(mean_type, seed=7)
        rng = np.random.default_rng(8)
        model.ema_params = model.params + 0.01 * rng.standard_normal(model.param_count)
        x = rng.standard_normal((rows, 6))
        v = rng.standard_normal((2, rows, 6))
        for t in (1, 17, 100):
            vec = np.full(rows, t)
            assert np.array_equal(model.denoise(x, t, schedule, ema=ema),
                                  model.denoise(x, vec, schedule, ema=ema))
            a, da, grad_a = model.evaluate(x, t, schedule, tangent=v, ema=ema)
            b, db, grad_b = model.evaluate(x, vec, schedule, tangent=v, ema=ema)
            assert np.array_equal(a, b) and np.array_equal(da, db)
            seeds = rng.standard_normal(a.shape), rng.standard_normal(da.shape)
            assert np.array_equal(grad_a(*seeds), grad_b(*seeds))

    @pytest.mark.parametrize("mean_type", MEAN_TYPES)
    def test_one_vector_input(self, schedule, mean_type):
        model = small_model(mean_type)
        x = np.random.default_rng(9).standard_normal(6)
        got = model.denoise(x, 40, schedule, ema=True)
        assert got.shape == (6,)
        assert np.array_equal(got, model.denoise(x[None], np.array([40]), schedule,
                                                 ema=True)[0])

    def test_int_graph_embeds_once(self):
        model = small_model()
        many = model.build_graph(17, rows=4)
        assert np.array_equal(many.temb, model.build_graph(np.full(4, 17)).temb)
        one = model.build_graph(17)
        assert one.temb.shape == (1, 8) and not one.temb.flags.writeable

    @pytest.mark.parametrize("t", [0, -5, 101, 10 ** 6])
    @pytest.mark.parametrize("mean_type", MEAN_TYPES)
    def test_out_of_range_timestep_rejected(self, schedule, mean_type, t):
        model = small_model(mean_type)
        x = np.zeros((3, 6))
        cached = _embedding_row.cache_info().currsize
        for form in (t, np.array([5, t, 5])):
            with pytest.raises(ValueError, match=r"timestep out of range \[1, 100\]"):
                model.denoise(x, form, schedule)
            with pytest.raises(ValueError, match=r"timestep out of range \[1, 100\]"):
                model.evaluate(x, form, schedule, tangent=np.ones((3, 6)))
        with pytest.raises(ValueError, match=r"timestep out of range"):
            model.denoise(x[0], t, schedule)
        # a rejected timestep is never embedded, so the cache stays within [1, T]
        assert _embedding_row.cache_info().currsize == cached


class TestEma:
    def test_decay_zero_copies_params(self, schedule):
        model = small_model()
        model.ema_decay = 0.0
        model.params[:] = 3.14
        model.ema_update()
        np.testing.assert_array_equal(model.ema_params, model.params)

    def test_decay_one_freezes(self):
        model = small_model()
        init = model.ema_params.copy()
        model.ema_decay = 1.0
        model.params[:] = -1.0
        model.ema_update()
        np.testing.assert_array_equal(model.ema_params, init)

    def test_scripted_sequence(self):
        # d = 0.5, start 0, params 1 then 2: ema = 0.5, then 1.25
        model = small_model()
        model.ema_decay = 0.5
        model.ema_params[:] = 0.0
        model.params[:] = 1.0
        model.ema_update()
        np.testing.assert_allclose(model.ema_params, 0.5)
        model.params[:] = 2.0
        model.ema_update()
        np.testing.assert_allclose(model.ema_params, 1.25)

    def test_trailing_average_identity(self):
        # after k updates: ema = d^k * init + (1 - d) * sum d^(k-1-i) theta_i
        model = small_model()
        d = 0.9
        model.ema_decay = d
        init = 0.7
        model.ema_params[:] = init
        thetas = [0.1, -0.4, 2.0, 1.1]
        for th in thetas:
            model.params[:] = th
            model.ema_update()
        k = len(thetas)
        expected = d ** k * init + (1 - d) * sum(
            d ** (k - 1 - i) * th for i, th in enumerate(thetas)
        )
        np.testing.assert_allclose(model.ema_params, expected, rtol=1e-12)

    @pytest.mark.parametrize("size", [1, UPDATE_BLOCK, 5 * UPDATE_BLOCK // 2])
    def test_blocked_update_equals_whole_vector_form(self, size):
        # ema_update reads only the two flat vectors, so any length checks the
        # slicing; 2.5 blocks end in a half block
        rng = np.random.default_rng(size)
        model = small_model()
        d = model.ema_decay
        model.params = rng.standard_normal(size)
        model.ema_params = rng.standard_normal(size)
        expected = model.ema_params.copy()
        for _ in range(60):
            model.params += rng.standard_normal(size) * 1e-2
            model.ema_update()
            expected = expected * d + (1.0 - d) * model.params
        assert model.ema_params.tobytes() == expected.tobytes()

    def test_denoise_with_ema_parameters(self, schedule):
        model = small_model(seed=9)
        x = np.random.default_rng(9).standard_normal(6)
        before = model.denoise(x, 10, schedule, ema=True)
        model.params[:] += 1.0  # live params move, shadow does not
        after = model.denoise(x, 10, schedule, ema=True)
        np.testing.assert_array_equal(before, after)


class TestBoundViews:
    """The layer views are bound once per parameter array: in-place updates
    show through them, and a rebound array rebinds them."""

    def fresh(self, model):
        return Denoiser.from_arch(model.arch(), model.params, model.ema_params)

    @pytest.mark.parametrize("ema", [False, True])
    def test_in_place_assignment(self, schedule, ema):
        model = small_model(seed=4)
        x = np.random.default_rng(4).standard_normal((3, 6))
        before = model.denoise(x, 20, schedule, ema=ema)
        flat = model.ema_params if ema else model.params
        flat[:] = np.random.default_rng(5).standard_normal(flat.shape) * 0.3
        after = model.denoise(x, 20, schedule, ema=ema)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self.fresh(model).denoise(x, 20, schedule, ema=ema))

    def test_rebound_ema_params(self, schedule):
        model = small_model(seed=6)
        x = np.random.default_rng(6).standard_normal(6)
        model.denoise(x, 30, schedule, ema=True)
        model.ema_params = model.params + 0.1
        assert np.array_equal(model.denoise(x, 30, schedule, ema=True),
                              self.fresh(model).denoise(x, 30, schedule, ema=True))
        model.params = model.params - 0.2
        assert np.array_equal(model.denoise(x, 30, schedule),
                              self.fresh(model).denoise(x, 30, schedule))

    def test_adam_step_and_ema_update(self, schedule):
        from specdiff.training import AdamState, adam_step

        model = small_model(seed=7)
        model.ema_decay = 0.5
        x = np.random.default_rng(7).standard_normal((4, 6))
        t = np.array([3, 50, 50, 99])
        before = [model.denoise(x, t, schedule, ema=ema) for ema in (False, True)]
        grads = np.random.default_rng(8).standard_normal(model.param_count)
        adam_step(model.params, grads, AdamState.for_params(model.params), 1e-2)
        model.ema_update()
        fresh = self.fresh(model)
        for ema, old in zip((False, True), before):
            got = model.denoise(x, t, schedule, ema=ema)
            assert not np.array_equal(got, old)
            assert np.array_equal(got, fresh.denoise(x, t, schedule, ema=ema))


class TestTimeEmbedding:
    def test_shape_and_rows(self):
        e = time_embedding(np.arange(1, 5), 8)
        assert e.shape == (4, 8)
        np.testing.assert_array_equal(e[2], time_embedding(3, 8))

    def test_injective_over_schedule_range(self):
        T, dim = 1000, 32
        emb = time_embedding(np.arange(1, T + 1), dim)
        # all pairwise distances stay above the resolution floor
        full = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
        np.fill_diagonal(full, np.inf)
        assert full.min() >= 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            time_embedding(1, 7)

    @pytest.mark.parametrize("rows", [1, 4, 64])
    def test_shared_timestep_rows_equal_the_vector_form(self, schedule, rows):
        # a timestep shared by every row is embedded once and repeated
        model = small_model()
        for t in (1, 2, 17, 99, 100):
            graph = model.build_graph(np.full(rows, t))
            assert np.array_equal(graph.temb, time_embedding(np.full(rows, t), 8))
            graph.temb[:] = np.nan  # the graph's rows are its own
        assert np.array_equal(model.build_graph(np.full(rows, 17)).temb,
                              time_embedding(np.full(rows, 17), 8))

    def test_results_do_not_share_memory(self):
        first = time_embedding(np.arange(1, 4), 8)
        want = first.copy()
        first[:] = np.nan
        np.testing.assert_array_equal(time_embedding(np.arange(1, 4), 8), want)


class TestComposedDifferentiability:
    @pytest.mark.parametrize("mean_type", ["predict_x", "predict_epsilon"])
    def test_jvp_matches_finite_differences(self, schedule, mean_type):
        model = small_model(mean_type, seed=5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        v = rng.standard_normal(6)
        t = 21

        x0, dx0, _ = model.evaluate(x, t, schedule, tangent=v[None, :])
        np.testing.assert_array_equal(x0[0], model.denoise(x, t, schedule))
        got = dx0[0]

        h = 1e-5
        fd = (model.denoise(x + h * v, t, schedule)
              - model.denoise(x - h * v, t, schedule)) / (2 * h)
        assert fraction_close(got, fd, rel_tol=1e-4) == 1.0

    def test_gradients_flow_to_all_parameters(self, schedule):
        model = small_model("predict_epsilon", seed=6)
        x = np.random.default_rng(6).standard_normal((2, 6))
        x0, _, grad = model.evaluate(x, np.array([4, 80]), schedule)
        flat = grad(2.0 * x0)  # gradient of sum(x0 ** 2)
        assert flat.shape == (model.param_count,)
        assert np.mean(flat != 0.0) > 0.9

    @pytest.mark.parametrize("mean_type", ["predict_x", "predict_epsilon"])
    def test_tangent_seed_needs_a_pass_with_a_tangent(self, schedule, mean_type):
        model = small_model(mean_type, seed=7)
        x = np.random.default_rng(7).standard_normal((2, 6))
        x0, _, grad = model.evaluate(x, 9, schedule)
        with pytest.raises(ValueError, match="carried a tangent"):
            grad(x0, x0)


    @pytest.mark.parametrize("mean_type", ["predict_x", "predict_epsilon"])
    def test_pass_gradient_with_tangent_seed_matches_finite_differences(
            self, schedule, mean_type):
        # s = sum(a * x0) + sum(u * dx0): the tangent seed exercises phi''
        rng = np.random.default_rng(31)
        model = Denoiser.create(5, hidden=(9, 7), emb_dim=8, mean_type=mean_type,
                                rng=rng)
        x, v, a, u = (rng.standard_normal((3, 5)) for _ in range(4))
        t = np.array([3, 50, 97])
        x0, dx0, grad = model.evaluate(x, t, schedule, tangent=v)
        got = grad(a, u)

        def scalar_at(theta):
            m = Denoiser.from_arch(model.arch(), theta)
            y, dy, _ = m.evaluate(x, t, schedule, tangent=v)
            return float(np.sum(a * y) + np.sum(u * dy))

        assert scalar_at(model.params) == pytest.approx(np.sum(a * x0) + np.sum(u * dx0))
        d = rng.standard_normal(model.param_count)
        h = 1e-6
        fd = (scalar_at(model.params + h * d) - scalar_at(model.params - h * d)) / (2 * h)
        assert got @ d == pytest.approx(fd, rel=1e-6)
