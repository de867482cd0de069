"""Adam, dataset precompute, and the deterministic training loop."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from specdiff.diffusion import DiffusionSchedule, t_min_for_noise_var
from specdiff.losses import LossConfig
from specdiff import training
from specdiff.model import UPDATE_BLOCK, Denoiser
from specdiff.operators import (
    DegradationFamily,
    FixedMask,
    IdentityTransform,
    LineSubsampleMasks,
    PatchDropMasks,
    RealDFTTransform,
    SingleDropMasks,
    corrupt,
)
from specdiff.signals import RawDraws
from specdiff.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    PrecomputedDataset,
    TrainConfig,
    TrainingDiverged,
    _evaluate_chunk,
    adam_step,
    derived_rng,
    derived_rngs,
    precompute,
    train,
)


def two_deltas_signals(count, rng):
    signs = rng.integers(0, 2, size=count) * 2 - 1
    return np.outer(signs, np.ones(2))


def coordinate_mask_family(sigma0):
    """Masks dropping one of the two coordinates with equal probability."""
    return DegradationFamily(IdentityTransform(2), SingleDropMasks(2), sigma0)


def chunked_reference(model, cfg, data, schedule):
    """The chunked step spelled out: chunk ``ci`` of step ``s`` draws from
    ``derived_rng(seed, s, 2 + ci)`` and chunk means are reduced in chunk order.
    Returns the per-step (loss, divergence term, grad norm)."""
    t_min = t_min_for_noise_var(schedule, data.worst_noise_var())
    state = AdamState.for_params(model.params)
    rows = []
    for step in range(1, cfg.iterations + 1):
        idx = derived_rng(cfg.seed, step, 0).integers(0, len(data), size=cfg.batch_size)
        t_vec = derived_rng(cfg.seed, step, 1).integers(t_min, schedule.T + 1,
                                                        size=cfg.batch_size)
        loss, div, grads = 0.0, 0.0, np.zeros_like(model.params)
        for ci, lo in enumerate(range(0, cfg.batch_size, cfg.chunk_size)):
            hi = min(lo + cfg.chunk_size, cfg.batch_size)
            c_loss, c_div, c_grads = _evaluate_chunk(
                model, cfg, data, schedule, idx[lo:hi], t_vec[lo:hi],
                derived_rng(cfg.seed, step, 2 + ci))
            frac = (hi - lo) / cfg.batch_size
            loss += frac * c_loss
            div += frac * c_div
            grads += frac * c_grads
        adam_step(model.params, grads, state, cfg.learning_rate)
        model.ema_update()
        rows.append((loss, div, float(np.sqrt(np.einsum("i,i->", grads, grads)))))
    return rows


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_params(params)
        adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_magnitude_is_learning_rate(self):
        # bias-corrected first step moves by ~lr against the gradient sign
        params = np.zeros(4)
        g = np.array([3.0, -0.5, 10.0, -1e-3])
        state = AdamState.for_params(params)
        adam_step(params, g, state, lr=0.01)
        np.testing.assert_allclose(np.abs(params), 0.01, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(params), -np.sign(g))

    def test_quadratic_bowl_converges(self):
        target = np.array([1.5, -2.0, 0.25])
        params = np.zeros(3)
        state = AdamState.for_params(params)
        for _ in range(5000):
            adam_step(params, params - target, state, lr=0.01)
        assert np.max(np.abs(params - target)) < 1e-6

    def test_shape_check(self):
        params = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(4), AdamState.for_params(params), 0.1)

    @pytest.mark.parametrize("size", [1, UPDATE_BLOCK, 5 * UPDATE_BLOCK // 2])
    def test_blocked_update_equals_whole_vector_form(self, size):
        # the whole-vector expressions, one step at a time, byte for byte;
        # 2.5 blocks end in a half block
        rng = np.random.default_rng(size)
        lr, beta1, beta2, eps = 3e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        params = rng.standard_normal(size)
        m, v, expected = np.zeros(size), np.zeros(size), params.copy()
        state = AdamState.for_params(params)
        for k in range(1, 61):
            g = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3)
            g[rng.random(size) < 0.1] = 0.0
            adam_step(params, g, state, lr)
            m = m * beta1 + (1.0 - beta1) * g
            v = v * beta2 + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** k)
            v_hat = v / (1.0 - beta2 ** k)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.step == 60
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert params.tobytes() == expected.tobytes()


class TestDerivedRngs:
    # past 2**96 + 7: a seed of exactly the pool's 4 words, and one of 6, whose
    # last 2 words are mixed in after the pool is filled, as the record's word is
    # 2**128 + 5: one word past the pool; a NumPy integer, which derived_rng takes
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**96 + 7,
                                      2**128 - 1, 2**160 + 2**33 + 9, 2**128 + 5,
                                      pytest.param(np.int64(201), id="np.int64(201)")])
    def test_states_and_draws_equal_derived_rng(self, seed):
        # every generator is kept, so each must hold its own state; draws from
        # the first record, either side of the spawn word's first carry past
        # its low byte, and the last
        count = 300
        rngs = list(derived_rngs(seed, count))
        assert len(rngs) == count
        for i, rng in enumerate(rngs):
            assert rng.bit_generator.state == derived_rng(seed, i).bit_generator.state
        for i in [0, 255, 256, 257, count - 1]:
            rng, ref = rngs[i], derived_rng(seed, i)
            assert rng.random() == ref.random()
            assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
            assert rng.integers(0, 2**40, size=3).tolist() == ref.integers(
                0, 2**40, size=3).tolist()
            assert rng.choice(64, size=7, replace=False).tolist() == ref.choice(
                64, size=7, replace=False).tolist()

    def test_zero_count_yields_nothing(self):
        assert list(derived_rngs(5, 0)) == []

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_as_derived_rng(self, seed):
        with pytest.raises(Exception) as expected:
            derived_rng(seed, 0)
        with pytest.raises(expected.type):
            next(derived_rngs(seed, 3))


class TestRawDraws:
    # (7, 7 + 3 * 2**30): Lemire's loop rejects a quarter of its 32-bit draws;
    # (5, 6) takes no draw; (0, 2**32) is a bare 32-bit draw
    @pytest.mark.parametrize("lo, hi", [(7, 7 + 3 * 2**30), (0, 3), (-4, 9), (5, 6),
                                        (0, 2**32)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 2**64 + 5])
    def test_equals_generator_interleaved_with_doubles(self, seed, lo, hi):
        ref = derived_rng(seed, 0)
        draws = RawDraws(derived_rng(seed, 0).bit_generator)
        # words are taken 1,024 at a time: 3,000 draws cross a block's edge
        for pick in np.random.default_rng(seed % 97).integers(0, 4, size=3000).tolist():
            if pick == 0:
                assert draws.random() == ref.random()
            elif pick == 1:
                assert draws.uniform(0.4, 1.0) == ref.uniform(0.4, 1.0)
            else:
                got = draws.integers(lo, hi)
                assert type(got) is int and got == ref.integers(lo, hi)

    def test_starts_from_a_kept_half(self):
        ref = np.random.default_rng(9)
        ref.integers(0, 10)  # leaves the word's high half for the next draw
        assert ref.bit_generator.state["has_uint32"]
        draws = RawDraws(copy.deepcopy(ref).bit_generator)
        for _ in range(100):
            assert draws.integers(0, 10) == ref.integers(0, 10)
            assert draws.random() == ref.random()

    @pytest.mark.parametrize("lo, hi", [(3, 3), (3, 2), (0, 2**32 + 1)])
    def test_ranges_outside_the_replay_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="1 to 2\\*\\*32"):
            RawDraws(np.random.PCG64(0)).integers(lo, hi)


def per_record_reference(signals, fam, seed):
    """``precompute`` spelled out one record at a time: ``(ybar, masks,
    noise_var, clean_xbar)`` from ``corrupt(signals[i], fam, rng)`` with
    ``rng = derived_rng(seed, i)``."""
    records = [corrupt(x, fam, derived_rng(seed, i)) for i, x in enumerate(signals)]
    return (np.array([m.ybar for m in records]), np.array([m.mask for m in records]),
            np.array([m.noise_var for m in records]),
            np.array([fam.vt.apply(x) for x in signals]))


class TestPrecompute:
    MASKS = pytest.mark.parametrize(
        "masks", [PatchDropMasks(4, 4, 2, 0.3), SingleDropMasks(16),
                  FixedMask(np.ones(16, dtype=bool)),
                  PatchDropMasks(1, 2, 1, 0.5), PatchDropMasks(16, 16, 4, 0.2)],
        ids=["patch", "single", "fixed", "two_deltas", "shapes_patch"])

    @staticmethod
    def assert_equals_per_record_corrupt(masks, sigma0, seed):
        # 300 records: the spawn word carries past its low byte
        fam = DegradationFamily(IdentityTransform(masks.n), masks, sigma0)
        signals = np.random.default_rng(3).standard_normal((300, masks.n))
        data = precompute(signals, fam, seed=seed)
        ybar, mask, noise_var, clean_xbar = per_record_reference(signals, fam, seed)
        assert data.ybar.tobytes() == ybar.tobytes()
        assert data.masks.tobytes() == mask.tobytes()
        assert data.noise_var.tobytes() == noise_var.tobytes()
        assert data.clean_xbar.tobytes() == clean_xbar.tobytes()

    # 0.2261...: sigma0 ** 2 in Python rounds differently from sigma0 * sigma0
    @pytest.mark.parametrize("sigma0", [0.0, 0.05, 0.22610530546880114])
    @MASKS
    def test_identity_equals_per_record_corrupt(self, masks, sigma0):
        self.assert_equals_per_record_corrupt(masks, sigma0, 11)

    @MASKS
    def test_seed_above_2_64_equals_per_record_corrupt(self, masks):
        self.assert_equals_per_record_corrupt(masks, 0.05, 2**64 + 3)

    def test_real_dft_matches_per_record_corrupt(self):
        # one batched transform against one product per row: last bits only
        fam = DegradationFamily(RealDFTTransform(64), LineSubsampleMasks(64, 4), 0.05)
        signals = np.random.default_rng(4).standard_normal((32, 128))
        data = precompute(signals, fam, seed=12)
        ybar, mask, noise_var, _ = per_record_reference(signals, fam, 12)
        assert data.masks.tobytes() == mask.tobytes()
        assert data.noise_var.tobytes() == noise_var.tobytes()
        assert np.max(np.abs(data.ybar - ybar)) <= 1e-13
        assert np.all(data.ybar[~data.masks] == 0.0)

    def test_simulation_mode_reproducible(self):
        fam = DegradationFamily(IdentityTransform(16), PatchDropMasks(4, 4, 2, 0.3),
                                0.02)
        signals = np.random.default_rng(0).standard_normal((32, 16))
        a = precompute(signals, fam, seed=7)
        b = precompute(signals, fam, seed=7)
        assert np.array_equal(a.ybar, b.ybar)
        assert np.array_equal(a.masks, b.masks)
        assert a.clean_xbar is not None

    def test_empirical_mask_frequency(self):
        p = 0.2
        fam = DegradationFamily(IdentityTransform(16), PatchDropMasks(4, 4, 2, p), 0.0)
        signals = np.zeros((10_000, 16))
        data = precompute(signals, fam, seed=1)
        freq = data.masks.mean(axis=0)
        se = np.sqrt(p * (1 - p) / 10_000)
        assert np.all(np.abs(freq - 0.8) <= 4.5 * se)

    def test_holds_no_per_entry_variance_array(self):
        # one scalar variance: noise_var rows, measurements and the worst
        # variance derive from the masks with the per-record bytes
        fam = DegradationFamily(IdentityTransform(16), PatchDropMasks(4, 4, 2, 0.3),
                                0.22610530546880114)
        signals = np.random.default_rng(3).standard_normal((300, 16))
        data = precompute(signals, fam, seed=11)
        arrays = {name for name, v in vars(data).items() if isinstance(v, np.ndarray)}
        assert arrays == {"ybar", "masks", "w", "clean_xbar"}
        assert data.var == fam.sigma0 * fam.sigma0
        _, _, noise_var, _ = per_record_reference(signals, fam, 11)
        for i in (0, 7, 299):
            assert data.measurement(i).noise_var.tobytes() == noise_var[i].tobytes()
        assert data.worst_noise_var() == noise_var.max()
        dropped = PrecomputedDataset(ybar=np.zeros((2, 3)), masks=np.zeros((2, 3), bool),
                                     var=0.25, w=np.ones(3))
        assert dropped.worst_noise_var() == 0.0

    def test_nonzero_ybar_at_unobserved_entry_rejected(self):
        with pytest.raises(ValueError, match="unobserved"):
            PrecomputedDataset(ybar=np.array([[5.0, 1.0]]),
                               masks=np.array([[False, True]]),
                               var=0.0, w=np.ones(2))


class TestTrainLoop:
    def setup_problem(self, sigma0=0.01, count=256, seed=3):
        fam = coordinate_mask_family(sigma0)
        signals = two_deltas_signals(count, np.random.default_rng(seed))
        data = precompute(signals, fam, seed=seed)
        schedule = DiffusionSchedule(200, max(sigma0 ** 2, 1e-5), 0.2)
        return data, schedule

    def make_model(self, seed=0):
        return Denoiser.create(2, hidden=(32, 32), emb_dim=8,
                               mean_type="predict_x", ema_decay=0.99,
                               rng=np.random.default_rng(seed))

    def test_zero_iterations_is_identity(self):
        data, schedule = self.setup_problem()
        model = self.make_model()
        init = model.params.copy()
        cfg = TrainConfig(iterations=0, batch_size=8, learning_rate=1e-3, seed=1)
        result = train(model, cfg, data, schedule)
        np.testing.assert_array_equal(model.params, init)
        np.testing.assert_array_equal(model.ema_params, init)
        assert result.metrics == []

    def test_bit_identical_across_runs(self):
        data, schedule = self.setup_problem()
        models, outs = [], []
        for _ in range(2):
            models.append(self.make_model(seed=5))
            cfg = TrainConfig(iterations=40, batch_size=12, learning_rate=1e-3,
                              seed=11, chunk_size=5, log_interval=10)
            outs.append(train(models[-1], cfg, data, schedule))
        assert np.array_equal(models[0].params, models[1].params)
        assert np.array_equal(models[0].ema_params, models[1].ema_params)
        assert outs[0].metrics == outs[1].metrics

    @pytest.mark.parametrize("oracle", [False, True])
    def test_default_is_one_chunk_of_the_whole_batch(self, oracle):
        # an unset chunk_size resolves at use, so replace(batch_size=...) keeps
        # meaning "whole batch"; its bytes equal an explicit chunk_size = batch
        data, schedule = self.setup_problem()
        base = TrainConfig(iterations=12, batch_size=8, learning_rate=1e-3,
                           seed=17, oracle_mode=oracle, log_interval=4)
        default_model, explicit_model = self.make_model(seed=6), self.make_model(seed=6)
        default = train(default_model, dataclasses.replace(base, batch_size=12),
                        data, schedule)
        explicit = train(explicit_model,
                         dataclasses.replace(base, batch_size=12, chunk_size=12),
                         data, schedule)
        assert default_model.params.tobytes() == explicit_model.params.tobytes()
        assert default_model.ema_params.tobytes() == explicit_model.ema_params.tobytes()
        assert default.metrics == explicit.metrics

    @pytest.mark.parametrize("oracle", [False, True])
    def test_one_chunk_step_equals_the_zero_filled_reduction(self, oracle):
        # a one-chunk step takes its chunk's gradient as is; the reference
        # adds it into zeros at weight 1.0, as the chunked path does
        data, schedule = self.setup_problem()
        cfg = TrainConfig(iterations=15, batch_size=12, learning_rate=1e-2, seed=23,
                          oracle_mode=oracle, log_interval=1)
        model = self.make_model(seed=8)
        whole = train(model, cfg, data, schedule)
        ref_model = self.make_model(seed=8)
        ref_rows = chunked_reference(ref_model, dataclasses.replace(cfg, chunk_size=12),
                                     data, schedule)
        assert model.params.tobytes() == ref_model.params.tobytes()
        assert model.ema_params.tobytes() == ref_model.ema_params.tobytes()
        rows = [(r.loss, r.divergence_term, r.grad_norm) for r in whole.metrics]
        assert np.array(rows).tobytes() == np.array(ref_rows).tobytes()

    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_adam_then_ema_once_per_step(self, monkeypatch, chunk_size):
        # step timings are cut at ema_update returns, so the loop must keep
        # one optimizer call and then one EMA call per step
        data, schedule = self.setup_problem()
        model = self.make_model()
        calls = []

        def adam(*args, **kwargs):
            calls.append("adam")
            adam_step(*args, **kwargs)

        def ema(update=model.ema_update):
            calls.append("ema")
            update()

        monkeypatch.setattr(training, "adam_step", adam)
        monkeypatch.setattr(model, "ema_update", ema)
        cfg = TrainConfig(iterations=7, batch_size=12, learning_rate=1e-3, seed=2,
                          chunk_size=chunk_size)
        train(model, cfg, data, schedule)
        assert calls == ["adam", "ema"] * 7

    @pytest.mark.parametrize("oracle", [False, True])
    def test_explicit_chunk_keeps_chunked_bytes(self, oracle):
        data, schedule = self.setup_problem()
        cfg = TrainConfig(iterations=6, batch_size=12, learning_rate=1e-3, seed=19,
                          oracle_mode=oracle, chunk_size=5, log_interval=1)
        model = self.make_model(seed=7)
        chunked = train(model, cfg, data, schedule)
        ref_model = self.make_model(seed=7)
        ref_rows = chunked_reference(ref_model, cfg, data, schedule)
        assert model.params.tobytes() == ref_model.params.tobytes()
        assert model.ema_params.tobytes() == ref_model.ema_params.tobytes()
        assert [(r.loss, r.divergence_term, r.grad_norm)
                for r in chunked.metrics] == ref_rows
        # and the cap is real: one pass per step gives other bytes
        whole_model = self.make_model(seed=7)
        train(whole_model, dataclasses.replace(cfg, chunk_size=None), data, schedule)
        assert whole_model.params.tobytes() != model.params.tobytes()

    @pytest.mark.parametrize("oracle", [False, True])
    def test_traced_peak_above_entry(self, oracle):
        # the shapes_patch net (271,360 parameters): Adam's two moments and the
        # step's gradient, plus activations and block scratch; no step makes a
        # parameter-sized temporary
        fam = DegradationFamily(IdentityTransform(256), PatchDropMasks(16, 16, 4, 0.2),
                                0.01)
        data = precompute(np.random.default_rng(0).random((64, 256)), fam, seed=1)
        model = Denoiser.create(256, hidden=(256, 256, 256), emb_dim=32)
        cfg = TrainConfig(iterations=3, batch_size=32, learning_rate=1e-3, seed=2,
                          oracle_mode=oracle)
        schedule = DiffusionSchedule(1000, 1e-4, 0.2)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            train(model, cfg, data, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 4.5 * model.params.nbytes

    def test_chunk_size_must_be_positive_when_set(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=4, learning_rate=1e-3, seed=0,
                        chunk_size=0)

    def test_oracle_mode_requires_clean_data(self):
        data, schedule = self.setup_problem()
        stripped = PrecomputedDataset(ybar=data.ybar, masks=data.masks,
                                      var=data.var, w=data.w)
        cfg = TrainConfig(iterations=1, batch_size=4, learning_rate=1e-3, seed=0,
                          oracle_mode=True)
        with pytest.raises(ValueError):
            train(self.make_model(), cfg, stripped, schedule)

    def test_divergence_aborts_with_step_index(self):
        data, schedule = self.setup_problem()
        cfg = TrainConfig(iterations=50, batch_size=8, learning_rate=1e200, seed=2)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            train(self.make_model(), cfg, data, schedule)
        assert exc.value.step >= 1

    def test_feasible_t_range_respected(self):
        data, _ = self.setup_problem(sigma0=0.05)
        schedule = DiffusionSchedule(200, 1e-5, 0.2)  # beta_1 below sigma0^2
        model = self.make_model()
        cfg = TrainConfig(iterations=3, batch_size=4, learning_rate=1e-3, seed=4)
        result = train(model, cfg, data, schedule)
        assert result.t_min_valid > 1

    def test_oracle_and_gsure_agree_without_degradation(self):
        # sigma0 = 0 and full masks: per-step losses differ only by the
        # (zero-mean) divergence term, and loss averages stay within 5%
        fam = DegradationFamily(IdentityTransform(2), FixedMask(np.ones(2, bool)), 0.0)
        signals = two_deltas_signals(256, np.random.default_rng(8))
        data = precompute(signals, fam, seed=8)
        schedule = DiffusionSchedule(200, 1e-5, 0.2)
        loss_cfg = LossConfig()

        runs = {}
        for oracle in (False, True):
            model = self.make_model(seed=21)
            cfg = TrainConfig(iterations=600, batch_size=16, learning_rate=2e-3,
                              seed=31, oracle_mode=oracle, loss=loss_cfg,
                              log_interval=1)
            runs[oracle] = train(model, cfg, data, schedule)

        g0 = runs[False].metrics[0]
        o0 = runs[True].metrics[0]
        assert g0.loss - g0.divergence_term == pytest.approx(o0.loss, rel=1e-10)

        tail = slice(100, None)
        g_mean = np.mean([r.loss for r in runs[False].metrics[tail]])
        o_mean = np.mean([r.loss for r in runs[True].metrics[tail]])
        assert abs(g_mean - o_mean) / o_mean < 0.05

    def test_two_deltas_end_to_end(self):
        # training on masked corrupted data reduces the loss by 10x and the
        # denoiser maps low-noise inputs near the two modes
        fam = coordinate_mask_family(0.01)
        signals = two_deltas_signals(2048, np.random.default_rng(12))
        data = precompute(signals, fam, seed=12)
        schedule = DiffusionSchedule(100, 1e-4, 0.2)
        model = Denoiser.create(2, hidden=(64, 64, 64), emb_dim=16,
                                mean_type="predict_x", ema_decay=0.995,
                                rng=np.random.default_rng(13))
        loss = LossConfig(gamma="snr", lam="scaled_inverse_snr", lam_coef=1e-4)
        cfg = TrainConfig(iterations=5000, batch_size=32, learning_rate=2e-3,
                          seed=14, loss=loss, log_interval=25)
        result = train(model, cfg, data, schedule)

        initial = result.metrics[0].loss
        tail = np.mean([r.loss for r in result.metrics[-4:]])
        assert tail <= initial / 10.0

        rng = np.random.default_rng(15)
        t_lo = result.t_min_valid
        abar = schedule.abar(t_lo)
        signs = np.sign(rng.standard_normal(128))
        xbar = np.outer(signs, np.ones(2))
        xbar_t = np.sqrt(abar) * xbar + np.sqrt(1 - abar) * rng.standard_normal((128, 2))
        est = model.denoise(xbar_t, t_lo, schedule, ema=True)
        dist = np.linalg.norm(est - xbar, axis=1)
        assert np.median(dist) < 0.3
