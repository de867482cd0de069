"""Schedules, feasibility, perturbation marginals, and samplers."""

import dataclasses

import numpy as np
import pytest

from specdiff.diffusion import (
    DiffusionSchedule,
    InfeasibleScheduleError,
    InfeasibleTimestepError,
    check_psd_feasibility,
    ddim_sample,
    ddim_timesteps,
    ddpm_sample,
    linear_schedule,
    perturb_at,
    perturb_batch,
    reconstruct,
    t_min_for_noise_var,
    timestep_rows,
    zero_filled,
)
from specdiff.operators import (
    IdentityTransform,
    MatrixTransform,
    Measurement,
    SpectralDegradation,
    corrupt,
    corrupt_batch,
)

from test_operators import random_orthogonal


class ZeroDenoiser:
    def denoise(self, x, t, schedule, ema=True):
        return np.zeros_like(x)


class ConstantDenoiser:
    def __init__(self, point):
        self.point = np.asarray(point, dtype=np.float64)

    def denoise(self, x, t, schedule, ema=True):
        if x.ndim == 1:
            return self.point.copy()
        return np.tile(self.point, (x.shape[0], 1))


class ShrinkDenoiser:
    """Posterior mean for zero-mean isotropic Gaussian data of variance s2."""

    def __init__(self, s2=1.0):
        self.s2 = s2

    def denoise(self, x, t, schedule, ema=True):
        abar = schedule.abar(t)
        k = np.sqrt(abar) * self.s2 / (abar * self.s2 + 1.0 - abar)
        return k * x


class RecordingZeroDenoiser(ZeroDenoiser):
    def __init__(self):
        self.seen = []

    def denoise(self, x, t, schedule, ema=True):
        self.seen.append((t, np.array(x, copy=True)))
        return super().denoise(x, t, schedule, ema=ema)


def full_measurement(ybar, noise_var):
    return Measurement(ybar=ybar, mask=np.ones(ybar.shape[0], dtype=bool),
                       noise_var=noise_var)


class TestSchedules:
    def test_full_scale_schedule(self):
        s = linear_schedule(1000, 1e-4, 0.2)
        assert s.T == 1000
        assert s.betas[0] == 1e-4 and s.betas[-1] == 0.2
        assert s.alpha_bars[-1] < 1e-40  # essentially pure noise at T

    def test_single_step(self):
        s = linear_schedule(1, 0.1, 0.1)
        assert s.abar(1) == pytest.approx(0.9)

    def test_hand_cumprod(self):
        s = linear_schedule(3, 0.1, 0.3)
        np.testing.assert_allclose(s.betas, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(s.alpha_bars, [0.9, 0.72, 0.504])

    def test_ordering_violations(self):
        with pytest.raises(ValueError):
            linear_schedule(10, 0.2, 0.1)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.1, 1.0)

    def test_alpha_bars_derived_from_betas(self):
        betas = np.linspace(1e-4, 0.2, 100)
        want = np.cumprod(1.0 - betas).tobytes()
        s = DiffusionSchedule(betas=betas)
        assert s.alpha_bars.tobytes() == want
        moved = dataclasses.replace(s, t_min_valid=7)
        assert moved.t_min_valid == 7 and moved.alpha_bars.tobytes() == want
        assert linear_schedule(100, 1e-4, 0.2).alpha_bars.tobytes() == want
        with pytest.raises(TypeError):
            DiffusionSchedule(betas=betas, alpha_bars=np.cumprod(1.0 - betas))
        # 1 - 1e-17 rounds to 1.0, so the derived abar does not decrease
        with pytest.raises(ValueError, match="strictly decreasing"):
            DiffusionSchedule(betas=np.array([1e-17, 1e-17]))

    @pytest.mark.parametrize("t", [0, 11])
    @pytest.mark.parametrize("wrap", [int, np.int64, lambda t: np.array([3, t])],
                             ids=["int", "int64", "array"])
    def test_lookups_reject_out_of_range(self, t, wrap):
        s = linear_schedule(10, 0.1, 0.3)
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            s.abar(wrap(t))

    def test_scalar_and_array_lookups_agree(self):
        s = linear_schedule(10, 0.1, 0.3)
        ts = np.arange(1, 11)
        want = s.abar(ts)
        assert want.tobytes() == s.alpha_bars.tobytes()
        for t, value in zip(ts, want):
            assert s.abar(int(t)) == value
            assert s.abar(t) == value

    def test_timestep_rows(self):
        np.testing.assert_array_equal(timestep_rows(7, 3), [7, 7, 7])
        assert timestep_rows(np.array([4, 2]), 2).dtype == np.int64
        with pytest.raises(ValueError, match="one timestep per row"):
            timestep_rows(np.array([4, 2]), 3)

    def test_abar_prev_convention(self):
        # the reverse loop's abar_{t-1} table, with abar_0 = 1
        s = linear_schedule(3, 0.1, 0.3)
        assert s._abars_prev[0] == 1.0
        assert s._abars_prev[1:].tobytes() == s.alpha_bars[:-1].tobytes()
        assert s._abars_prev[2] == pytest.approx(0.72)


class TestFeasibility:
    def test_noiseless_always_feasible(self):
        s = linear_schedule(100, 1e-4, 0.2)
        deg = SpectralDegradation(IdentityTransform(4), np.ones(4), 0.0)
        assert check_psd_feasibility(s, deg) == 1

    def test_matched_beta1_feasible_at_one(self):
        # beta1 = sigma0^2 makes t = 1 feasible for unit singular values
        sigma0 = 0.01
        s = linear_schedule(1000, sigma0 ** 2, 0.2)
        deg = SpectralDegradation(IdentityTransform(4), np.ones(4), sigma0)
        assert check_psd_feasibility(s, deg) == 1
        assert (1 - s.abar(1)) - s.abar(1) * sigma0 ** 2 >= 0

    def test_small_singular_scan_matches_closed_form(self):
        sigma0 = 0.01
        s = linear_schedule(1000, sigma0 ** 2, 0.2)
        sing = np.array([1.0, 0.1, 1.0])
        deg = SpectralDegradation(IdentityTransform(3), sing, sigma0)
        t_min = check_psd_feasibility(s, deg)
        nu = (sigma0 / 0.1) ** 2
        # closed form: first t with abar_t <= 1 / (1 + nu)
        closed = int(np.flatnonzero(s.alpha_bars <= 1.0 / (1.0 + nu))[0]) + 1
        assert t_min == closed
        assert t_min > 1

    def test_feasibility_monotone(self):
        sigma0 = 0.05
        s = linear_schedule(200, 1e-4, 0.2)
        deg = SpectralDegradation(IdentityTransform(2), np.array([1.0, 0.2]), sigma0)
        t_min = check_psd_feasibility(s, deg)
        nu = deg.noise_var.max()
        feas = (1 - s.alpha_bars) >= s.alpha_bars * nu
        assert not feas[:t_min - 1].any()
        assert feas[t_min - 1:].all()

    def test_infeasible_schedule_raises(self):
        s = linear_schedule(5, 1e-6, 2e-6)
        deg = SpectralDegradation(IdentityTransform(2), np.ones(2), 1.0)
        with pytest.raises(InfeasibleScheduleError):
            check_psd_feasibility(s, deg)

    @pytest.mark.parametrize("noise_var, t_min", [
        (np.array([0.0, 1e-3, 2.5e-2, 4e-4]), 8),
        (np.array([[1e-3, 0.0], [2.5e-2, 4e-4]]), 8),
        (np.zeros((0, 3)), 1),
    ])
    def test_array_floor_is_that_of_its_largest_entry(self, noise_var, t_min):
        s = linear_schedule(200, 1e-4, 0.2)
        worst = float(noise_var.max(initial=0.0))  # the plain-float path
        assert t_min_for_noise_var(s, noise_var) == t_min
        assert t_min_for_noise_var(s, worst) == t_min


class TestPerturb:
    def test_noiseless_full_mask_is_standard_forward(self):
        s = linear_schedule(50, 1e-3, 0.2)
        ybar = np.array([0.5, -1.0, 2.0])
        m = full_measurement(ybar, np.zeros(3))
        t = 20
        x1 = perturb_batch(m.ybar, m.noise_var, np.array([t]), s,
                           np.random.default_rng(9))[0]
        eps = np.random.default_rng(9).standard_normal((1, 3))[0]
        expected = np.sqrt(s.abar(t)) * ybar + np.sqrt(1 - s.abar(t)) * eps
        np.testing.assert_allclose(x1, expected, rtol=0, atol=1e-14)

    def test_masked_entry_marginal(self):
        # masked coordinate: mean 0, variance 1 - abar_t
        s = linear_schedule(100, 1e-4, 0.2)
        t, draws = 60, 100_000
        mask = np.array([True, False])
        ybar = np.array([0.7, 0.0])
        nv = np.array([1e-4, 0.0])
        rows = perturb_batch(np.tile(ybar, (draws, 1)), np.tile(nv, (draws, 1)),
                             np.full(draws, t), s, np.random.default_rng(3))
        v = 1 - s.abar(t)
        assert abs(rows[:, 1].mean()) <= 3 * np.sqrt(v / draws)
        assert abs(rows[:, 1].var() - v) <= 3 * v * np.sqrt(2.0 / draws)

    def test_kept_entry_variance_bookkeeping(self):
        # measurement noise + top-up noise = 1 - abar_t in total
        sigma0, t, draws = 0.05, 40, 100_000
        s = linear_schedule(100, sigma0 ** 2, 0.3)
        deg = SpectralDegradation(IdentityTransform(2), np.ones(2), sigma0)
        x = np.array([0.4, -0.6])
        rng = np.random.default_rng(4)
        ybar = corrupt_batch(np.tile(x, (draws, 1)), deg, rng)
        rows = perturb_batch(ybar, np.tile(deg.noise_var, (draws, 1)),
                             np.full(draws, t), s, rng)
        abar = s.abar(t)
        v = 1 - abar
        np.testing.assert_allclose(rows.mean(0), np.sqrt(abar) * x,
                                   atol=3 * np.sqrt(v / draws))
        assert np.all(np.abs(rows.var(0) - v) <= 3 * v * np.sqrt(2.0 / draws))

    def test_batch_is_the_draw_at_its_abar_column(self):
        s = linear_schedule(100, 1e-4, 0.2)
        rng = np.random.default_rng(6)
        ybar = rng.standard_normal((5, 3))
        nv = np.tile([1e-3, 0.0, 4e-4], (5, 1))
        t = np.array([90, 40, 100, 55, 70])
        got = perturb_batch(ybar, nv, t, s, np.random.default_rng(2))
        want = perturb_at(ybar, nv, s.abar(t)[:, None], np.random.default_rng(2))
        np.testing.assert_array_equal(got, want)

    def test_below_feasibility_raises(self):
        s = linear_schedule(1000, 1e-4, 0.2)
        nv = np.full(2, 1e-2)  # needs t around 10, not 1
        m = Measurement(ybar=np.array([1.0, 2.0]), mask=np.ones(2, dtype=bool),
                        noise_var=nv)
        with pytest.raises(InfeasibleTimestepError):
            perturb_batch(m.ybar, m.noise_var, np.array([1]), s,
                          np.random.default_rng(0))


class TestDdim:
    def test_deterministic_at_eta_zero(self):
        s = linear_schedule(100, 1e-4, 0.2)
        vt = IdentityTransform(3)
        model = ShrinkDenoiser()
        a = ddim_sample(model, s, 10, 0.0, np.random.default_rng(5), vt)
        b = ddim_sample(model, s, 10, 0.0, np.random.default_rng(5), vt)
        assert np.array_equal(a, b)

    def test_zero_denoiser_closed_form_trajectory(self):
        s = linear_schedule(100, 1e-3, 0.2)
        vt = IdentityTransform(2)
        model = RecordingZeroDenoiser()
        ddim_sample(model, s, 7, 0.0, np.random.default_rng(6), vt)
        ts = ddim_timesteps(s, 7)
        t0, x0 = model.seen[0]
        assert t0 == s.T
        for (t, x) in model.seen[1:]:
            expected = np.sqrt((1 - s.abar(t)) / (1 - s.abar(s.T))) * x0
            np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)
        assert [t for t, _ in model.seen] == ts.tolist()

    @pytest.mark.parametrize("steps", [10, 20, 50, 100])
    def test_step_grids_accepted(self, steps):
        s = linear_schedule(1000, 1e-4, 0.2)
        out = ddim_sample(ZeroDenoiser(), s, steps, 0.0,
                          np.random.default_rng(0), IdentityTransform(2))
        assert out.shape == (1, 2)
        assert np.all(np.isfinite(out))

    def test_timestep_grid_endpoints(self):
        s = linear_schedule(1000, 1e-4, 0.2)
        ts = ddim_timesteps(s, 10)
        assert ts[0] == 1000 and ts[-1] == 1
        assert np.all(np.diff(ts) < 0)


class TestDdpm:
    def test_single_step_returns_denoised_point(self):
        s = linear_schedule(1, 0.1, 0.1)
        point = np.array([1.5, -2.0])
        out = ddpm_sample(ConstantDenoiser(point), s, np.random.default_rng(1),
                          IdentityTransform(2))
        np.testing.assert_allclose(out[0], point, rtol=0, atol=0)

    def test_sampling_is_stochastic(self):
        s = linear_schedule(30, 1e-3, 0.2)
        vt = IdentityTransform(2)
        model = ShrinkDenoiser()
        rng = np.random.default_rng(2)
        outs = np.vstack([ddpm_sample(model, s, rng, vt) for _ in range(20)])
        assert outs.std(axis=0).min() > 0

    def test_moments_match_ddim_eta_one(self):
        # ancestral sampling vs the eta = 1 strided sampler run at full length
        s = linear_schedule(60, 1e-4, 0.05)
        vt = IdentityTransform(2)
        model = ShrinkDenoiser(s2=1.0)
        n = 1000
        a = ddpm_sample(model, s, np.random.default_rng(7), vt, count=n)
        b = ddim_sample(model, s, 60, 1.0, np.random.default_rng(8), vt, count=n)
        va, vb = a.var(axis=0), b.var(axis=0)
        se_mean = np.sqrt(va / n + vb / n)
        assert np.all(np.abs(a.mean(0) - b.mean(0)) <= 3 * se_mean)
        se_var = np.sqrt(2.0 / (n - 1)) * (va + vb)  # generous pooled spread
        assert np.all(np.abs(va - vb) <= 3 * se_var)


class TestReconstruct:
    def test_clean_full_mask_returns_input(self):
        rng = np.random.default_rng(3)
        vt = MatrixTransform(random_orthogonal(6, rng))
        x = rng.standard_normal(6)
        deg = SpectralDegradation(vt, np.ones(6), 0.0)
        m = corrupt(x, deg, rng)
        s = linear_schedule(100, 1e-4, 0.2)
        out = reconstruct(ShrinkDenoiser(), s, m, 20, np.random.default_rng(4), vt)
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-6)
        np.testing.assert_allclose(zero_filled(m, vt), x, rtol=0, atol=1e-12)

    def test_clean_partial_mask_consistent_on_kept(self):
        rng = np.random.default_rng(5)
        n = 8
        vt = IdentityTransform(n)
        sing = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        deg = SpectralDegradation(vt, sing, 0.0)
        x = rng.standard_normal(n)
        m = corrupt(x, deg, rng)
        s = linear_schedule(100, 1e-4, 0.2)
        out = reconstruct(ShrinkDenoiser(), s, m, 25, np.random.default_rng(6), vt)
        np.testing.assert_allclose(vt.apply(out)[m.mask], m.ybar[m.mask],
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("eta", [0.0, 0.6])
    def test_empty_noiseless_measurement_is_ddim(self, eta):
        # nothing kept, nothing to weigh: reconstruct is DDIM on one row
        from specdiff.model import Denoiser

        rng = np.random.default_rng(9)
        n = 6
        vt = MatrixTransform(random_orthogonal(n, rng))
        model = Denoiser.create(n, hidden=(16, 16), emb_dim=8,
                                mean_type="predict_epsilon", rng=rng)
        m = Measurement(ybar=np.zeros(n), mask=np.zeros(n, dtype=bool),
                        noise_var=np.zeros(n))
        s = linear_schedule(100, 1e-4, 0.2)
        rec = reconstruct(model, s, m, 20, np.random.default_rng(10), vt, eta=eta)
        ddim = ddim_sample(model, s, 20, eta, np.random.default_rng(10), vt)
        assert rec.tobytes() == ddim[0].tobytes()

    @pytest.mark.parametrize("eta", [-0.1, 1.5])
    def test_eta_outside_unit_interval_rejected(self, eta):
        # reconstruct and DDIM sampling share one step and its check of eta
        s = linear_schedule(100, 1e-4, 0.2)
        vt = IdentityTransform(2)
        m = Measurement(ybar=np.array([1.0, 0.0]), mask=np.array([True, False]),
                        noise_var=np.zeros(2))
        with pytest.raises(ValueError, match="eta"):
            reconstruct(ShrinkDenoiser(), s, m, 20, np.random.default_rng(0), vt,
                        eta=eta)
        with pytest.raises(ValueError, match="eta"):
            ddim_sample(ShrinkDenoiser(), s, 20, eta, np.random.default_rng(0), vt)

    def test_noisy_masks_give_finite_outputs(self):
        rng = np.random.default_rng(7)
        n = 8
        vt = IdentityTransform(n)
        s = linear_schedule(200, 1e-4, 0.2)
        x = rng.standard_normal(n)
        for kept in (6, 4, 2):
            sing = np.zeros(n)
            sing[rng.choice(n, size=kept, replace=False)] = 1.0
            m = corrupt(x, SpectralDegradation(vt, sing, 0.01), rng)
            out = reconstruct(ShrinkDenoiser(), s, m, 20, np.random.default_rng(8), vt)
            assert np.all(np.isfinite(out))


class TestSamplingPlan:
    """The samplers read per-step constants from tables built once per call.
    A reference loop with the per-step scalar formulas, looking the schedule
    up at every step, gives the same bytes."""

    @staticmethod
    def reference(model, s, ts, x, rng, eta=None, consistency=None):
        """DDIM along ``ts`` (DDPM when ``eta`` is None); ``consistency`` is
        ``(kept, ybar_kept, nv)`` for reconstruct's data-consistency edit."""
        def estimate(x, t):
            x0_hat = model.denoise(x, t, s, ema=True)
            if consistency is None:
                return x0_hat
            kept, ybar_kept, nv = consistency
            abar_t = s.abar(t)
            est_var = (1.0 - abar_t) / abar_t
            w_meas = est_var / (est_var + nv)
            out = x0_hat.copy()
            out[kept] = w_meas * ybar_kept + (1.0 - w_meas) * x0_hat[kept]
            return out

        for t, t_next in zip(ts[:-1].tolist(), ts[1:].tolist()):
            x0_hat = estimate(x, t)
            abar_t = s.abar(t)
            if eta is None:
                abar_p = s.abar(t - 1) if t > 1 else 1.0
                beta_t = s.betas[t - 1]
                mean = (np.sqrt(abar_p) * beta_t / (1.0 - abar_t)) * x0_hat \
                    + (np.sqrt(1.0 - beta_t) * (1.0 - abar_p) / (1.0 - abar_t)) * x
                x = mean + np.sqrt(beta_t) * rng.standard_normal(x.shape)
                continue
            abar_n = s.abar(t_next)
            eps_hat = (x - np.sqrt(abar_t) * x0_hat) / np.sqrt(1.0 - abar_t)
            sigma = eta * np.sqrt((1.0 - abar_n) / (1.0 - abar_t)) \
                * np.sqrt(1.0 - abar_t / abar_n)
            x = np.sqrt(abar_n) * x0_hat \
                + np.sqrt(np.maximum(1.0 - abar_n - sigma ** 2, 0.0)) * eps_hat
            if sigma > 0.0:
                x = x + sigma * rng.standard_normal(x.shape)
        return estimate(x, int(ts[-1]))

    @staticmethod
    def net(n=5, mean_type="predict_x"):
        from specdiff.model import Denoiser

        return Denoiser.create(n, hidden=(16, 12), emb_dim=8, mean_type=mean_type,
                               rng=np.random.default_rng(11))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("eta", [0.0, 0.85])
    def test_ddim_equals_per_step_loop(self, rows, eta):
        s, vt, model = linear_schedule(100, 1e-4, 0.2), IdentityTransform(5), self.net()
        got = ddim_sample(model, s, 17, eta, np.random.default_rng(12), vt, count=rows)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((rows, 5))
        want = self.reference(model, s, ddim_timesteps(s, 17), x, rng, eta=eta)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_ddpm_equals_per_step_loop(self, rows):
        s = dataclasses.replace(linear_schedule(60, 1e-4, 0.2), t_min_valid=4)
        model = self.net(mean_type="predict_epsilon")
        got = ddpm_sample(model, s, np.random.default_rng(13), IdentityTransform(5),
                          count=rows)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((rows, 5))
        want = self.reference(model, s, np.arange(60, 3, -1), x, rng)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sigma0", [0.0, 0.05])
    @pytest.mark.parametrize("eta", [0.0, 0.85])
    def test_reconstruct_equals_per_step_loop(self, sigma0, eta):
        rng = np.random.default_rng(14)
        n = 5
        vt = MatrixTransform(random_orthogonal(n, rng))
        model = self.net()
        m = corrupt(rng.standard_normal(n),
                    SpectralDegradation(vt, np.array([1.0, 0.0, 1.0, 1.0, 0.0]), sigma0),
                    rng)
        s = linear_schedule(100, 1e-4, 0.2)
        got = reconstruct(model, s, m, 23, np.random.default_rng(15), vt, eta=eta)
        sched = dataclasses.replace(s, t_min_valid=t_min_for_noise_var(s, m.noise_var))
        assert sched.t_min_valid > 1 if sigma0 else sched.t_min_valid == 1
        rng = np.random.default_rng(15)
        x = rng.standard_normal(n)
        kept = m.mask
        want = self.reference(model, sched, ddim_timesteps(sched, 23), x, rng, eta=eta,
                              consistency=(kept, m.ybar[kept], m.noise_var[kept]))
        assert np.array_equal(got, vt.apply_inverse(want))

    def test_one_denoise_per_visited_timestep_and_no_step_lookup(self, monkeypatch):
        s = linear_schedule(100, 1e-3, 0.2)
        model = RecordingZeroDenoiser()
        m = Measurement(ybar=np.array([1.0, 0.0]), mask=np.array([True, False]),
                        noise_var=np.zeros(2))
        monkeypatch.setattr(DiffusionSchedule, "abar", None)  # any call would fail
        reconstruct(model, s, m, 9, np.random.default_rng(0), IdentityTransform(2))
        ddpm_sample(model, s, np.random.default_rng(0), IdentityTransform(2))
        want = ddim_timesteps(s, 9).tolist() + list(range(100, 0, -1))
        assert [t for t, _ in model.seen] == want
        assert all(type(t) is int for t, _ in model.seen)
