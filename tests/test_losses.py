"""Risk estimators: unbiasedness identities, divergence estimation, gradients."""

import numpy as np
import pytest

from specdiff.diffusion import DiffusionSchedule
from specdiff.losses import (
    LossConfig,
    gamma_at,
    gsure_diffusion_loss,
    gsure_loss_from_samples,
    lambda_at,
    supervised_loss,
    supervised_loss_from_samples,
)
from specdiff.model import Denoiser
from specdiff.operators import IdentityTransform, Measurement

from fixtures import ConstantModel, LinearModel
from helpers import (
    SpectralDegradation,
    central_difference,
    corrupt_spectral,
    finite_diff_divergence,
    fraction_close,
    hutchinson_probe_values,
    projected_loss_rows,
)


@pytest.fixture(scope="module")
def schedule():
    return DiffusionSchedule(100, 1e-4, 0.2)


def coordinate_masks(batch, n, rng):
    """Masks dropping exactly one uniformly chosen coordinate per row."""
    drop = rng.integers(0, n, size=batch)
    masks = np.ones((batch, n), dtype=bool)
    masks[np.arange(batch), drop] = False
    return masks


def draw_xbar_t(xbar_rows, mask_rows, sigma0, abar, rng):
    """Corrupted then re-noised samples with the ideal marginal per mask."""
    noise = sigma0 * rng.standard_normal(xbar_rows.shape)
    ybar = np.where(mask_rows, xbar_rows + noise, 0.0)
    c = (1.0 - abar) - abar * sigma0 ** 2 * mask_rows
    return np.sqrt(abar) * ybar + np.sqrt(c) * rng.standard_normal(xbar_rows.shape), ybar


class TestConfig:
    def test_rules_evaluate(self):
        cfg = LossConfig(gamma="snr", lam="scaled_inverse_snr", lam_coef=1e-4)
        abar = np.array([0.9, 0.5])
        np.testing.assert_allclose(gamma_at(cfg, abar), abar / (1 - abar))
        np.testing.assert_allclose(lambda_at(cfg, abar), 1e-4 * (1 - abar) / abar)
        np.testing.assert_allclose(lambda_at(LossConfig(lam="theory"), abar), 1 - abar)
        cfg_exact = LossConfig(lam="exact")
        np.testing.assert_allclose(lambda_at(cfg_exact, abar),
                                   (1 - abar) / np.sqrt(abar))

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(gamma="bogus")
        with pytest.raises(ValueError):
            LossConfig(probes=0)


class TestSupervisedLoss:
    def test_perfect_denoiser_zero(self, schedule):
        xbar = np.array([0.5, -1.5])
        model = ConstantModel(xbar)
        out = supervised_loss(model, xbar, 10, schedule, np.random.default_rng(0))
        assert out.value == pytest.approx(0.0, abs=1e-25)

    def test_zero_denoiser_value(self, schedule):
        xbar = np.array([1.0, 2.0, -1.0])
        model = ConstantModel(np.zeros(3))
        out = supervised_loss(model, xbar, 5, schedule, np.random.default_rng(1))
        assert out.value == pytest.approx(np.sum(xbar ** 2))

    def test_matches_straight_line_reimplementation(self, schedule):
        rng = np.random.default_rng(2)
        model = Denoiser.create(4, hidden=(10,), emb_dim=8, rng=rng)
        xbar = rng.standard_normal((6, 4))
        t_vec = rng.integers(1, 101, size=6)
        abar = schedule.abar(t_vec)[:, None]
        xbar_t = np.sqrt(abar) * xbar + np.sqrt(1 - abar) * rng.standard_normal((6, 4))
        cfg = LossConfig(gamma="snr")
        out = supervised_loss_from_samples(model, xbar, xbar_t, t_vec, schedule, cfg)
        est = model.denoise(xbar_t, t_vec, schedule)
        gam = gamma_at(cfg, schedule.abar(t_vec))
        expected = float(np.mean(gam * np.sum((est - xbar) ** 2, axis=1)))
        assert out.value == pytest.approx(expected, rel=1e-12)


class TestProjectedLoss:
    def test_full_mask_unweighted(self, schedule):
        rng = np.random.default_rng(3)
        model = ConstantModel(np.zeros(3))
        xbar = rng.standard_normal(3)
        xbar_t = rng.standard_normal(3)
        got = projected_loss_rows(model, xbar, xbar_t, np.ones(3, dtype=bool),
                                  np.ones(3), 7, schedule)[0]
        assert got == pytest.approx(np.sum(xbar ** 2))

    def test_masked_errors_do_not_contribute(self, schedule):
        model = ConstantModel(np.array([100.0, 0.0]))
        xbar = np.array([0.0, 1.0])
        mask = np.array([False, True])
        got = projected_loss_rows(model, xbar, np.zeros(2), mask, np.ones(2), 7,
                                  schedule)[0]
        assert got == pytest.approx(1.0)  # the wild first coordinate is dropped

    def test_mask_independent_error_recovers_full_mse(self, schedule):
        # weighted projected error averages to the unprojected error when the
        # error is independent of the mask draw and W = E[P]^(-1/2)
        rng = np.random.default_rng(4)
        n, draws = 2, 50_000
        c = np.array([0.4, -0.9])
        model = ConstantModel(c)
        w = np.sqrt(2.0) * np.ones(n)  # E[P] = I/2 for coordinate masks
        xbar = rng.standard_normal((draws, n))
        masks = coordinate_masks(draws, n, rng)
        vals = projected_loss_rows(model, xbar, np.zeros((draws, n)), masks, w,
                                   10, schedule)
        ref = np.sum((c - rng.standard_normal((draws, n))) ** 2, axis=1)
        se = np.sqrt(vals.var(ddof=1) / draws + ref.var(ddof=1) / draws)
        assert abs(vals.mean() - ref.mean()) <= 3 * se


class TestHutchinson:
    def test_linear_map_mean_matches_trace(self, schedule):
        rng = np.random.default_rng(5)
        n = 6
        a = rng.standard_normal((n, n))
        model = LinearModel(a, np.zeros(n))
        mask = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
        w = rng.uniform(1.0, 2.0, size=n)
        vals = hutchinson_probe_values(model, rng.standard_normal(n), 10, schedule,
                                       mask, w, probes=20_000, rng=rng)
        exact = model.exact_divergence(mask, w)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3 * se

    def test_identity_full_mask_mean_is_dimension(self, schedule):
        n = 5
        model = LinearModel(np.eye(n), np.zeros(n))
        rng = np.random.default_rng(6)
        vals = hutchinson_probe_values(model, np.zeros(n), 3, schedule,
                                       np.ones(n, bool), np.ones(n), 50_000, rng)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - n) <= 3 * se

    def test_two_layer_net_against_assembled_jacobian(self, schedule):
        rng = np.random.default_rng(7)
        n = 8
        model = Denoiser.create(n, hidden=(16,), emb_dim=8, rng=rng)
        x = rng.standard_normal(n)
        t = 30
        mask = np.ones(n, dtype=bool)
        w = np.ones(n)

        # exact Jacobian from n JVP passes with basis-vector tangents
        rows = np.tile(x, (n, 1))
        _, jac_cols, _ = model.evaluate(rows, np.full(n, t), schedule,
                                        tangent=np.eye(n))  # row j = J e_j
        exact = float(np.trace(jac_cols))

        vals = hutchinson_probe_values(model, x, t, schedule, mask, w,
                                       probes=100_000, rng=rng)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3 * se

    def test_variance_scales_inversely_with_probes(self, schedule):
        rng = np.random.default_rng(8)
        n = 8
        model = LinearModel(rng.standard_normal((n, n)), np.zeros(n))
        x = np.zeros(n)
        mask, w = np.ones(n, bool), np.ones(n)
        ks = [1, 2, 4, 8, 16, 32]
        reps = 400
        log_vars = []
        for k in ks:
            vals = hutchinson_probe_values(model, x, 5, schedule, mask, w,
                                           probes=k * reps, rng=rng)
            est = vals.reshape(reps, k).mean(axis=1)
            log_vars.append(np.log(est.var(ddof=1)))
        slope, intercept = np.polyfit(np.log(ks), log_vars, 1)
        fitted = slope * np.log(ks) + intercept
        ss_res = np.sum((log_vars - fitted) ** 2)
        ss_tot = np.sum((log_vars - np.mean(log_vars)) ** 2)
        assert abs(slope - (-1.0)) <= 0.1
        assert 1 - ss_res / ss_tot > 0.95

    def test_finite_difference_cross_check(self, schedule):
        rng = np.random.default_rng(11)
        n = 6
        model = Denoiser.create(n, hidden=(12,), emb_dim=8, rng=rng)
        x = rng.standard_normal(n)
        mask = np.ones(n, dtype=bool)
        w = np.ones(n)
        probes = 64
        exact = hutchinson_probe_values(model, x, 12, schedule, mask, w, probes,
                                        np.random.default_rng(42)).mean()
        fd = finite_diff_divergence(model, x, 12, schedule, mask, w, probes,
                                    np.random.default_rng(42), step=1e-4)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


    @pytest.mark.parametrize("mean_type", ["predict_x", "predict_epsilon"])
    def test_matches_the_divergence_inside_the_loss(self, schedule, mean_type):
        # one construction: on the same probes, the probe values' mean is the
        # loss's divergence term over 2 lambda (one row, gamma = 1)
        rng = np.random.default_rng(24)
        n, probes, t = 5, 7, 33
        model = Denoiser.create(n, hidden=(9, 7), emb_dim=8, mean_type=mean_type,
                                rng=rng)
        x = rng.standard_normal(n)
        mask = np.array([1, 0, 1, 1, 0], dtype=bool)
        w = rng.uniform(1.0, 2.0, size=n)
        vals = hutchinson_probe_values(model, x, t, schedule, mask, w, probes,
                                       np.random.default_rng(3))
        cfg = LossConfig(gamma="constant", lam="constant", lam_coef=0.25,
                         probes=probes)
        out = gsure_loss_from_samples(model, np.where(mask, x, 0.0), mask, x, t,
                                      np.random.default_rng(3).standard_normal((probes, n)),
                                      schedule, w, cfg)
        assert out.divergence_term == pytest.approx(2 * 0.25 * vals.mean(), rel=1e-12)


class TestGsureLoss:
    def test_parts_sum_to_value(self, schedule):
        rng = np.random.default_rng(12)
        n = 4
        model = Denoiser.create(n, hidden=(8,), emb_dim=8, rng=rng)
        deg = SpectralDegradation(IdentityTransform(n),
                                  np.array([1.0, 1.0, 0.0, 1.0]), 0.01)
        m = corrupt_spectral(rng.standard_normal(n), deg, rng)
        out = gsure_diffusion_loss(model, m.ybar, m.mask, m.noise_var, 20,
                                   schedule, np.ones(n), LossConfig(), rng)
        assert out.value == pytest.approx(out.mse_term + out.divergence_term)

    def test_same_seed_reproducible(self, schedule):
        rng = np.random.default_rng(13)
        n = 4
        model = Denoiser.create(n, hidden=(8,), emb_dim=8, rng=rng)
        deg = SpectralDegradation(IdentityTransform(n), np.ones(n), 0.01)
        m = corrupt_spectral(rng.standard_normal(n), deg, rng)
        a = gsure_diffusion_loss(model, m.ybar, m.mask, m.noise_var, 30, schedule,
                                 np.ones(n), LossConfig(),
                                 np.random.default_rng(99))
        b = gsure_diffusion_loss(model, m.ybar, m.mask, m.noise_var, 30, schedule,
                                 np.ones(n), LossConfig(),
                                 np.random.default_rng(99))
        assert a.value == b.value

    def test_linear_fixture_matches_closed_form(self, schedule):
        # production graph vs hand formula for given samples and probes
        rng = np.random.default_rng(14)
        n = 2
        a = rng.standard_normal((n, n))
        model = LinearModel(a, np.array([0.1, -0.2]))
        w = np.sqrt(2.0) * np.ones(n)
        cfg = LossConfig(gamma="constant", lam="theory", use_ybar_variant=False)
        t = 50
        abar = schedule.abar(t)
        for trial in range(30):
            mask = coordinate_masks(1, n, rng)[0]
            ybar = np.where(mask, rng.standard_normal(n), 0.0)
            xbar_t = rng.standard_normal(n)
            probe = rng.standard_normal((1, n))
            out = gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probe,
                                          schedule, w, cfg)
            est = xbar_t @ a.T + model.b
            r = xbar_t / np.sqrt(abar)
            mse = np.sum((w * mask * (est - r)) ** 2)
            jv = probe[0] @ a.T
            div = 2 * (1 - abar) * np.sum(probe[0] * mask * w ** 2 * jv)
            assert out.value == pytest.approx(mse + div, rel=1e-12)

    def test_unbiased_against_projected_loss_with_exact_lambda(self, schedule):
        # dual-estimator check: self-supervised mean = projected mean + c,
        # c = n (1 - abar) / abar for W^2 E[P] = I
        rng = np.random.default_rng(15)
        n, draws, t = 2, 200_000, 40
        abar = schedule.abar(t)
        mu = np.array([0.3, -0.2])
        sd = np.array([0.9, 1.2])
        a = np.array([[0.6, -0.2], [0.1, 0.4]])
        b = np.array([0.05, -0.1])
        model = LinearModel(a, b)
        w = np.sqrt(2.0) * np.ones(n)
        sigma0 = 0.01

        xbar = mu + sd * rng.standard_normal((draws, n))
        masks = coordinate_masks(draws, n, rng)
        xbar_t, ybar = draw_xbar_t(xbar, masks, sigma0, abar, rng)
        est = xbar_t @ a.T + b
        lam = (1 - abar) / np.sqrt(abar)
        trace_rows = np.sum(masks * w ** 2 * np.diag(a), axis=1)
        l9 = np.sum((w * masks * (est - xbar_t / np.sqrt(abar))) ** 2, axis=1) \
            + 2 * lam * trace_rows

        xbar2 = mu + sd * rng.standard_normal((draws, n))
        masks2 = coordinate_masks(draws, n, rng)
        xbar_t2, _ = draw_xbar_t(xbar2, masks2, sigma0, abar, rng)
        est2 = xbar_t2 @ a.T + b
        l8 = np.sum((w * masks2 * (est2 - xbar2)) ** 2, axis=1)

        c = n * (1 - abar) / abar
        se = np.sqrt(l9.var(ddof=1) / draws + l8.var(ddof=1) / draws)
        assert abs(l9.mean() - l8.mean() - c) <= 3 * se

    def test_variant_gap_zero_mean_for_constant_model(self, schedule):
        # replacing x_t/sqrt(abar) by ybar shifts the loss only by terms whose
        # mean is the analytic constant; the model-dependent piece averages out
        rng = np.random.default_rng(16)
        n, draws, t = 2, 100_000, 35
        abar = schedule.abar(t)
        sigma0 = 0.05
        c0 = np.array([0.7, -0.4])
        w = np.sqrt(2.0) * np.ones(n)
        xbar = rng.standard_normal((draws, n))
        masks = coordinate_masks(draws, n, rng)
        xbar_t, ybar = draw_xbar_t(xbar, masks, sigma0, abar, rng)
        est = np.tile(c0, (draws, 1))
        form_theory = np.sum((w * masks * (est - xbar_t / np.sqrt(abar))) ** 2, axis=1)
        form_ybar = np.sum((w * masks * (est - ybar)) ** 2, axis=1)
        diff = form_theory - form_ybar
        expected = n * ((1 - abar) - abar * sigma0 ** 2) / abar  # E|W P eps_extra|^2
        se = diff.std(ddof=1) / np.sqrt(draws)
        assert abs(diff.mean() - expected) <= 3 * se

    def test_noiseless_full_mask_reduces_to_supervised(self, schedule):
        # sigma0 = 0, full masks, W = I: the estimator is the plain denoising
        # loss up to the analytic constant
        rng = np.random.default_rng(17)
        n, draws, t = 2, 200_000, 25
        abar = schedule.abar(t)
        a = np.array([[0.5, 0.1], [-0.3, 0.8]])
        b = np.zeros(n)
        xbar = rng.standard_normal((draws, n))
        xbar_t = np.sqrt(abar) * xbar + np.sqrt(1 - abar) * rng.standard_normal(xbar.shape)
        est = xbar_t @ a.T + b
        lam = (1 - abar) / np.sqrt(abar)
        l9 = np.sum((est - xbar_t / np.sqrt(abar)) ** 2, axis=1) \
            + 2 * lam * np.trace(a)

        xbar2 = rng.standard_normal((draws, n))
        xbar_t2 = np.sqrt(abar) * xbar2 + np.sqrt(1 - abar) * rng.standard_normal(xbar2.shape)
        sup = np.sum(((xbar_t2 @ a.T + b) - xbar2) ** 2, axis=1)

        c = n * (1 - abar) / abar
        se = np.sqrt(l9.var(ddof=1) / draws + sup.var(ddof=1) / draws)
        assert abs(l9.mean() - sup.mean() - c) <= 3 * se

    def test_gradient_matches_finite_differences(self, schedule):
        # full loss gradient, divergence JVP included
        rng = np.random.default_rng(18)
        n = 6
        model = Denoiser.create(n, hidden=(10, 8), emb_dim=8,
                                mean_type="predict_epsilon", rng=rng)
        mask = np.array([1, 1, 0, 1, 1, 0], dtype=bool)
        ybar = np.where(mask, rng.standard_normal(n), 0.0)
        xbar_t = rng.standard_normal((1, n))
        probes = rng.standard_normal((1, n))
        w = np.where(mask, 1.2, 1.0)
        cfg = LossConfig()
        t = 40

        out = gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probes,
                                      schedule, w, cfg)
        got = out.backward_flat(model)

        theta0 = model.params.copy()

        def loss_at(theta):
            model.params[:] = theta
            val = gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probes,
                                          schedule, w, cfg).value
            return val

        fd = central_difference(loss_at, theta0, step=1e-5)
        model.params[:] = theta0
        assert fraction_close(got, fd, rel_tol=1e-3) >= 0.99

    @pytest.mark.parametrize("mean_type", ["predict_x", "predict_epsilon"])
    def test_several_probes_average_one_probe_evaluations(self, schedule, mean_type):
        # k probe blocks: the MSE term is the one-probe term, the divergence
        # term and the gradient are the mean of the k one-probe evaluations
        # (under predict_epsilon the eps->x0 map broadcasts over the blocks)
        rng = np.random.default_rng(20)
        batch, n, k = 4, 5, 3
        model = Denoiser.create(n, hidden=(9, 7), emb_dim=8, mean_type=mean_type,
                                rng=rng)
        mask = coordinate_masks(batch, n, rng)
        ybar = np.where(mask, rng.standard_normal((batch, n)), 0.0)
        xbar_t = rng.standard_normal((batch, n))
        probes = rng.standard_normal((k * batch, n))
        w = np.full(n, 1.25)
        t = np.array([3, 20, 41, 77])
        cfg = LossConfig(gamma="snr", lam="constant", lam_coef=0.5, probes=k)

        out = gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probes,
                                      schedule, w, cfg)
        ones = [gsure_loss_from_samples(model, ybar, mask, xbar_t, t,
                                        probes[j * batch:(j + 1) * batch], schedule,
                                        w, LossConfig(gamma="snr", lam="constant",
                                                      lam_coef=0.5))
                for j in range(k)]
        assert out.mse_term == pytest.approx(ones[0].mse_term, rel=1e-12)
        mean_div = np.mean([o.divergence_term for o in ones])
        assert out.divergence_term == pytest.approx(mean_div, rel=1e-12)
        assert abs(out.divergence_term) > 1e-3 * out.mse_term  # the term is exercised
        got = out.gradient()
        want = np.mean([o.gradient() for o in ones], axis=0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_infeasible_timestep_raises(self, schedule):
        from specdiff.diffusion import InfeasibleTimestepError
        rng = np.random.default_rng(19)
        n = 2
        model = LinearModel(np.eye(n), np.zeros(n))
        m = Measurement(ybar=np.array([1.0, 0.0]), mask=np.array([True, False]),
                        noise_var=np.array([0.04, 0.0]))
        with pytest.raises(InfeasibleTimestepError):
            gsure_diffusion_loss(model, m.ybar, m.mask, m.noise_var, 1, schedule,
                                 np.ones(n), LossConfig(), rng)
