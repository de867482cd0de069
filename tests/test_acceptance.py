"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from specdiff.cli import (
    cmd_sample,
    cmd_train,
    generate_signals,
    validate_config,
)
from specdiff.diffusion import (
    DiffusionSchedule,
    ddim_sample,
    reconstruct,
    t_min_for_noise_var,
    zero_filled,
)
from specdiff.evaluation import (
    GaussianPosteriorDenoiser,
    TwoDeltasPosteriorDenoiser,
    denoising_mse_sweep,
    distribution_distance,
    independence_demo,
)
from specdiff.losses import LossConfig, gsure_loss_from_samples
from specdiff.model import Denoiser
from specdiff.operators import (
    DegradationFamily,
    IdentityTransform,
    LineSubsampleMasks,
    MatrixTransform,
    PatchDropMasks,
    corrupt,
)
from specdiff.training import TrainConfig, precompute, train

from fixtures import ConstantModel, LinearModel
from helpers import (
    SpectralDegradation,
    central_difference,
    corrupt_batch,
    corrupt_spectral,
    fraction_close,
    hutchinson_probe_values,
    projected_loss_rows,
)

# the undersampled-acquisition recipe: SNR timestep weights and a divergence
# coefficient that scales as (1 - abar) / abar
ACQUISITION = LossConfig(gamma="snr", lam="scaled_inverse_snr", lam_coef=1e-4)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())


def coordinate_masks(batch, rng):
    masks = np.ones((batch, 2), dtype=bool)
    masks[np.arange(batch), rng.integers(0, 2, size=batch)] = False
    return masks


def draw_per_mask(xbar, masks, sigma0, abar, rng):
    """Measurement + top-up noise draws, vectorized over rows."""
    noise = sigma0 * rng.standard_normal(xbar.shape)
    ybar = np.where(masks, xbar + noise, 0.0)
    c = (1.0 - abar) - abar * sigma0 ** 2 * masks
    xbar_t = np.sqrt(abar) * ybar + np.sqrt(c) * rng.standard_normal(xbar.shape)
    return ybar, xbar_t


class TestCriterion1EstimatorUnbiasedness:
    def test_gsure_estimator_matches_projected_mse(self):
        started = time.perf_counter()
        n, draws = 2, 100_000
        sigma0 = 0.01
        schedule = DiffusionSchedule(1000, sigma0 ** 2, 0.2)
        mu = np.array([0.3, -0.2])
        sd = np.array([0.9, 1.2])
        a = np.array([[0.6, -0.2], [0.1, 0.4]])
        b = np.array([0.05, -0.1])
        model = LinearModel(a, b)
        w = np.sqrt(2.0) * np.ones(n)  # E[P] = I/2 for one-of-two masks
        rng = np.random.default_rng(4201)

        ok_all = True
        details = []
        for t in (1, 500, 1000):
            abar = float(schedule.abar(t))
            lam = 1.0 - abar  # the stated theoretical coefficient

            xbar = mu + sd * rng.standard_normal((draws, n))
            masks = coordinate_masks(draws, rng)
            _, xbar_t = draw_per_mask(xbar, masks, sigma0, abar, rng)
            est = xbar_t @ a.T + b
            probes = rng.standard_normal((draws, n))
            jv = probes @ a.T
            div = np.sum(probes * masks * w ** 2 * jv, axis=1)
            l9 = np.sum((w * masks * (est - xbar_t / np.sqrt(abar))) ** 2, axis=1) \
                + 2.0 * lam * div

            xbar2 = mu + sd * rng.standard_normal((draws, n))
            masks2 = coordinate_masks(draws, rng)
            _, xbar_t2 = draw_per_mask(xbar2, masks2, sigma0, abar, rng)
            est2 = xbar_t2 @ a.T + b
            l8 = np.sum((w * masks2 * (est2 - xbar2)) ** 2, axis=1)

            c = n * (1.0 - abar) / abar  # analytic theta-independent constant
            gap = abs(l9.mean() - l8.mean() - c)
            se = np.sqrt(l9.var(ddof=1) / draws + l8.var(ddof=1) / draws)
            ok_all &= gap <= 3 * se
            details.append(f"t={t}: |gap|/se={gap / se:.2f}")

            # the vectorized per-sample values are the production estimator
            cfg = LossConfig(gamma="constant", lam="theory",
                             use_ybar_variant=False)
            for i in range(10):
                out = gsure_loss_from_samples(
                    model, np.where(masks[i], xbar[i], 0.0), masks[i],
                    xbar_t[i], t, probes[i:i + 1], schedule, w, cfg)
                assert out.value == pytest.approx(l9[i], rel=1e-9)

        elapsed = time.perf_counter() - started
        ok_all &= elapsed < 60
        report(1, "self-supervised estimator is unbiased for the projected MSE",
               ok_all, "; ".join(details) + f"; {elapsed:.1f}s")
        assert ok_all


class TestCriterion2ProjectionIdentity:
    def test_weighted_projection_recovers_full_mse(self):
        started = time.perf_counter()
        draws = 100_000
        schedule = DiffusionSchedule(100, 1e-4, 0.2)
        c0 = np.array([0.4, -0.9])
        model = ConstantModel(c0)
        w = np.sqrt(2.0) * np.ones(2)
        rng = np.random.default_rng(4202)

        xbar = rng.standard_normal((draws, 2))
        masks = coordinate_masks(draws, rng)
        projected = projected_loss_rows(model, xbar, np.zeros((draws, 2)),
                                        masks, w, 10, schedule)
        xbar2 = rng.standard_normal((draws, 2))
        full = np.sum((c0 - xbar2) ** 2, axis=1)

        gap = abs(projected.mean() - full.mean())
        se = np.sqrt(projected.var(ddof=1) / draws + full.var(ddof=1) / draws)
        elapsed = time.perf_counter() - started
        ok = gap <= 3 * se and elapsed < 60
        report(2, "mask-independent errors make weighted projected MSE = full MSE",
               ok, f"|gap|/se={gap / se:.2f}; {elapsed:.1f}s")
        assert ok


class TestCriterion3Hutchinson:
    def test_estimator_mean_matches_exact_trace(self):
        n = 8
        schedule = DiffusionSchedule(100, 1e-4, 0.2)
        model = Denoiser.create(n, hidden=(16,), emb_dim=8,
                                rng=np.random.default_rng(4203))
        x = np.random.default_rng(4204).standard_normal(n)
        t = 30
        mask = np.ones(n, dtype=bool)
        w = np.ones(n)

        rows = np.tile(x, (n, 1))
        _, jac, _ = model.evaluate(rows, np.full(n, t), schedule, tangent=np.eye(n))
        exact = float(np.trace(jac))

        vals = hutchinson_probe_values(model, x, t, schedule, mask, w,
                                       probes=100_000,
                                       rng=np.random.default_rng(4205))
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        ok_mean = abs(vals.mean() - exact) <= 3 * se

        # per-probe variance of the averaged estimator scales as 1/probes
        lin = LinearModel(np.random.default_rng(4206).standard_normal((n, n)),
                          np.zeros(n))
        ks = [1, 2, 4, 8, 16, 32]
        reps = 400
        log_vars = []
        rng = np.random.default_rng(4207)
        for k in ks:
            vals_k = hutchinson_probe_values(lin, np.zeros(n), 5, schedule, mask,
                                             w, probes=k * reps, rng=rng)
            log_vars.append(np.log(vals_k.reshape(reps, k).mean(axis=1).var(ddof=1)))
        slope, intercept = np.polyfit(np.log(ks), log_vars, 1)
        fitted = slope * np.log(ks) + intercept
        r2 = 1 - np.sum((log_vars - fitted) ** 2) / np.sum(
            (log_vars - np.mean(log_vars)) ** 2)
        ok_slope = abs(slope + 1.0) <= 0.1 and r2 > 0.95

        ok = ok_mean and ok_slope
        report(3, "divergence estimator unbiased with 1/probes variance", ok,
               f"|mean-trace|/se={abs(vals.mean() - exact) / se:.2f}, "
               f"slope={slope:.3f}, R2={r2:.3f}")
        assert ok


class TestCriterion4GradientIntegrity:
    def test_full_loss_gradient_matches_finite_differences(self):
        n = 8
        schedule = DiffusionSchedule(100, 1e-4, 0.2)
        model = Denoiser.create(n, hidden=(20, 20), emb_dim=8,
                                mean_type="predict_epsilon",
                                rng=np.random.default_rng(4208))
        assert 900 <= model.param_count <= 1100

        rng = np.random.default_rng(4209)
        mask = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
        ybar = np.where(mask, rng.standard_normal(n), 0.0)
        xbar_t = rng.standard_normal((1, n))
        probes = rng.standard_normal((1, n))
        w = np.where(mask, 1.15, 1.0)
        cfg = ACQUISITION
        t = 35

        out = gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probes,
                                      schedule, w, cfg)
        got = out.backward_flat(model)

        theta0 = model.params.copy()

        def loss_at(theta):
            model.params[:] = theta
            return gsure_loss_from_samples(model, ybar, mask, xbar_t, t, probes,
                                           schedule, w, cfg).value

        fd = central_difference(loss_at, theta0, step=1e-5)
        model.params[:] = theta0
        frac = fraction_close(got, fd, rel_tol=1e-3)
        ok = frac >= 0.99
        report(4, "loss gradient (divergence JVP included) matches finite "
               "differences", ok,
               f"{frac * 100:.2f}% of {model.param_count} params within 1e-3")
        assert ok


class TestCriterion5PsdFeasibility:
    def test_feasibility_floor(self):
        sigma0 = 0.01
        schedule = DiffusionSchedule(1000, sigma0 ** 2, 0.2)
        unit = SpectralDegradation(IdentityTransform(4), np.ones(4), sigma0)
        ok_unit = t_min_for_noise_var(schedule, unit.noise_var) == 1

        small = SpectralDegradation(IdentityTransform(3),
                                    np.array([1.0, 0.1, 1.0]), sigma0)
        scan = t_min_for_noise_var(schedule, small.noise_var)
        nu = (sigma0 / 0.1) ** 2
        closed = int(np.flatnonzero(schedule.alpha_bars <= 1.0 / (1.0 + nu))[0]) + 1
        ok_small = scan == closed

        ok = ok_unit and ok_small
        report(5, "PSD feasibility floor: matched beta1 gives t_min = 1; scan "
               "equals closed inequality", ok,
               f"t_min(unit)=1, t_min(s=0.1)={scan}=closed({closed})")
        assert ok


class TestCriterion6MarginalLaw:
    def test_perturbation_marginal_moments(self):
        draws = 100_000
        sigma0 = 0.01
        schedule = DiffusionSchedule(1000, sigma0 ** 2, 0.2)
        sing = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        deg = SpectralDegradation(IdentityTransform(5), sing, sigma0)
        xbar = np.array([0.8, -0.5, 0.3, -1.1, 0.9])
        rng = np.random.default_rng(4210)

        ok = True
        details = []
        for t in (1, 500):
            abar = float(schedule.abar(t))
            ybar = corrupt_batch(np.tile(xbar, (draws, 1)), deg, rng)
            from specdiff.diffusion import perturb_batch

            rows = perturb_batch(ybar, np.tile(deg.noise_var, (draws, 1)),
                                 np.full(draws, t), schedule, rng)
            target_mean = np.sqrt(abar) * np.where(deg.mask, xbar, 0.0)
            v = 1.0 - abar
            se_mean = np.sqrt(v / draws)
            se_var = v * np.sqrt(2.0 / draws)
            mean_ok = np.all(np.abs(rows.mean(0) - target_mean) <= 3 * se_mean)
            var_ok = np.all(np.abs(rows.var(0) - v) <= 3 * se_var)
            ok &= mean_ok and var_ok
            details.append(
                f"t={t}: max|dm|/se={np.max(np.abs(rows.mean(0) - target_mean)) / se_mean:.2f}, "
                f"max|dv|/se={np.max(np.abs(rows.var(0) - v)) / se_var:.2f}")
        report(6, "perturbation marginal is N(sqrt(abar) P x, (1-abar) I)",
               ok, "; ".join(details))
        assert ok


@pytest.mark.slow
class TestCriterion7EndToEndParity:
    """Train self-supervised and oracle pairs on both desk datasets.

    The denoising-MSE curves must agree within 2x pointwise over an even grid
    of feasible timesteps, and the generated-sample sliced-Wasserstein gap to
    held-out data must be within 1.5x of the oracle's. A second oracle
    (independent seeds) is trained for the two-deltas pair as a measurement
    control: grid points where the identical method does not reproduce its own
    MSE within 2x are reported alongside the verdict.
    """

    def _train_one(self, data, schedule, arch, train_kw, loss_cfg, oracle,
                   model_seed):
        model = Denoiser.create(**arch, rng=np.random.default_rng(model_seed))
        cfg = TrainConfig(oracle_mode=oracle, loss=loss_cfg,
                          log_interval=2000, chunk_size=32, **train_kw)
        train(model, cfg, data, schedule)
        return model

    def _evaluate_pair(self, tag, gsure, oracle, data, holdout_signals, schedule,
                       ts, vt, gen_seed):
        sweep = denoising_mse_sweep(gsure, oracle, data.clean_xbar[:512],
                                    schedule, ts, np.random.default_rng(4302))
        ratios = [(t, a / b) for t, a, b in sweep.rows]
        gen_g = ddim_sample(gsure, schedule, 50, 0.0,
                            np.random.default_rng(gen_seed), vt, count=512)
        gen_o = ddim_sample(oracle, schedule, 50, 0.0,
                            np.random.default_rng(gen_seed), vt, count=512)
        hold = holdout_signals
        dg = distribution_distance(gen_g, hold, 128, np.random.default_rng(4303))
        do = distribution_distance(gen_o, hold, 128, np.random.default_rng(4303))
        sw_ratio = dg.sliced_wasserstein / do.sliced_wasserstein
        return sweep, ratios, sw_ratio

    def test_shapes_and_two_deltas_pairs(self):
        # -- 16x16 shapes, 4x4 patches dropped with p = 0.2 ---------------
        t0 = time.perf_counter()
        signals = generate_signals(
            {"kind": "synthetic-shapes", "height": 16, "width": 16}, 4096 + 256,
            seed=101)
        clean, holdout = signals[:4096], signals[4096:]
        fam = DegradationFamily(IdentityTransform(256),
                                PatchDropMasks(16, 16, 4, 0.2), 0.01)
        data = precompute(clean, fam, seed=102)
        schedule = DiffusionSchedule(1000, 1e-4, 0.2)
        arch = dict(n=256, hidden=(256, 256, 256), emb_dim=32,
                    mean_type="predict_x", ema_decay=0.999)
        train_kw = dict(iterations=3000, batch_size=32, learning_rate=1e-3,
                        seed=104)
        shapes_g = self._train_one(data, schedule, arch, train_kw,
                                   LossConfig(), False, 103)
        shapes_o = self._train_one(data, schedule, arch, train_kw,
                                   LossConfig(), True, 103)
        ts = sorted(set(range(1, 1001, 111)) | {1000})
        _, ratios_s, sw_s = self._evaluate_pair(
            "shapes", shapes_g, shapes_o, data, holdout, schedule, ts,
            IdentityTransform(256), gen_seed=106)
        shapes_time = time.perf_counter() - t0
        shapes_mse_ok = all(r <= 2.0 for _, r in ratios_s)
        shapes_sw_ok = sw_s <= 1.5
        shapes_ok = shapes_mse_ok and shapes_sw_ok and shapes_time < 900
        print(f"  shapes pair: worst ratio "
              f"{max(r for _, r in ratios_s):.2f} at t="
              f"{max(ratios_s, key=lambda x: x[1])[0]}, sw ratio {sw_s:.2f}, "
              f"{shapes_time:.0f}s")

        # -- two deltas, each coordinate dropped with p = 0.5 --------------
        t0 = time.perf_counter()
        signals = generate_signals({"kind": "two-deltas"}, 8192 + 512, seed=201)
        clean, holdout = signals[:8192], signals[8192:]
        fam = DegradationFamily(IdentityTransform(2),
                                PatchDropMasks(1, 2, 1, 0.5), 0.01)
        data = precompute(clean, fam, seed=202)
        schedule = DiffusionSchedule(100, 1e-4, 0.2)
        arch = dict(n=2, hidden=(128, 128, 128), emb_dim=16,
                    mean_type="predict_x", ema_decay=0.999)
        train_kw = dict(iterations=20000, batch_size=64, learning_rate=5e-4,
                        seed=204)
        deltas_g = self._train_one(data, schedule, arch, train_kw,
                                   ACQUISITION, False, 203)
        deltas_o = self._train_one(data, schedule, arch, train_kw,
                                   ACQUISITION, True, 203)
        # identical-method control: a second oracle from independent seeds
        control = self._train_one(data, schedule, arch,
                                  {**train_kw, "seed": 8888},
                                  ACQUISITION, True, 9999)
        ts = sorted(set(range(1, 101, 11)) | {100})
        sweep, _, sw_d = self._evaluate_pair(
            "two-deltas", deltas_g, deltas_o, data, holdout, schedule, ts,
            IdentityTransform(2), gen_seed=206)
        ctrl = denoising_mse_sweep(control, deltas_o, data.clean_xbar[:512],
                                   schedule, ts, np.random.default_rng(4302))
        deltas_time = time.perf_counter() - t0

        print("  two-deltas pair (ratio vs oracle; control = oracle-vs-oracle):")
        for (t, a, b), (_, ca, cb) in zip(sweep.rows, ctrl.rows):
            r = a / b
            rc = max(ca / cb, cb / ca)
            print(f"    t={t:3d} gsure={a:.3e} oracle={b:.3e} ratio={r:6.2f} "
                  f"control={rc:6.2f}{'  <-- exceeds 2x' if r > 2 else ''}")
        deltas_mse_ok = all(a / b <= 2.0 for _, a, b in sweep.rows)
        deltas_sw_ok = sw_d <= 1.5
        deltas_ok = deltas_mse_ok and deltas_sw_ok and deltas_time < 900
        print(f"  two-deltas pair: sw ratio {sw_d:.2f}, {deltas_time:.0f}s")

        ok = shapes_ok and deltas_ok
        report(7, "end-to-end parity of self-supervised vs oracle pairs", ok,
               f"shapes(mse<=2x: {shapes_mse_ok}, sw<=1.5x: {shapes_sw_ok}); "
               f"two-deltas(mse<=2x: {deltas_mse_ok}, sw<=1.5x: {deltas_sw_ok})")
        assert shapes_ok, "shapes pair failed parity"
        assert deltas_ok, (
            "two-deltas pair failed parity; see the table above - in the "
            "low-t band the oracle control shows the pointwise ratio is not "
            "reproducible even between identical oracles at this scale")


class TestCriterion8IndependenceDemo:
    def test_three_regimes_at_scale(self):
        n_samples, n_perm = 10_000, 200
        snrs = [1e-3, 10.0]
        gauss = independence_demo("isotropic-gaussian", GaussianPosteriorDenoiser(),
                                  snrs, n_samples, np.random.default_rng(4211),
                                  n_permutations=n_perm)
        deltas = independence_demo("two-deltas", TwoDeltasPosteriorDenoiser(),
                                   snrs, n_samples, np.random.default_rng(4212),
                                   n_permutations=n_perm)
        ok = (abs(gauss[0].z) < 3 and gauss[1].z > 3
              and abs(deltas[0].z) < 3 and abs(deltas[1].z) < 3)
        report(8, "error-mask independence: low-SNR identical, Gaussian breaks "
               "at high SNR, two-deltas holds", ok,
               f"z(gauss)={gauss[0].z:.2f}/{gauss[1].z:.1f}, "
               f"z(deltas)={deltas[0].z:.2f}/{deltas[1].z:.2f}")
        assert ok


class TestCriterion9Determinism:
    def test_train_and_sample_byte_identical(self, tmp_path):
        base = {
            "data": {"kind": "two-deltas", "count": 128, "seed": 11},
            "degradation": {"family": "single-drop", "sigma0": 0.01},
            "schedule": {"T": 50, "betaT": 0.2},
            "model": {"hidden": [16, 16], "emb_dim": 8, "ema_decay": 0.99},
            "train": {"iterations": 40, "batch_size": 12, "seed": 21,
                      "learning_rate": 1e-3, "log_interval": 10,
                      "chunk_size": 5,
                      "loss": {"gamma": "snr", "lambda": "scaled_inverse_snr"}},
        }
        outs = [cmd_train(validate_config(base), tmp_path / f"run{i}")
                for i in range(2)]
        ck = [(o / "checkpoint.bin").read_bytes() for o in outs]
        me = [(o / "metrics.csv").read_bytes() for o in outs]
        ok_train = ck[0] == ck[1] and me[0] == me[1]

        s1 = cmd_sample(outs[0] / "checkpoint.bin", tmp_path / "s1", "ddim",
                        20, 9, 777)
        s2 = cmd_sample(outs[0] / "checkpoint.bin", tmp_path / "s2", "ddim",
                        20, 9, 777)
        ok_sample = (s1 / "samples.bin").read_bytes() == (s2 / "samples.bin").read_bytes()

        ok = ok_train and ok_sample
        report(9, "training and sampling are byte-identical across runs", ok)
        assert ok


class TestCriterion10ReconstructionSanity:
    def test_zero_filled_and_consistency_and_sweep(self):
        from test_operators import random_orthogonal

        rng = np.random.default_rng(4213)
        schedule = DiffusionSchedule(200, 1e-4, 0.2)

        # zero-filled baseline is exactly the inverse transform of ybar
        from specdiff.operators import RealDFTTransform

        vt = RealDFTTransform(8)
        deg = SpectralDegradation(vt, (rng.random(16) < 0.6).astype(float), 0.02)
        m = corrupt_spectral(rng.standard_normal(16), deg, rng)
        zf = zero_filled(m, vt)
        ok_zf = np.array_equal(zf, vt.apply_inverse(m.ybar))

        # noiseless full-mask measurements reconstruct the input
        q = MatrixTransform(random_orthogonal(6, rng))
        x = rng.standard_normal(6)
        clean_m = corrupt_spectral(x, SpectralDegradation(q, np.ones(6), 0.0), rng)
        rec = reconstruct(GaussianPosteriorDenoiser(), schedule, clean_m, 25,
                          np.random.default_rng(4214), q)
        ok_clean = np.max(np.abs(rec - x)) <= 1e-6

        # acceleration sweep: finite outputs, residuals non-decreasing in R
        lines = 192
        vt_mri = RealDFTTransform(lines)
        model = GaussianPosteriorDenoiser()
        count = 256
        clean = rng.standard_normal((count, 2 * lines))
        residuals = []
        for r in (6, 8, 10, 12):
            fam = DegradationFamily(vt_mri, LineSubsampleMasks(lines=lines, accel=r),
                                    sigma0=0.01)
            total = 0.0
            finite = True
            for i in range(count):
                rng_i = np.random.default_rng((4215, r, i))
                mi = corrupt(clean[i], fam, rng_i)
                out = reconstruct(model, schedule, mi, 12,
                                  np.random.default_rng((4216, r, i)), vt_mri)
                finite &= bool(np.all(np.isfinite(out)))
                total += float(np.linalg.norm(out - clean[i]))
            residuals.append(total / count)
            ok_sweep = finite
        ok_sweep &= all(b >= a for a, b in zip(residuals, residuals[1:]))

        ok = ok_zf and ok_clean and ok_sweep
        report(10, "zero-filled exact; clean full-mask reconstruction exact to "
               "1e-6; residuals non-decreasing in acceleration", ok,
               f"residuals={['%.3f' % r for r in residuals]}")
        assert ok
