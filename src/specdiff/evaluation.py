"""Validation battery: error sweeps, independence demos, and sample metrics.

Every operation here is a pure function of its inputs and seeds. Results are
plain data (dataclasses / arrays) so the command layer can serialize them as
CSV without further computation.

The independence demo quantifies whether a denoiser's error depends on which
coordinate was masked. Kernel-density pictures are replaced by the energy
distance between the two conditional error clouds plus a permutation test:
the statistic is zero in distribution exactly when the clouds coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSchedule, perturb_batch, reconstruct
from .operators import Measurement, OrthoTransform

__all__ = [
    "DistanceResult",
    "GaussianPosteriorDenoiser",
    "IndependenceRecord",
    "SweepResult",
    "TwoDeltasPosteriorDenoiser",
    "denoising_mse_sweep",
    "distribution_distance",
    "energy_distance",
    "energy_permutation_test",
    "generalization_psnr",
    "independence_demo",
    "uncertainty_map",
]


# -- analytic reference denoisers ------------------------------------------


class GaussianPosteriorDenoiser:
    """Posterior mean for x ~ N(0, s2 I) observed as sqrt(abar) x + noise.

    The optimal linear shrinkage for the unmasked problem; used to probe how
    masking interacts with a denoiser that has no mask awareness.
    """

    def __init__(self, prior_var: float = 1.0):
        self.prior_var = float(prior_var)

    def estimate(self, u: np.ndarray, abar: float) -> np.ndarray:
        k = np.sqrt(abar) * self.prior_var / (abar * self.prior_var + 1.0 - abar)
        return k * np.asarray(u, dtype=np.float64)

    def denoise(self, xbar_t, t, schedule: DiffusionSchedule, ema: bool = True):
        return self.estimate(xbar_t, float(schedule.abar(t)))


class TwoDeltasPosteriorDenoiser:
    """Posterior mean for the symmetric two-point prior at (1,1) and (-1,-1)."""

    def estimate(self, u: np.ndarray, abar: float) -> np.ndarray:
        """Same shape as ``u``: one vector or a batch of rows."""
        u = np.asarray(u, dtype=np.float64)
        m = np.tanh(np.sqrt(abar) * (u[..., 0] + u[..., 1]) / (1.0 - abar))
        return np.stack([m, m], axis=-1)

    def denoise(self, xbar_t, t, schedule: DiffusionSchedule, ema: bool = True):
        return self.estimate(xbar_t, float(schedule.abar(t)))


# -- denoising sweeps --------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Per-timestep denoising MSE for two models on the same noisy inputs."""

    rows: list  # (t, mse_a, mse_b)


def denoising_mse_sweep(model_a, model_b, clean_set: np.ndarray,
                        schedule: DiffusionSchedule, ts, rng) -> SweepResult:
    """Score both models on ideal unmasked noisy samples of the clean set.

    MSE is the per-coordinate mean of the squared clean-signal error.
    """
    clean = np.atleast_2d(np.asarray(clean_set, dtype=np.float64))
    rows = []
    for t in sorted(int(t) for t in ts):
        noisy = perturb_batch(clean, np.zeros_like(clean), np.full(len(clean), t),
                              schedule, rng)
        mses = []
        for model in (model_a, model_b):
            est = model.denoise(noisy, t, schedule, ema=True)
            mses.append(float(np.mean((est - clean) ** 2)))
        rows.append((t, mses[0], mses[1]))
    return SweepResult(rows=rows)


def generalization_psnr(model_a, model_b, clean_set: np.ndarray,
                        schedule: DiffusionSchedule, ts, rng,
                        peak: float = 1.0) -> list:
    """PSNR between two models' outputs on identical unmasked noisy inputs.

    Identical outputs report ``inf``.
    """
    clean = np.atleast_2d(np.asarray(clean_set, dtype=np.float64))
    rows = []
    for t in sorted(int(t) for t in ts):
        noisy = perturb_batch(clean, np.zeros_like(clean), np.full(len(clean), t),
                              schedule, rng)
        ea = model_a.denoise(noisy, t, schedule, ema=True)
        eb = model_b.denoise(noisy, t, schedule, ema=True)
        mse = float(np.mean((ea - eb) ** 2))
        psnr = np.inf if mse == 0.0 else 20.0 * np.log10(peak / np.sqrt(mse))
        rows.append((t, psnr))
    return rows


# -- energy distance and the independence demo -------------------------------


def _sum_pairwise_norms(x: np.ndarray, y: np.ndarray, block: int = 2048) -> float:
    total = 0.0
    for lo in range(0, x.shape[0], block):
        xs = x[lo:lo + block]
        d = xs[:, None, :] - y[None, :, :]
        total += float(np.sqrt(np.sum(d * d, axis=-1)).sum())
    return total


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """V-statistic energy distance: zero iff the samples coincide in law."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n, m = x.shape[0], y.shape[0]
    if n == 0 or m == 0:
        raise ValueError("energy distance needs nonempty samples")
    return (2.0 * _sum_pairwise_norms(x, y) / (n * m)
            - _sum_pairwise_norms(x, x) / (n * n)
            - _sum_pairwise_norms(y, y) / (m * m))


def energy_permutation_test(x: np.ndarray, y: np.ndarray, n_permutations: int,
                            rng, max_points: int = 2000) -> dict:
    """Permutation null for the energy distance, on a fixed-size subsample.

    Returns the subsampled observed statistic, the null mean/sd over label
    shuffles, and the z-score of the observation against that null.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] > max_points:
        x = x[rng.choice(x.shape[0], size=max_points, replace=False)]
    if y.shape[0] > max_points:
        y = y[rng.choice(y.shape[0], size=max_points, replace=False)]
    n, m = x.shape[0], y.shape[0]
    pooled = np.concatenate([x, y])
    diff = pooled[:, None, :] - pooled[None, :, :]
    dm = np.sqrt(np.sum(diff * diff, axis=-1))

    def stat(idx_a, idx_b):
        return (2.0 * dm[np.ix_(idx_a, idx_b)].mean()
                - dm[np.ix_(idx_a, idx_a)].mean()
                - dm[np.ix_(idx_b, idx_b)].mean())

    observed = stat(np.arange(n), np.arange(n, n + m))
    null = np.empty(n_permutations)
    for k in range(n_permutations):
        perm = rng.permutation(n + m)
        null[k] = stat(perm[:n], perm[n:])
    sd = float(null.std(ddof=1))
    z = (observed - float(null.mean())) / sd if sd > 0 else 0.0
    return {"observed": float(observed), "null_mean": float(null.mean()),
            "null_sd": sd, "z": float(z)}


@dataclass(frozen=True)
class IndependenceRecord:
    snr: float
    abar: float
    energy: float
    z: float
    null_mean: float
    null_sd: float


def independence_demo(dist: str, model, snr_levels, n_samples: int, rng,
                      sigma0: float = 0.0, n_permutations: int = 200) -> list:
    """Error clouds of a 2-D denoiser conditioned on which coordinate was masked.

    ``dist`` picks the data prior (``isotropic-gaussian`` or ``two-deltas``);
    ``model`` provides ``estimate(u, abar)``. The signal-to-noise grid maps to
    ``abar = snr / (1 + snr)``. For each level, samples are drawn through the
    masked measurement equation, denoised, and the energy distance between the
    two conditional error clouds is tested against a permutation null.
    """
    if dist not in ("isotropic-gaussian", "two-deltas"):
        raise ValueError("dist must be 'isotropic-gaussian' or 'two-deltas'")
    records = []
    for snr in snr_levels:
        abar = snr / (1.0 + snr)
        if dist == "isotropic-gaussian":
            xbar = rng.standard_normal((n_samples, 2))
        else:
            signs = rng.integers(0, 2, size=n_samples) * 2 - 1
            xbar = np.outer(signs, np.ones(2))
        masked_coord = rng.integers(0, 2, size=n_samples)
        keep = np.ones((n_samples, 2))
        keep[np.arange(n_samples), masked_coord] = 0.0
        ybar = keep * (xbar + sigma0 * rng.standard_normal((n_samples, 2)))
        c = (1.0 - abar) - abar * sigma0 ** 2 * keep
        xbar_t = np.sqrt(abar) * ybar \
            + np.sqrt(c) * rng.standard_normal((n_samples, 2))
        err = model.estimate(xbar_t, abar) - xbar
        e0 = err[masked_coord == 0]
        e1 = err[masked_coord == 1]
        energy = energy_distance(e0, e1)
        test = energy_permutation_test(e0, e1, n_permutations, rng)
        records.append(IndependenceRecord(
            snr=float(snr), abar=float(abar), energy=energy, z=test["z"],
            null_mean=test["null_mean"], null_sd=test["null_sd"],
        ))
    return records


# -- stochastic reconstruction spread -----------------------------------------


def uncertainty_map(model, schedule: DiffusionSchedule, m: Measurement, k: int = 8,
                    *, rng, vt: OrthoTransform, steps: int = 100,
                    eta: float = 0.85, seeds=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-coordinate spread of ``k`` stochastic reconstructions."""
    if k < 2:
        raise ValueError("need at least 2 reconstructions")
    if seeds is None:
        seeds = [int(rng.integers(2 ** 62)) for _ in range(k)]
    elif len(seeds) != k:
        raise ValueError("need one seed per reconstruction")
    outs = np.stack([
        reconstruct(model, schedule, m, steps, np.random.default_rng(s), vt, eta=eta)
        for s in seeds
    ])
    return outs.mean(axis=0), outs.std(axis=0)


# -- distribution distances ----------------------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    sliced_wasserstein: float
    mean_gap: float
    cov_gap: float


def distribution_distance(samples_a: np.ndarray, samples_b: np.ndarray,
                          n_projections: int, rng) -> DistanceResult:
    """Sliced 2-Wasserstein distance plus first/second moment gaps.

    The sliced distance is ``sqrt(d * mean_u W2^2(proj_u a, proj_u b))`` over
    random unit directions ``u``; the dimension factor makes a pure mean shift
    of isotropic distributions come out as the shift norm. Moment gaps are the
    mean-vector distance and the covariance Frobenius distance.
    """
    a = np.atleast_2d(np.asarray(samples_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(samples_b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty sample set")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must share dimensionality")
    d = a.shape[1]
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    qs = (np.arange(max(a.shape[0], b.shape[0])) + 0.5) / max(a.shape[0], b.shape[0])
    w2_sq = np.empty(n_projections)
    pa = a @ dirs.T
    pb = b @ dirs.T
    for j in range(n_projections):
        qa = np.quantile(pa[:, j], qs)
        qb = np.quantile(pb[:, j], qs)
        w2_sq[j] = np.mean((qa - qb) ** 2)
    sw = float(np.sqrt(d * w2_sq.mean()))
    mean_gap = float(np.linalg.norm(a.mean(0) - b.mean(0)))
    ca = np.cov(a, rowvar=False).reshape(d, d)
    cb = np.cov(b, rowvar=False).reshape(d, d)
    cov_gap = float(np.linalg.norm(ca - cb, ord="fro"))
    return DistanceResult(sliced_wasserstein=sw, mean_gap=mean_gap, cov_gap=cov_gap)
