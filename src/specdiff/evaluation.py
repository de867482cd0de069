"""Validation battery: error sweeps, independence demos, and sample metrics.

Every operation here is a pure function of its inputs and seeds. Results are
plain data (dataclasses / arrays) so the command layer can serialize them as
CSV without further computation.

The independence demo quantifies whether a denoiser's error depends on which
coordinate was masked. Kernel-density pictures are replaced by the energy
distance between the two conditional error clouds plus a permutation test:
the statistic is zero in distribution exactly when the clouds coincide.

Both energy statistics run on one distance kernel. It walks the upper
triangle of the pooled distance matrix ``D`` in cache-sized 2-D tiles and
returns ``D @ L`` for a 0/1 label matrix ``L``; the statistic is a quadratic
form in the label column, so the observed split and every permutation of the
null are columns of one BLAS product. Memory is two tiles of at most 1 MB
each plus a fixed number of label columns per pass, whatever the number of
points or permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSchedule, perturb_at, perturb_batch, reconstruct
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
    """Posterior mean for x ~ N(0, I) observed as sqrt(abar) x + noise.

    The optimal linear shrinkage for the unmasked problem; used to probe how
    masking interacts with a denoiser that has no mask awareness.
    """

    def estimate(self, u: np.ndarray, abar: float) -> np.ndarray:
        # abar * s2 + 1 - abar at unit s2, not folded to 1.0 (which rounds otherwise)
        k = np.sqrt(abar) / (abar + 1.0 - abar)
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


def _noisy_pairs(model_a, model_b, clean_set: np.ndarray,
                 schedule: DiffusionSchedule, ts, rng):
    """For each ``t`` in ascending order, one ideal unmasked noisy draw of the
    clean set denoised by both models: ``(t, clean, est_a, est_b)``."""
    clean = np.atleast_2d(np.asarray(clean_set, dtype=np.float64))
    for t in sorted(int(t) for t in ts):
        noisy = perturb_batch(clean, np.zeros_like(clean), np.full(len(clean), t),
                              schedule, rng)
        yield (t, clean, model_a.denoise(noisy, t, schedule, ema=True),
               model_b.denoise(noisy, t, schedule, ema=True))


def denoising_mse_sweep(model_a, model_b, clean_set: np.ndarray,
                        schedule: DiffusionSchedule, ts, rng) -> SweepResult:
    """Score both models on ideal unmasked noisy samples of the clean set.

    MSE is the per-coordinate mean of the squared clean-signal error.
    """
    return SweepResult(rows=[
        (t, float(np.mean((ea - clean) ** 2)), float(np.mean((eb - clean) ** 2)))
        for t, clean, ea, eb in _noisy_pairs(model_a, model_b, clean_set, schedule,
                                             ts, rng)])


def generalization_psnr(model_a, model_b, clean_set: np.ndarray,
                        schedule: DiffusionSchedule, ts, rng,
                        peak: float = 1.0) -> list:
    """PSNR between two models' outputs on identical unmasked noisy inputs.

    Identical outputs report ``inf``.
    """
    rows = []
    for t, _, ea, eb in _noisy_pairs(model_a, model_b, clean_set, schedule, ts, rng):
        mse = float(np.mean((ea - eb) ** 2))
        psnr = np.inf if mse == 0.0 else 20.0 * np.log10(peak / np.sqrt(mse))
        rows.append((t, psnr))
    return rows


# -- energy distance and the independence demo -------------------------------


# the kernel's two tile buffers hold at most _TILE_ELEMENTS float64 each (1 MB,
# so both fit in a core's L2); _LABEL_COLUMNS label columns are applied per pass
_TILE_ELEMENTS = 1 << 17
_LABEL_COLUMNS = 256


def _distance_products(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``D @ labels`` for the Euclidean distance matrix ``D`` of ``points``.

    ``D`` is never stored: its upper triangle is walked in 2-D tiles built
    from coordinate-wise differences (not the Gram trick, which loses
    precision for close points) in two buffers reused across tiles. A tile
    row range's diagonal square is applied once; every distance right of it
    is applied twice, once as itself and once as its transpose.
    """
    n, d = points.shape
    coords = np.ascontiguousarray(points.T)
    # rows as long as the budget allows, since numpy's broadcast subtract pays
    # per row, but no fewer rows than label columns: the transposed product
    # then writes no more than the tile holds and keeps a deep inner dimension
    width = min(n, _TILE_ELEMENTS // labels.shape[1])
    rows = _TILE_ELEMENTS // width
    tile_buf, diff_buf = np.empty(rows * width), np.empty(rows * width)
    out = np.zeros((n, labels.shape[1]))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        for c0 in range(r0, n, width):
            c1 = min(c0 + width, n)
            size = (r1 - r0) * (c1 - c0)
            tile = tile_buf[:size].reshape(r1 - r0, c1 - c0)
            diff = diff_buf[:size].reshape(tile.shape)
            np.subtract(coords[0, r0:r1, None], coords[0, None, c0:c1], out=tile)
            tile *= tile
            for k in range(1, d):
                np.subtract(coords[k, r0:r1, None], coords[k, None, c0:c1], out=diff)
                diff *= diff
                tile += diff
            np.sqrt(tile, out=tile)
            out[r0:r1] += tile @ labels[c0:c1]
            lo = max(c0, r1)  # the tile's columns right of the diagonal square
            out[lo:c1] += tile[:, lo - c0:].T @ labels[r0:r1]
    return out


def _energy_statistics(pooled: np.ndarray, n: int, splits) -> np.ndarray:
    """Energy distance between ``pooled[idx]`` (``n`` rows) and the other rows,
    for each index array ``idx`` in ``splits``.

    With ``s`` the 0/1 label column of one split and ``T = 1'D1``, the pairwise
    sums are ``S_AA = s'Ds``, ``S_AB = s'D1 - s'Ds`` and
    ``S_BB = T - 2 s'D1 + s'Ds``. ``splits`` is consumed ``_LABEL_COLUMNS``
    at a time, so memory does not grow with their number.
    """
    size = pooled.shape[0]
    m = size - n
    splits = iter(splits)
    stats = []
    while batch := list(itertools.islice(splits, _LABEL_COLUMNS)):
        labels = np.zeros((size, 1 + len(batch)))
        labels[:, 0] = 1.0
        for j, idx in enumerate(batch, 1):
            labels[idx, j] = 1.0
        prod = _distance_products(pooled, labels)
        s = labels[:, 1:]
        d1 = prod[:, 0]
        s_d1 = s.T @ d1
        s_ds = np.einsum("ij,ij->j", s, prod[:, 1:])
        s_bb = d1.sum() - 2.0 * s_d1 + s_ds
        stats.append(2.0 * (s_d1 - s_ds) / (n * m) - s_ds / (n * n) - s_bb / (m * m))
    return np.concatenate(stats)


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """V-statistic energy distance: zero iff the samples coincide in law."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n, m = x.shape[0], y.shape[0]
    if n == 0 or m == 0:
        raise ValueError("energy distance needs nonempty samples")
    return float(_energy_statistics(np.concatenate([x, y]), n, [np.arange(n)])[0])


def energy_permutation_test(x: np.ndarray, y: np.ndarray, n_permutations: int,
                            rng, max_points: int = 2000) -> dict:
    """Permutation null for the energy distance, on a fixed-size subsample.

    Returns the subsampled observed statistic, the null mean/sd over label
    shuffles, and the z-score of the observation against that null. The
    observation and every shuffle are label columns of one distance kernel.
    The null's spread needs ``n_permutations >= 2``.
    """
    if n_permutations < 2:
        raise ValueError(f"need at least 2 permutations, got {n_permutations}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] > max_points:
        x = x[rng.choice(x.shape[0], size=max_points, replace=False)]
    if y.shape[0] > max_points:
        y = y[rng.choice(y.shape[0], size=max_points, replace=False)]
    n, m = x.shape[0], y.shape[0]
    shuffles = (rng.permutation(n + m)[:n] for _ in range(n_permutations))
    stats = _energy_statistics(np.concatenate([x, y]), n,
                               itertools.chain([np.arange(n)], shuffles))
    observed, null = stats[0], stats[1:]
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
    two conditional error clouds is tested against a permutation null. A level
    at which ``abar * sigma0**2 > 1 - abar`` raises
    :class:`~specdiff.diffusion.InfeasibleTimestepError`.
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
        xbar_t = perturb_at(ybar, sigma0 ** 2 * keep, abar, rng)
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
                    eta: float = 0.85) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-coordinate spread of ``k`` stochastic reconstructions, each
    on its own seed drawn from ``rng``."""
    if k < 2:
        raise ValueError("need at least 2 reconstructions")
    seeds = [int(rng.integers(2 ** 62)) for _ in range(k)]
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


def _row_quantiles(rows: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(row, qs)`` (its default ``linear`` method, to the bit) for
    each already-sorted row, with every quantile in [0, 1)."""
    n = rows.shape[1]
    v = (n - 1) * qs
    lo = np.floor(v)
    g = v - lo
    lo = lo.astype(np.intp)
    a = np.take(rows, lo, axis=1)
    b = np.take(rows, np.minimum(lo + 1, n - 1), axis=1)
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


def distribution_distance(samples_a: np.ndarray, samples_b: np.ndarray,
                          n_projections: int, rng) -> DistanceResult:
    """Sliced 2-Wasserstein distance plus first/second moment gaps.

    The sliced distance is ``sqrt(d * mean_u W2^2(proj_u a, proj_u b))`` over
    random unit directions ``u``; the dimension factor makes a pure mean shift
    of isotropic distributions come out as the shift norm. Moment gaps are the
    mean-vector distance and the covariance Frobenius distance. A set of
    fewer than 2 rows, which has no sample covariance, raises ``ValueError``.
    """
    a = np.atleast_2d(np.asarray(samples_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(samples_b, dtype=np.float64))
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("each sample set needs at least 2 rows (a covariance)")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must share dimensionality")
    d = a.shape[1]
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    qs = (np.arange(max(a.shape[0], b.shape[0])) + 0.5) / max(a.shape[0], b.shape[0])
    qa = _row_quantiles(np.sort((a @ dirs.T).T, axis=1), qs)
    qb = _row_quantiles(np.sort((b @ dirs.T).T, axis=1), qs)
    w2_sq = np.mean((qa - qb) ** 2, axis=1)
    sw = float(np.sqrt(d * w2_sq.mean()))
    gap = a.mean(0) - b.mean(0)  # einsum, not BLAS: the same bits at any thread count
    mean_gap = float(np.sqrt(np.einsum("i,i->", gap, gap)))
    gap = (np.cov(a, rowvar=False) - np.cov(b, rowvar=False)).reshape(d * d)
    cov_gap = float(np.sqrt(np.einsum("i,i->", gap, gap)))
    return DistanceResult(sliced_wasserstein=sw, mean_gap=mean_gap, cov_gap=cov_gap)
