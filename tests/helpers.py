"""Shared numerical oracles for the test suite."""

import tracemalloc
from dataclasses import dataclass

import numpy as np

from specdiff.diffusion import timestep_rows
from specdiff.operators import Measurement, OrthoTransform


@dataclass(frozen=True)
class SpectralDegradation:
    """One measurement process: transform, singular values, noise level.

    The general model, with noise variance ``sigma0**2 / s**2`` at a kept
    coordinate; ``operators.corrupt`` measures its 0/1 case, and the tests use
    the general one as their reference."""

    vt: OrthoTransform
    singulars: np.ndarray
    sigma0: float

    def __post_init__(self):
        s = np.asarray(self.singulars, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] != self.vt.n:
            raise ValueError(f"singulars must be 1-D of length {self.vt.n}")
        if np.any(s < 0):
            raise ValueError("singular values must be nonnegative")
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        object.__setattr__(self, "singulars", s)

    @property
    def n(self) -> int:
        return self.vt.n

    @property
    def mask(self) -> np.ndarray:
        return self.singulars > 0

    @property
    def noise_var(self) -> np.ndarray:
        """Pseudo-inverse noise variance per coordinate; 0 at masked entries."""
        out = np.zeros(self.n)
        kept = self.mask
        out[kept] = (self.sigma0 / self.singulars[kept]) ** 2
        return out


def corrupt_batch(x: np.ndarray, deg: SpectralDegradation, rng) -> np.ndarray:
    """Rows of transformed corrupted measurements for rows of clean signals.

    Every row uses the same degradation; rows consume independent noise.
    """
    x = np.asarray(x, dtype=np.float64)
    xbar = deg.vt.apply(x)
    noise = rng.standard_normal(xbar.shape)
    ybar = xbar + np.sqrt(deg.noise_var) * noise
    ybar = np.where(deg.mask, ybar, 0.0)
    return ybar


def corrupt_spectral(x: np.ndarray, deg: SpectralDegradation, rng) -> Measurement:
    """Transform and corrupt one clean signal into a :class:`Measurement`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("corrupt takes a single 1-D signal; see corrupt_batch")
    ybar = corrupt_batch(x, deg, rng)
    return Measurement(ybar=ybar, mask=deg.mask, noise_var=deg.noise_var)


def central_difference(fn, x, step=1e-5):
    """Gradient of scalar ``fn`` at flat vector ``x`` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def relative_errors(approx, exact, floor=1e-8):
    """Entrywise |a - b| / max(|a|, |b|, floor)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), floor)
    return np.abs(approx - exact) / denom


def fraction_close(approx, exact, rel_tol, floor=1e-8):
    """Fraction of entries whose relative error is within ``rel_tol``."""
    errs = relative_errors(approx, exact, floor=floor)
    return float(np.mean(errs <= rel_tol))


def finite_diff_divergence(model, xbar_t, t, schedule, mask, w, probes, rng,
                           step=1e-4):
    """Reference for the exact-JVP divergence samples: the same probe draws,
    with each JVP replaced by a central difference of ``model.denoise``."""
    xbar_t = np.asarray(xbar_t, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    total = 0.0
    for _ in range(probes):
        v = rng.standard_normal(xbar_t.shape)
        fp = model.denoise(xbar_t + step * v, t, schedule)
        fm = model.denoise(xbar_t - step * v, t, schedule)
        jv = (fp - fm) / (2.0 * step)
        total += float(np.sum(v * mask * w ** 2 * jv))
    return total / probes



def projected_loss_rows(model, xbar_rows, xbar_t_rows, mask_rows, w, t, schedule):
    """Per-row values of ``|W P (f(x_t) - x)|^2`` (no timestep weighting).

    With ``W = E[P]**(-1/2)`` and mask-independent errors its expectation
    equals the full MSE: an estimator-study instrument that needs clean data.
    """
    xbar_rows = np.atleast_2d(np.asarray(xbar_rows, dtype=np.float64))
    xbar_t_rows = np.atleast_2d(np.asarray(xbar_t_rows, dtype=np.float64))
    mask_rows = np.atleast_2d(np.asarray(mask_rows, dtype=np.float64))
    w = np.asarray(w, dtype=np.float64)
    est = model.denoise(xbar_t_rows, timestep_rows(t, xbar_rows.shape[0]), schedule)
    resid = (est - xbar_rows) * mask_rows * w
    return np.sum(resid ** 2, axis=1)


def hutchinson_probe_values(model, xbar_t, t, schedule, mask, w, probes, rng):
    """Per-probe Hutchinson samples ``v . (P W^2 (J f) v)`` for estimator studies.

    The probes ride one pass as ``(probes, 1, n)`` tangent blocks over the
    one primal row.
    """
    xbar_t = np.asarray(xbar_t, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    v = rng.standard_normal((probes, xbar_t.shape[0]))
    _, jv, _ = model.evaluate(xbar_t[None, :], t, schedule, tangent=v[:, None, :])
    return np.sum(v * (mask * w ** 2) * jv[:, 0, :], axis=1)

def _dense_distances(pooled):
    diff = pooled[:, None, :] - pooled[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _dense_energy(dm, idx_a, idx_b):
    return (2.0 * dm[np.ix_(idx_a, idx_b)].mean()
            - dm[np.ix_(idx_a, idx_a)].mean()
            - dm[np.ix_(idx_b, idx_b)].mean())


def dense_energy_distance(x, y):
    """Reference energy distance from the full pooled distance matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n, m = x.shape[0], y.shape[0]
    dm = _dense_distances(np.concatenate([x, y]))
    return float(_dense_energy(dm, np.arange(n), np.arange(n, n + m)))


def dense_energy_permutation_test(x, y, n_permutations, rng, max_points=2000):
    """Reference permutation test: the dense (N, N, d) difference array and
    three ``np.ix_`` gathers per shuffle, with the same draws in the same
    order as ``evaluation.energy_permutation_test``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] > max_points:
        x = x[rng.choice(x.shape[0], size=max_points, replace=False)]
    if y.shape[0] > max_points:
        y = y[rng.choice(y.shape[0], size=max_points, replace=False)]
    n, m = x.shape[0], y.shape[0]
    dm = _dense_distances(np.concatenate([x, y]))
    observed = _dense_energy(dm, np.arange(n), np.arange(n, n + m))
    null = np.empty(n_permutations)
    for k in range(n_permutations):
        perm = rng.permutation(n + m)
        null[k] = _dense_energy(dm, perm[:n], perm[n:])
    sd = float(null.std(ddof=1))
    z = (observed - float(null.mean())) / sd if sd > 0 else 0.0
    return {"observed": float(observed), "null_mean": float(null.mean()),
            "null_sd": sd, "z": float(z)}


def per_projection_sliced_wasserstein(a, b, n_projections, rng):
    """Reference sliced 2-Wasserstein distance: two ``np.quantile`` calls per
    projection, the same direction draw as ``distribution_distance``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    d = a.shape[1]
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    size = max(a.shape[0], b.shape[0])
    qs = (np.arange(size) + 0.5) / size
    pa, pb = a @ dirs.T, b @ dirs.T
    w2_sq = np.empty(n_projections)
    for j in range(n_projections):
        w2_sq[j] = np.mean((np.quantile(pa[:, j], qs) - np.quantile(pb[:, j], qs)) ** 2)
    return float(np.sqrt(d * w2_sq.mean()))


def reference_shapes(count, h, w, rng):
    """The synthetic-shapes generator as one ``Generator`` call per draw and
    one full-image patch per shape: the reference ``cli._shapes`` must match
    byte for byte."""
    out = np.zeros((count, h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    for i in range(count):
        for _ in range(rng.integers(1, 4)):
            intensity = rng.uniform(0.4, 1.0)
            if rng.random() < 0.5:
                y0 = rng.integers(0, h - 2)
                x0 = rng.integers(0, w - 2)
                y1 = rng.integers(y0 + 2, min(h, y0 + h // 2) + 1)
                x1 = rng.integers(x0 + 2, min(w, x0 + w // 2) + 1)
                patch = np.zeros((h, w))
                patch[y0:y1, x0:x1] = intensity
            else:
                cy = rng.uniform(2, h - 2)
                cx = rng.uniform(2, w - 2)
                r = rng.uniform(1.5, min(h, w) / 4)
                patch = intensity * ((yy - cy) ** 2 + (xx - cx) ** 2 <= r ** 2)
            out[i] = np.maximum(out[i], patch)
    return out.reshape(count, h * w)


def traced(call):
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
