"""Shared numerical oracles for the test suite."""

import numpy as np

from specdiff.diffusion import timestep_rows


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
