"""Shared numerical oracles for the test suite."""

import numpy as np


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
