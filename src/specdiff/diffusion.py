"""Noise schedules, measurement perturbation, and reverse-process samplers.

Timesteps are 1-based: ``t`` runs over ``[1, T]`` with ``abar_t`` the
cumulative product of ``1 - beta``. Adding synthetic noise to a transformed
measurement tops its per-coordinate variance up to the schedule's marginal
``1 - abar_t``; that is only possible at timesteps where

    (1 - abar_t) >= abar_t * noise_var_i        for every kept coordinate i,

so each degradation induces a minimal feasible timestep. Feasibility is
monotone because ``abar`` is strictly decreasing.

Samplers operate on full spectral vectors and ask the model for an estimate
of the clean signal at each visited timestep; the reverse process stops at
the schedule's minimal feasible timestep, from which a final posterior-mean
estimate is taken.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .operators import Measurement, OrthoTransform, SpectralDegradation

__all__ = [
    "DiffusionSchedule",
    "InfeasibleScheduleError",
    "InfeasibleTimestepError",
    "check_psd_feasibility",
    "ddim_sample",
    "ddim_timesteps",
    "ddpm_sample",
    "linear_schedule",
    "perturb_batch",
    "reconstruct",
    "t_min_for_noise_var",
    "zero_filled",
]


class InfeasibleScheduleError(ValueError):
    """No timestep of the schedule can top up the measurement noise."""


class InfeasibleTimestepError(ValueError):
    """Perturbation requested below the minimal feasible timestep."""


@dataclass(frozen=True)
class DiffusionSchedule:
    """Beta sequence; ``alpha_bars`` is derived as the cumulative product of
    ``1 - beta``."""

    betas: np.ndarray
    t_min_valid: int = 1
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1:
            raise ValueError("betas must be 1-D")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must lie strictly inside (0, 1)")
        abars = np.cumprod(1.0 - betas)
        if np.any(np.diff(abars) >= 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        if not 1 <= self.t_min_valid <= betas.shape[0]:
            raise ValueError("t_min_valid out of range")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", abars)
        # abar_{t-1} at index t - 1, with the empty-product convention abar_0 = 1
        object.__setattr__(self, "_abars_prev", np.concatenate([[1.0], abars[:-1]]))

    @property
    def T(self) -> int:
        return self.betas.shape[0]

    def beta(self, t) -> np.ndarray | float:
        return self.betas[self._index(t)]

    def abar(self, t) -> np.ndarray | float:
        return self.alpha_bars[self._index(t)]

    def abar_prev(self, t) -> np.ndarray | float:
        """``abar_{t-1}`` with the empty-product convention ``abar_0 = 1``."""
        return self._abars_prev[self._index(t)]

    def _index(self, t):
        """``t - 1``, the index of timestep ``t``; a plain integer is checked
        without building arrays, since samplers look up one step at a time."""
        if isinstance(t, (int, np.integer)):
            if not 1 <= t <= self.T:
                raise ValueError(f"timestep out of range [1, {self.T}]")
            return t - 1
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > self.T):
            raise ValueError(f"timestep out of range [1, {self.T}]")
        return t - 1


def linear_schedule(T: int, beta1: float, betaT: float) -> DiffusionSchedule:
    """Linearly interpolated betas, endpoints included."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < beta1 <= betaT < 1.0:
        raise ValueError("betas must satisfy 0 < beta1 <= betaT < 1")
    betas = np.linspace(beta1, betaT, T)
    return DiffusionSchedule(betas=betas)


def t_min_for_noise_var(schedule: DiffusionSchedule, worst_noise_var: float) -> int:
    """Smallest feasible t for the largest per-coordinate measurement variance."""
    if worst_noise_var <= 0.0:
        return 1
    feasible = (1.0 - schedule.alpha_bars) >= schedule.alpha_bars * worst_noise_var
    idx = np.flatnonzero(feasible)
    if idx.size == 0:
        raise InfeasibleScheduleError(
            f"no timestep can top up measurement variance {worst_noise_var:.3g}"
        )
    return int(idx[0]) + 1


def check_psd_feasibility(schedule: DiffusionSchedule, deg: SpectralDegradation) -> int:
    """Smallest t whose top-up covariance is PSD for this degradation.

    All later timesteps are feasible as well, since ``abar`` decreases.
    """
    nv = deg.noise_var
    worst = float(nv.max()) if nv.size else 0.0
    return t_min_for_noise_var(schedule, worst)


def _topup_std(noise_var_rows: np.ndarray, abar_col: np.ndarray) -> np.ndarray:
    c = (1.0 - abar_col) - abar_col * noise_var_rows
    if np.any(c < 0.0):
        raise InfeasibleTimestepError(
            "timestep below feasibility: top-up covariance has a negative entry"
        )
    return np.sqrt(c)


def perturb_batch(ybar_rows: np.ndarray, noise_var_rows: np.ndarray,
                  t: np.ndarray, schedule: DiffusionSchedule, rng) -> np.ndarray:
    """Vectorized perturbation: row i gets timestep ``t[i]``.

    Each row is ``sqrt(abar_t) * ybar + sqrt((1 - abar_t) - abar_t * noise_var) * eps``
    with standard normal ``eps``, so its marginal over the measurement noise is
    ``N(sqrt(abar_t) * P xbar, (1 - abar_t) I)``.
    """
    ybar_rows = np.atleast_2d(np.asarray(ybar_rows, dtype=np.float64))
    noise_var_rows = np.atleast_2d(np.asarray(noise_var_rows, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if ybar_rows.shape != noise_var_rows.shape or t.shape[0] != ybar_rows.shape[0]:
        raise ValueError("ybar rows, noise_var rows and t must align")
    abar_col = np.asarray(schedule.abar(t), dtype=np.float64)[:, None]
    std = _topup_std(noise_var_rows, abar_col)
    eps = rng.standard_normal(ybar_rows.shape)
    return np.sqrt(abar_col) * ybar_rows + std * eps


def ddim_timesteps(schedule: DiffusionSchedule, steps: int) -> np.ndarray:
    """Evenly strided descending timesteps from T to t_min_valid, inclusive."""
    if steps < 1 or steps > schedule.T:
        raise ValueError(f"steps must lie in [1, {schedule.T}]")
    grid = np.linspace(schedule.T, schedule.t_min_valid, steps)
    ts = np.unique(np.rint(grid).astype(np.int64))[::-1]
    return ts


def _reverse(model, schedule: DiffusionSchedule, ts, x, step, project=None):
    """The reverse process every sampler runs.

    At each visited timestep ``t`` (descending), the model estimates the clean
    signal, ``project`` optionally edits that estimate, and ``step(x, x0_hat,
    t, t_next)`` moves ``x`` to the next timestep. The estimate at ``ts[-1]``
    is returned.
    """
    def estimate(x, t):
        x0_hat = model.denoise(x, t, schedule, ema=True)
        return x0_hat if project is None else project(x0_hat, t)

    for t, t_next in zip(ts[:-1], ts[1:]):
        x = step(x, estimate(x, int(t)), int(t), int(t_next))
    return estimate(x, int(ts[-1]))


def _ddim_step(schedule: DiffusionSchedule, eta: float, rng):
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")

    def step(x, x0_hat, t, t_next):
        abar_t = schedule.abar(t)
        abar_n = schedule.abar(t_next)
        eps_hat = (x - np.sqrt(abar_t) * x0_hat) / np.sqrt(1.0 - abar_t)
        sigma = eta * np.sqrt((1.0 - abar_n) / (1.0 - abar_t)) \
            * np.sqrt(1.0 - abar_t / abar_n)
        x = np.sqrt(abar_n) * x0_hat \
            + np.sqrt(np.maximum(1.0 - abar_n - sigma ** 2, 0.0)) * eps_hat
        if sigma > 0.0:
            x = x + sigma * rng.standard_normal(x.shape)
        return x

    return step


def ddim_sample(model, schedule: DiffusionSchedule, steps: int, eta: float, rng,
                vt: OrthoTransform, count: int = 1) -> np.ndarray:
    """Accelerated sampling along an evenly strided sub-schedule.

    ``eta = 0`` is fully deterministic given the starting noise. Returns
    ``count`` signal-domain samples as rows.
    """
    ts = ddim_timesteps(schedule, steps)
    x = rng.standard_normal((count, vt.n))
    return vt.apply_inverse(_reverse(model, schedule, ts, x,
                                     _ddim_step(schedule, eta, rng)))


def ddpm_sample(model, schedule: DiffusionSchedule, rng, vt: OrthoTransform,
                count: int = 1) -> np.ndarray:
    """Full-length ancestral sampling with fixed per-step variance ``beta_t``."""
    def step(x, x0_hat, t, t_next):
        abar_t = schedule.abar(t)
        abar_p = schedule.abar_prev(t)
        beta_t = schedule.beta(t)
        alpha_t = 1.0 - beta_t
        mean = (np.sqrt(abar_p) * beta_t / (1.0 - abar_t)) * x0_hat \
            + (np.sqrt(alpha_t) * (1.0 - abar_p) / (1.0 - abar_t)) * x
        return mean + np.sqrt(beta_t) * rng.standard_normal(x.shape)

    ts = np.arange(schedule.T, schedule.t_min_valid - 1, -1)
    x = rng.standard_normal((count, vt.n))
    return vt.apply_inverse(_reverse(model, schedule, ts, x, step))


def zero_filled(m: Measurement, vt: OrthoTransform) -> np.ndarray:
    """Naive baseline: zeros at unobserved spectral coordinates, then invert."""
    return vt.apply_inverse(m.ybar)


def reconstruct(model, schedule: DiffusionSchedule, m: Measurement, steps: int,
                rng, vt: OrthoTransform, eta: float = 0.0) -> np.ndarray:
    """Spectral data-consistency sampler for one measurement.

    DDIM sampling that stops no earlier than the measurement's minimal
    feasible timestep; after every denoising estimate, kept spectral
    coordinates are replaced by the inverse-variance combination of the
    estimate (variance ``(1 - abar_t)/abar_t``) and the measurement (variance
    ``noise_var``). Noiseless measurements therefore pin kept coordinates
    exactly. Masked coordinates evolve freely.
    """
    t_min = t_min_for_noise_var(schedule, float(m.noise_var.max(initial=0.0)))
    sched = dataclasses.replace(schedule, t_min_valid=max(t_min, schedule.t_min_valid))
    kept = m.mask
    nv = m.noise_var[kept]
    ybar_kept = m.ybar[kept]

    def consistent(x0_hat, t):
        abar_t = sched.abar(t)
        est_var = (1.0 - abar_t) / abar_t
        w_meas = est_var / (est_var + nv)  # 1 when the measurement is noiseless
        out = x0_hat.copy()
        out[kept] = w_meas * ybar_kept + (1.0 - w_meas) * x0_hat[kept]
        return out

    ts = ddim_timesteps(sched, steps)
    x = rng.standard_normal(m.n)
    return vt.apply_inverse(_reverse(model, sched, ts, x,
                                     _ddim_step(sched, eta, rng), consistent))
