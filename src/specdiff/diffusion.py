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
estimate is taken. DDIM, DDPM and reconstruction share one loop, which runs a
sampling plan: everything a step needs that does not depend on ``x`` (the
schedule values on the grid and each sampler's step coefficients) is computed
once per call, as tables over the grid, before the loop starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import Measurement, OrthoTransform

__all__ = [
    "DiffusionSchedule",
    "InfeasibleScheduleError",
    "InfeasibleTimestepError",
    "ddim_sample",
    "ddim_timesteps",
    "ddpm_sample",
    "perturb_at",
    "perturb_batch",
    "reconstruct",
    "t_min_for_noise_var",
    "timestep_rows",
    "zero_filled",
]


class InfeasibleScheduleError(ValueError):
    """No timestep of the schedule can top up the measurement noise."""


class InfeasibleTimestepError(ValueError):
    """Perturbation requested below the minimal feasible timestep."""


@dataclass(frozen=True)
class DiffusionSchedule:
    """The linear schedule: ``T`` betas from ``beta1`` to ``betaT``, endpoints
    included, with ``alpha_bars`` their cumulative product of ``1 - beta``;
    sampling stops at ``t_min_valid``. The arrays are derived from the four
    numbers, which alone compare equal and make :meth:`header`."""

    T: int
    beta1: float
    betaT: float
    t_min_valid: int = 1
    betas: np.ndarray = field(init=False, compare=False, repr=False)
    alpha_bars: np.ndarray = field(init=False, compare=False, repr=False)
    # abar_{t-1} at index t - 1, with the empty-product convention abar_0 = 1
    _abars_prev: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.beta1 <= self.betaT < 1.0:
            raise ValueError(f"betas must satisfy 0 < beta1 <= betaT < 1, got "
                             f"beta1 = {self.beta1}, betaT = {self.betaT}")
        if not 1 <= self.t_min_valid <= self.T:
            raise ValueError(f"t_min_valid = {self.t_min_valid} must lie in "
                             f"[1, T = {self.T}]")
        betas = np.linspace(self.beta1, self.betaT, self.T)
        abars = np.cumprod(1.0 - betas)
        stalls = np.flatnonzero(np.diff(abars) >= 0.0)
        if stalls.size:  # abar underflows, or 1 - beta rounds to 1
            t = int(stalls[0]) + 2
            raise ValueError(f"alpha_bars must be strictly decreasing, but abar_{t} "
                             f"= abar_{t - 1} = {abars[t - 1]:.3g}")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", abars)
        object.__setattr__(self, "_abars_prev", np.concatenate([[1.0], abars[:-1]]))

    def header(self) -> dict:
        """The four numbers, as a checkpoint header stores them."""
        return {"T": self.T, "beta1": self.beta1, "betaT": self.betaT,
                "t_min_valid": self.t_min_valid}

    def abar(self, t) -> np.ndarray | float:
        return self.alpha_bars[self._index(t)]

    def _index(self, t):
        """``t - 1``, the index of timestep ``t`` (an integer or an array of
        them); a plain integer is checked without building arrays."""
        if isinstance(t, (int, np.integer)):
            if not 1 <= t <= self.T:
                raise ValueError(f"timestep out of range [1, {self.T}]")
            return t - 1
        t = np.asarray(t)
        if t.size and not (1 <= t.min() and t.max() <= self.T):
            raise ValueError(f"timestep out of range [1, {self.T}]")
        return t - 1


def timestep_rows(t, rows: int) -> np.ndarray:
    """``t`` as one int64 timestep per row; an int is shared by all ``rows``."""
    t_vec = np.full(rows, t, dtype=np.int64) if np.isscalar(t) \
        else np.asarray(t, dtype=np.int64)
    if t_vec.shape != (rows,):
        raise ValueError("t must be a scalar or one timestep per row")
    return t_vec


def _topup_var(abar, noise_var):
    """Top-up variance to the marginal ``1 - abar``; negative below feasibility."""
    return (1.0 - abar) - abar * noise_var


def t_min_for_noise_var(schedule: DiffusionSchedule, noise_var) -> int:
    """Smallest feasible t for a measurement variance, or for an array of
    them, which its largest entry decides."""
    worst = float(np.max(noise_var, initial=0.0))
    if worst <= 0.0:
        return 1
    idx = np.flatnonzero(_topup_var(schedule.alpha_bars, worst) >= 0.0)
    if idx.size == 0:
        raise InfeasibleScheduleError(
            f"no timestep can top up measurement variance {worst:.3g}"
        )
    return int(idx[0]) + 1


def perturb_at(ybar_rows: np.ndarray, noise_var_rows: np.ndarray, abar,
               rng) -> np.ndarray:
    """The noisy-input draw: ``sqrt(abar) * ybar + sqrt((1 - abar) - abar *
    noise_var) * eps``, standard normal ``eps``, with marginal
    ``N(sqrt(abar) * P xbar, (1 - abar) I)`` over the measurement noise.
    ``abar`` is a scalar or a column of one value per row."""
    c = _topup_var(abar, noise_var_rows)
    if np.any(c < 0.0):
        raise InfeasibleTimestepError(
            "timestep below feasibility: top-up covariance has a negative entry"
        )
    eps = rng.standard_normal(np.shape(ybar_rows))
    return np.sqrt(abar) * ybar_rows + np.sqrt(c) * eps


def perturb_batch(ybar_rows: np.ndarray, noise_var_rows: np.ndarray,
                  t: np.ndarray, schedule: DiffusionSchedule, rng) -> np.ndarray:
    """:func:`perturb_at` with row i at timestep ``t[i]`` of ``schedule``."""
    ybar_rows = np.atleast_2d(np.asarray(ybar_rows, dtype=np.float64))
    noise_var_rows = np.atleast_2d(np.asarray(noise_var_rows, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if ybar_rows.shape != noise_var_rows.shape or t.shape[0] != ybar_rows.shape[0]:
        raise ValueError("ybar rows, noise_var rows and t must align")
    abar_col = np.asarray(schedule.abar(t), dtype=np.float64)[:, None]
    return perturb_at(ybar_rows, noise_var_rows, abar_col, rng)


def ddim_timesteps(schedule: DiffusionSchedule, steps: int,
                   t_end: int | None = None) -> np.ndarray:
    """Evenly strided descending timesteps from T to ``t_end`` (by default
    the schedule's ``t_min_valid``), inclusive."""
    if steps < 1 or steps > schedule.T:
        raise ValueError(f"steps must lie in [1, {schedule.T}]")
    grid = np.linspace(schedule.T, schedule.t_min_valid if t_end is None else t_end,
                       steps)
    ts = np.unique(np.rint(grid).astype(np.int64))[::-1]
    return ts


def _reverse(model, schedule: DiffusionSchedule, ts, x, plan):
    """The reverse process every sampler runs, over a sampling plan.

    ``ts`` is the descending grid of visited timesteps. It is range-checked
    once, and ``plan(abar, abar_prev, beta)`` gets the schedule's values at
    every grid point as arrays. The plan builds its per-step tables from them
    once, with array ops over the whole grid (``np.sqrt`` and division are
    correctly rounded, so each entry equals the per-step scalar bit for bit),
    and returns ``(step, project)``. No step looks up the schedule.

    At grid point ``i`` the model estimates the clean signal, ``project(x0_hat,
    i)`` optionally edits that estimate in place (None leaves it; ``denoise``
    returns a new array each call), and ``step(x, x0_hat, i)`` moves ``x`` from
    ``ts[i]`` to ``ts[i + 1]``. The estimate at ``ts[-1]`` is returned.
    """
    idx = schedule._index(np.asarray(ts, dtype=np.int64))
    step, project = plan(schedule.alpha_bars[idx], schedule._abars_prev[idx],
                         schedule.betas[idx])
    ts = [int(t) for t in ts]

    def estimate(x, i):
        x0_hat = model.denoise(x, ts[i], schedule, ema=True)
        if project is not None:
            project(x0_hat, i)
        return x0_hat

    for i in range(len(ts) - 1):
        x = step(x, estimate(x, i), i)
    return estimate(x, len(ts) - 1)


def _ddim_step(abar: np.ndarray, eta: float, rng):
    """The DDIM move from each grid point to the next, given ``abar`` over the
    grid: ``eps_hat = (x - sqrt(abar_t) x0_hat) / sqrt(1 - abar_t)``, then
    ``x = sqrt(abar_n) x0_hat + sqrt(max(1 - abar_n - sigma^2, 0)) eps_hat``,
    plus ``sigma`` times a standard normal draw where ``sigma > 0``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    abar_t, abar_n = abar[:-1], abar[1:]
    sigma = eta * np.sqrt((1.0 - abar_n) / (1.0 - abar_t)) \
        * np.sqrt(1.0 - abar_t / abar_n)
    c_x0_t, c_eps_t = np.sqrt(abar_t).tolist(), np.sqrt(1.0 - abar_t).tolist()
    c_x0_n = np.sqrt(abar_n).tolist()
    c_eps_n = np.sqrt(np.maximum(1.0 - abar_n - sigma ** 2, 0.0)).tolist()
    sigma = sigma.tolist()

    def step(x, x0_hat, i):
        eps_hat = (x - c_x0_t[i] * x0_hat) / c_eps_t[i]
        x = c_x0_n[i] * x0_hat + c_eps_n[i] * eps_hat
        if sigma[i] > 0.0:
            x = x + sigma[i] * rng.standard_normal(x.shape)
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
    return vt.apply_inverse(_reverse(
        model, schedule, ts, x, lambda abar, *_: (_ddim_step(abar, eta, rng), None)))


def ddpm_sample(model, schedule: DiffusionSchedule, rng, vt: OrthoTransform,
                count: int = 1) -> np.ndarray:
    """Full-length ancestral sampling with fixed per-step variance ``beta_t``:
    ``x = c_x0 x0_hat + c_x x + sqrt(beta_t) z`` with the posterior-mean
    weights ``c_x0 = sqrt(abar_{t-1}) beta_t / (1 - abar_t)`` and ``c_x =
    sqrt(1 - beta_t) (1 - abar_{t-1}) / (1 - abar_t)``, one draw per step."""
    def plan(abar, abar_prev, beta):
        abar, abar_prev, beta = abar[:-1], abar_prev[:-1], beta[:-1]
        c_x0 = (np.sqrt(abar_prev) * beta / (1.0 - abar)).tolist()
        c_x = (np.sqrt(1.0 - beta) * (1.0 - abar_prev) / (1.0 - abar)).tolist()
        c_z = np.sqrt(beta).tolist()

        def step(x, x0_hat, i):
            mean = c_x0[i] * x0_hat + c_x[i] * x
            return mean + c_z[i] * rng.standard_normal(x.shape)

        return step, None

    ts = np.arange(schedule.T, schedule.t_min_valid - 1, -1)
    x = rng.standard_normal((count, vt.n))
    return vt.apply_inverse(_reverse(model, schedule, ts, x, plan))


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
    t_end = max(t_min_for_noise_var(schedule, m.noise_var), schedule.t_min_valid)

    def plan(abar, *_):
        est_var = ((1.0 - abar) / abar)[:, None]
        # (steps, n) tables: the measurement's weight (1 when it is noiseless)
        # times ybar, and the estimate's weight. A masked coordinate gets -0.0
        # and 1.0, which leave its estimate as it is: -0.0 + v == v for every
        # v, signed zeros included.
        w_est = est_var / (est_var + m.noise_var)
        w_ybar = w_est * m.ybar
        np.subtract(1.0, w_est, out=w_est)
        masked = ~m.mask
        w_ybar[:, masked] = -0.0
        w_est[:, masked] = 1.0

        def consistent(x0_hat, i):
            x0_hat *= w_est[i]
            x0_hat += w_ybar[i]

        return _ddim_step(abar, eta, rng), consistent

    ts = ddim_timesteps(schedule, steps, t_end)
    x = rng.standard_normal(m.n)
    return vt.apply_inverse(_reverse(model, schedule, ts, x, plan))
