"""Risk estimators and training objectives.

Everything here estimates (or directly measures) a denoiser's squared error
at a diffusion timestep:

- ``supervised_loss``: the standard denoising objective
  ``gamma_t |f(x_t) - x|^2``, available only when clean data exists.
- ``gsure_diffusion_loss``: the self-supervised estimator usable from
  corrupted measurements alone,

      gamma_t * ( |W P (f(x_t) - r)|^2 + 2 lambda_t * div_est ),

  where ``r`` is the measurement ``ybar`` (variance-reduced form, default) or
  ``x_t / sqrt(abar_t)`` (theoretical form), and ``div_est`` is a Hutchinson
  estimate of the divergence of ``P W^2 f`` with respect to the noisy input.
  The additive constant that completes the unbiasedness identity does not
  depend on the parameters and is never computed during training.

Models plug in through one pass, ``model.evaluate(rows, t, schedule,
tangent=None)``, which processes rows independently and returns ``(x0, dx0,
grad)``: the clean-signal estimates, their directional derivatives along the
input tangent, and ``grad(g_x0, g_dx0, out=None)``, the flat parameter
gradient of ``sum(g_x0 * x0) + sum(g_dx0 * dx0)``, written into ``out`` when
given; ``model.denoise`` gives plain estimates. The tangent may be ``(k, rows,
n)``: k probe blocks over the one primal, with ``dx0`` and ``g_dx0`` shaped
alike. The loss heads are numpy on the pass's outputs: each scalar is a
weighted sum of squares plus ``sum(div_w * probe * dx0)``, so its seeds are
``w * 2e`` on ``x0`` and ``div_w * probe`` on ``dx0``. This is the one
Hutchinson construction: the k probe tangents ride one pass over the un-copied
primal rows, whose output alone feeds the squared-error term, and the gradient
is exact, including through the probe JVPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .diffusion import DiffusionSchedule, perturb_batch, timestep_rows
from .model import NonFiniteError

__all__ = [
    "LossConfig",
    "LossEval",
    "gamma_at",
    "gsure_diffusion_loss",
    "gsure_loss_from_samples",
    "lambda_at",
    "supervised_loss",
    "supervised_loss_from_samples",
]

GAMMA_RULES = ("constant", "snr")
LAMBDA_RULES = ("theory", "exact", "constant", "scaled_inverse_snr")


@dataclass(frozen=True)
class LossConfig:
    """Per-timestep weighting and divergence-estimation choices.

    ``gamma`` is the timestep weight: ``constant`` (1) or ``snr``
    (``abar/(1-abar)``). ``lam`` sets the divergence coefficient:
    ``theory`` (``1-abar``), ``exact`` (``(1-abar)/sqrt(abar)``, unbiased only
    with ``use_ybar_variant=False``: the default ybar variant's unbiased
    coefficient, ``noise_var * sqrt(abar)`` per coordinate, has no rule yet),
    ``constant`` (``lam_coef``), or ``scaled_inverse_snr`` (``lam_coef*(1-abar)/abar``).
    ``probes`` is the number of standard Gaussian Hutchinson probes per row.
    """

    gamma: str = "constant"
    lam: str = "constant"
    lam_coef: float = 1e-4
    use_ybar_variant: bool = True
    probes: int = 1

    def __post_init__(self):
        if self.gamma not in GAMMA_RULES:
            raise ValueError(f"gamma rule must be one of {GAMMA_RULES}")
        if self.lam not in LAMBDA_RULES:
            raise ValueError(f"lambda rule must be one of {LAMBDA_RULES}")
        if self.probes < 1:
            raise ValueError("probes must be >= 1")


def gamma_at(cfg: LossConfig, abar) -> np.ndarray:
    abar = np.asarray(abar, dtype=np.float64)
    if cfg.gamma == "constant":
        return np.ones_like(abar)
    return abar / (1.0 - abar)


def lambda_at(cfg: LossConfig, abar) -> np.ndarray:
    abar = np.asarray(abar, dtype=np.float64)
    if cfg.lam == "theory":
        return 1.0 - abar
    if cfg.lam == "exact":
        return (1.0 - abar) / np.sqrt(abar)
    if cfg.lam == "constant":
        return np.full_like(abar, cfg.lam_coef)
    return cfg.lam_coef * (1.0 - abar) / abar


@dataclass
class LossEval:
    """A scalar, its additive parts, and the seeded gradient of the pass behind it."""

    value: float
    mse_term: float
    divergence_term: float
    gradient: Callable[..., np.ndarray]

    def backward_flat(self, model, out=None) -> np.ndarray:
        """Flat parameter gradient of the scalar; ``model`` is the one evaluated.
        It is written into ``out``, a vector bound by the model's
        ``gradient_buffer()``, or into a new one."""
        return self.gradient() if out is None else self.gradient(out=out)


def _checked(value) -> float:
    if not np.isfinite(value):
        raise NonFiniteError("non-finite loss")
    return float(value)


def _as_rows(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def supervised_loss_from_samples(model, xbar_rows, xbar_t_rows, t,
                                 schedule: DiffusionSchedule,
                                 cfg: LossConfig | None = None) -> LossEval:
    """Batch-mean weighted denoising error for given noisy samples."""
    cfg = cfg or LossConfig()
    xbar_rows = _as_rows(xbar_rows)
    xbar_t_rows = _as_rows(xbar_t_rows)
    batch = xbar_rows.shape[0]
    t_vec = timestep_rows(t, batch)
    gam = gamma_at(cfg, schedule.abar(t_vec))

    x0, _, grad = model.evaluate(xbar_t_rows, t_vec, schedule)
    w = np.sqrt(gam / batch)[:, None]
    e = w * (x0 - xbar_rows)
    value = _checked(np.sum(e * e))
    return LossEval(value=value, mse_term=value, divergence_term=0.0,
                    gradient=partial(grad, w * (2.0 * e)))


def supervised_loss(model, xbar_rows, t, schedule: DiffusionSchedule,
                    rng, cfg: LossConfig | None = None) -> LossEval:
    """Draw ideal noisy samples from clean data and score the denoiser.

    Oracle mode only: requires the clean spectral signals.
    """
    xbar_rows = _as_rows(xbar_rows)
    t_vec = timestep_rows(t, xbar_rows.shape[0])
    xbar_t = perturb_batch(xbar_rows, np.zeros_like(xbar_rows), t_vec, schedule, rng)
    return supervised_loss_from_samples(model, xbar_rows, xbar_t, t_vec,
                                        schedule, cfg)


def _divergence_weights(mask_rows: np.ndarray, w: np.ndarray,
                        coeff_col) -> np.ndarray:
    # rows of coeff_i * P_ij * W_j^2
    return coeff_col * mask_rows * (w ** 2)[None, :]


def gsure_loss_from_samples(model, ybar_rows, mask_rows, xbar_t_rows, t,
                            probe_rows, schedule: DiffusionSchedule,
                            w, cfg: LossConfig) -> LossEval:
    """Deterministic core of the self-supervised loss.

    ``probe_rows`` has shape ``(probes * batch, n)``: probe ``k`` of row ``i``
    sits at ``k * batch + i``. The probe blocks ride one pass as ``(probes,
    batch, n)`` tangent blocks over the un-tiled rows. The squared-error term
    is evaluated on the one primal output; the divergence estimate averages
    over blocks.
    """
    ybar_rows = _as_rows(ybar_rows)
    mask_rows = _as_rows(mask_rows).astype(np.float64)
    xbar_t_rows = _as_rows(xbar_t_rows)
    probe_rows = _as_rows(probe_rows)
    w = np.asarray(w, dtype=np.float64)
    batch, n = ybar_rows.shape
    t_vec = timestep_rows(t, batch)
    k = cfg.probes
    if probe_rows.shape != (k * batch, n):
        raise ValueError(f"expected {(k * batch, n)} probe rows, got {probe_rows.shape}")

    abar = np.asarray(schedule.abar(t_vec), dtype=np.float64)
    gam = gamma_at(cfg, abar)
    lam = lambda_at(cfg, abar)

    if cfg.use_ybar_variant:
        r_rows = ybar_rows
    else:
        r_rows = xbar_t_rows / np.sqrt(abar)[:, None]

    probes = probe_rows.reshape(k, batch, n)
    mse_w = np.sqrt(gam / batch)[:, None] * mask_rows * w[None, :]
    div_w = _divergence_weights(mask_rows, w, (2.0 * gam * lam / (batch * k))[:, None])

    x0, dx0, grad = model.evaluate(xbar_t_rows, t_vec, schedule, tangent=probes)
    e = mse_w * (x0 - r_rows)
    mse = np.sum(e * e)
    div = np.sum(div_w * (probes * dx0))
    return LossEval(value=_checked(mse + div), mse_term=float(mse),
                    divergence_term=float(div),
                    gradient=partial(grad, mse_w * (2.0 * e), div_w * probes))


def gsure_diffusion_loss(model, ybar_rows, mask_rows, noise_var_rows, t,
                         schedule: DiffusionSchedule, w,
                         cfg: LossConfig, rng) -> LossEval:
    """Self-supervised loss for measurement rows at their timesteps.

    Draws the perturbed samples first and the Gaussian Hutchinson probes
    second from ``rng``, then defers to :func:`gsure_loss_from_samples`.
    """
    ybar_rows = _as_rows(ybar_rows)
    batch, n = ybar_rows.shape
    t_vec = timestep_rows(t, batch)
    xbar_t = perturb_batch(ybar_rows, noise_var_rows, t_vec, schedule, rng)
    probes = rng.standard_normal((cfg.probes * batch, n))
    return gsure_loss_from_samples(model, ybar_rows, mask_rows, xbar_t, t_vec,
                                   probes, schedule, w, cfg)
