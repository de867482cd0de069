"""Risk estimators and training objectives.

Everything here estimates (or directly measures) a denoiser's squared error
at a diffusion timestep:

- ``supervised_loss``: the standard denoising objective
  ``gamma_t |f(x_t) - x|^2``, available only when clean data exists.
- ``projected_loss_rows``: the per-row mask-weighted error
  ``|W P (f(x_t) - x)|^2``; with ``W = E[P]**(-1/2)`` and mask-independent
  errors its expectation equals the full MSE (estimator studies only, needs
  clean data).
- ``gsure_diffusion_loss``: the self-supervised estimator usable from
  corrupted measurements alone,

      gamma_t * ( |W P (f(x_t) - r)|^2 + 2 lambda_t * div_est ),

  where ``r`` is the measurement ``ybar`` (variance-reduced form, default) or
  ``x_t / sqrt(abar_t)`` (theoretical form), and ``div_est`` is a Hutchinson
  estimate of the divergence of ``P W^2 f`` with respect to the noisy input.
  The additive constant that completes the unbiasedness identity does not
  depend on the parameters and is never computed during training.

Models plug in through a small protocol: ``model.build_graph(rows, t,
schedule, ema=...)`` returning ``(graph, input_var, x0_var)`` where rows are
processed independently, ``model.denoise`` for plain estimates, and
``model.flatten_grads`` for trainers. The divergence estimate rides the same
network evaluation as the squared-error term (one tangent-carrying forward
pass per probe), and the returned scalar is differentiable end to end,
including through the probe JVP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, forward
from .diffusion import DiffusionSchedule, perturb_batch

__all__ = [
    "LossConfig",
    "LossEval",
    "gamma_at",
    "gsure_diffusion_loss",
    "gsure_loss_from_samples",
    "hutchinson_probe_values",
    "lambda_at",
    "projected_loss_rows",
    "supervised_loss",
    "supervised_loss_from_samples",
]

GAMMA_RULES = ("constant", "snr")
LAMBDA_RULES = ("theory", "exact", "constant", "scaled_inverse_snr")
PROBE_KINDS = ("gaussian", "rademacher")


@dataclass(frozen=True)
class LossConfig:
    """Per-timestep weighting and divergence-estimation choices.

    ``gamma`` is the timestep weight: ``constant`` (1) or ``snr``
    (``abar/(1-abar)``). ``lam`` sets the divergence coefficient:
    ``theory`` (``1-abar``), ``exact`` (``(1-abar)/sqrt(abar)``, the
    coefficient under which the estimator is exactly unbiased), ``constant``
    (``lam_coef``), or ``scaled_inverse_snr`` (``lam_coef*(1-abar)/abar``).
    """

    gamma: str = "constant"
    lam: str = "constant"
    lam_coef: float = 1e-4
    use_ybar_variant: bool = True
    probes: int = 1
    probe_kind: str = "gaussian"

    def __post_init__(self):
        if self.gamma not in GAMMA_RULES:
            raise ValueError(f"gamma rule must be one of {GAMMA_RULES}")
        if self.lam not in LAMBDA_RULES:
            raise ValueError(f"lambda rule must be one of {LAMBDA_RULES}")
        if self.probes < 1:
            raise ValueError("probes must be >= 1")
        if self.probe_kind not in PROBE_KINDS:
            raise ValueError(f"probe kind must be one of {PROBE_KINDS}")

    @classmethod
    def faces(cls, **kw) -> "LossConfig":
        """Recipe used for the patch-drop image experiments."""
        return cls(gamma="constant", lam="constant", lam_coef=1e-4, **kw)

    @classmethod
    def acquisition(cls, **kw) -> "LossConfig":
        """Recipe used for the undersampled-acquisition experiments."""
        return cls(gamma="snr", lam="scaled_inverse_snr", lam_coef=1e-4, **kw)


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
    """A differentiable scalar with its additive parts and the tape behind it."""

    graph: Graph
    value: float
    mse_term: float
    divergence_term: float

    def backward_flat(self, model) -> np.ndarray:
        """Flat parameter gradient of the scalar."""
        from .autodiff import backward

        pgrads, _ = backward(self.graph, np.asarray(1.0))
        return model.flatten_grads(pgrads)


def _as_rows(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _t_rows(t, batch: int) -> np.ndarray:
    t_vec = np.full(batch, t, dtype=np.int64) if np.isscalar(t) \
        else np.asarray(t, dtype=np.int64)
    if t_vec.shape != (batch,):
        raise ValueError("t must be scalar or one timestep per row")
    return t_vec


def _draw_probes(cfg: LossConfig, shape, rng) -> np.ndarray:
    if cfg.probe_kind == "gaussian":
        return rng.standard_normal(shape)
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def supervised_loss_from_samples(model, xbar_rows, xbar_t_rows, t,
                                 schedule: DiffusionSchedule,
                                 cfg: LossConfig | None = None) -> LossEval:
    """Batch-mean weighted denoising error for given noisy samples."""
    cfg = cfg or LossConfig()
    xbar_rows = _as_rows(xbar_rows)
    xbar_t_rows = _as_rows(xbar_t_rows)
    batch, n = xbar_rows.shape
    t_vec = _t_rows(t, batch)
    gam = gamma_at(cfg, schedule.abar(t_vec))

    g, _, x0 = model.build_graph(xbar_t_rows, t_vec, schedule)
    err = g.sub(x0, g.const(xbar_rows))
    weights = np.repeat(np.sqrt(gam / batch)[:, None], n, axis=1)
    mse = g.sum(g.nonlin("square", g.cmul(err, weights)))
    g.set_output(mse)
    value = float(forward(g, [xbar_t_rows]))
    return LossEval(graph=g, value=value, mse_term=value, divergence_term=0.0)


def supervised_loss(model, xbar_rows, t, schedule: DiffusionSchedule,
                    rng, cfg: LossConfig | None = None) -> LossEval:
    """Draw ideal noisy samples from clean data and score the denoiser.

    Oracle mode only: requires the clean spectral signals.
    """
    xbar_rows = _as_rows(xbar_rows)
    t_vec = _t_rows(t, xbar_rows.shape[0])
    xbar_t = perturb_batch(xbar_rows, np.zeros_like(xbar_rows), t_vec, schedule, rng)
    return supervised_loss_from_samples(model, xbar_rows, xbar_t, t_vec,
                                        schedule, cfg)


def projected_loss_rows(model, xbar_rows, xbar_t_rows, mask_rows, w, t,
                        schedule: DiffusionSchedule) -> np.ndarray:
    """Per-row values of ``|W P (f(x_t) - x)|^2`` (no timestep weighting)."""
    xbar_rows = _as_rows(xbar_rows)
    xbar_t_rows = _as_rows(xbar_t_rows)
    mask_rows = _as_rows(mask_rows).astype(np.float64)
    w = np.asarray(w, dtype=np.float64)
    est = model.denoise(xbar_t_rows, _t_rows(t, xbar_rows.shape[0]), schedule)
    resid = (est - xbar_rows) * mask_rows * w
    return np.sum(resid ** 2, axis=1)


def _divergence_weights(mask_rows: np.ndarray, w: np.ndarray,
                        coeff_col: np.ndarray) -> np.ndarray:
    # rows of coeff_i * P_ij * W_j^2
    return coeff_col * mask_rows * (w ** 2)[None, :]


def gsure_loss_from_samples(model, ybar_rows, mask_rows, xbar_t_rows, t,
                            probe_rows, schedule: DiffusionSchedule,
                            w, cfg: LossConfig) -> LossEval:
    """Deterministic core of the self-supervised loss.

    ``probe_rows`` has shape ``(probes * batch, n)``: probe ``k`` of row ``i``
    sits at ``k * batch + i``. The squared-error term is evaluated on the
    first probe block only (all blocks share the same primal rows); the
    divergence estimate averages over blocks.
    """
    ybar_rows = _as_rows(ybar_rows)
    mask_rows = _as_rows(mask_rows).astype(np.float64)
    xbar_t_rows = _as_rows(xbar_t_rows)
    probe_rows = _as_rows(probe_rows)
    w = np.asarray(w, dtype=np.float64)
    batch, n = ybar_rows.shape
    t_vec = _t_rows(t, batch)
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

    rows = np.tile(xbar_t_rows, (k, 1))
    t_rep = np.tile(t_vec, k)

    # per-row constant weights; probe blocks beyond the first carry no MSE
    mse_w = np.zeros((k * batch, n))
    mse_w[:batch] = np.sqrt(gam / batch)[:, None] * mask_rows * w[None, :]
    div_w = np.tile(
        _divergence_weights(mask_rows, w, (2.0 * gam * lam / (batch * k))[:, None]),
        (k, 1),
    )

    g, x, x0 = model.build_graph(rows, t_rep, schedule)
    err = g.sub(x0, g.const(np.tile(r_rows, (k, 1))))
    mse = g.sum(g.nonlin("square", g.cmul(err, mse_w)))
    div = g.sum(g.cmul(g.mul(g.const(probe_rows), g.tangent_of(x0)), div_w))
    total = g.add(mse, div)
    g.set_output(total)
    value = float(forward(g, [rows], tangents=[probe_rows]))
    return LossEval(graph=g, value=value,
                    mse_term=float(g.value_of(mse)),
                    divergence_term=float(g.value_of(div)))


def gsure_diffusion_loss(model, ybar_rows, mask_rows, noise_var_rows, t,
                         schedule: DiffusionSchedule, w,
                         cfg: LossConfig, rng) -> LossEval:
    """Self-supervised loss for measurement rows at their timesteps.

    Draws the perturbed samples first and the Hutchinson probes second from
    ``rng``, then defers to :func:`gsure_loss_from_samples`.
    """
    ybar_rows = _as_rows(ybar_rows)
    batch, n = ybar_rows.shape
    t_vec = _t_rows(t, batch)
    xbar_t = perturb_batch(ybar_rows, noise_var_rows, t_vec, schedule, rng)
    probes = _draw_probes(cfg, (cfg.probes * batch, n), rng)
    return gsure_loss_from_samples(model, ybar_rows, mask_rows, xbar_t, t_vec,
                                   probes, schedule, w, cfg)


def hutchinson_probe_values(model, xbar_t, t: int, schedule: DiffusionSchedule,
                            mask, w, probes: int, rng,
                            chunk: int = 4096) -> np.ndarray:
    """Per-probe Hutchinson samples ``v . (P W^2 (J f) v)`` for estimator studies."""
    xbar_t = np.asarray(xbar_t, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = xbar_t.shape[0]
    out = np.empty(probes)
    done = 0
    while done < probes:
        size = min(chunk, probes - done)
        v = rng.standard_normal((size, n))
        rows = np.tile(xbar_t, (size, 1))
        g, x, x0 = model.build_graph(rows, np.full(size, t, dtype=np.int64), schedule)
        jv = g.tangent_of(x0)
        g.set_output(jv)
        forward(g, [rows], tangents=[v])
        jv_rows = g.value_of(jv)
        out[done:done + size] = np.sum(v * (mask * w ** 2)[None, :] * jv_rows, axis=1)
        done += size
    return out

