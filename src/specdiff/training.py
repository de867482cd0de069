"""Measurement precompute, the stochastic training loop, and Adam.

:func:`precompute` draws per record and transforms once. Record ``i`` takes
the generator derived from ``(seed, i)``, draws its mask from the family's
mask distribution and then ``n`` standard normals, the draws ``corrupt`` makes
for it. One batched transform then maps every clean signal to spectral
coordinates, and the noise is scaled, added and masked in place over all rows.

The whole trajectory is a pure function of (config, data): every random draw
comes from a generator derived from the config seed and a structural key
(step index, purpose, chunk index). By default a step evaluates the whole
batch in one network pass. An explicit ``chunk_size`` caps the rows per pass:
the batch is cut into fixed-size chunks, evaluated one after another, whose
gradients are reduced in chunk order. The first chunk's gradient starts the
sum, so a one-chunk step uses its chunk's gradient as it is and the default is
bit-identical to ``chunk_size = batch_size``.

Adam (:func:`adam_step`) and the EMA shadow (:meth:`Denoiser.ema_update`) run
over fixed cache-sized blocks of the flat parameter vector, with the
whole-vector form's operations per element, so they are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError
from .diffusion import DiffusionSchedule, t_min_for_noise_var
from .losses import LossConfig, gsure_diffusion_loss, supervised_loss
from .model import UPDATE_BLOCK, Denoiser
from .operators import DegradationFamily, Measurement

__all__ = [
    "AdamState",
    "MetricsRow",
    "PrecomputedDataset",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "adam_step",
    "derived_rng",
    "precompute",
    "train",
]


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator tied to (seed, structural key); independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float) -> None:
    """In-place Adam update with bias correction at the ``ADAM_*`` constants.

    Runs over :data:`~specdiff.model.UPDATE_BLOCK`-element slices, each with
    the whole-vector form's operations in its order, so the result is
    bit-identical to that form. Every intermediate is written into one
    two-block scratch made per call, which stays in cache.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and state must share one shape")
    state.step += 1
    a1, a2 = 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2
    c1, c2 = 1.0 - ADAM_BETA1 ** state.step, 1.0 - ADAM_BETA2 ** state.step
    scratch = np.empty((2, min(UPDATE_BLOCK, params.shape[0])))
    for lo in range(0, params.shape[0], UPDATE_BLOCK):
        hi = lo + UPDATE_BLOCK
        p, g, m, v = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        num, den = scratch[0, :len(p)], scratch[1, :len(p)]
        m *= ADAM_BETA1
        m += np.multiply(a1, g, out=num)
        v *= ADAM_BETA2
        np.multiply(a2, g, out=num)
        v += np.multiply(num, g, out=num)
        # p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        np.multiply(lr, np.divide(m, c1, out=num), out=num)
        np.add(np.sqrt(np.divide(v, c2, out=den), out=den), ADAM_EPS, out=den)
        p -= np.divide(num, den, out=num)


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop hyperparameters. The seed is mandatory: there is no
    entropy-source fallback anywhere in the loop.

    ``chunk_size`` is an optional cap on the rows evaluated per network pass;
    unset (``None``), each step evaluates the whole batch in one pass.
    """

    iterations: int
    batch_size: int
    learning_rate: float
    seed: int
    loss: LossConfig = field(default_factory=LossConfig.faces)
    oracle_mode: bool = False
    log_interval: int = 50
    chunk_size: int | None = None

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("iterations >= 0, batch_size >= 1, learning_rate > 0")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when set")
        if self.log_interval < 1:
            raise ValueError("log_interval must be >= 1")


@dataclass(frozen=True)
class PrecomputedDataset:
    """Transformed measurements sharing one orthogonal transform.

    Rows of ``ybar``/``masks``/``noise_var`` are the records; ``w`` is the
    balancing weight vector derived from the mask distribution. Clean spectral
    signals are optional; oracle training needs them.
    """

    ybar: np.ndarray
    masks: np.ndarray
    noise_var: np.ndarray
    w: np.ndarray
    clean_xbar: np.ndarray | None = None

    def __post_init__(self):
        if not (self.ybar.shape == self.masks.shape == self.noise_var.shape):
            raise ValueError("ybar, masks and noise_var must have equal shapes")
        if self.w.shape != (self.ybar.shape[1],):
            raise ValueError("w must be one weight per spectral coordinate")
        if self.clean_xbar is not None and self.clean_xbar.shape != self.ybar.shape:
            raise ValueError("clean_xbar must align with ybar")
        if np.any(self.ybar[~self.masks.astype(bool)] != 0.0):
            raise ValueError("ybar must be zero at unobserved entries")

    def __len__(self) -> int:
        return self.ybar.shape[0]

    @property
    def n(self) -> int:
        return self.ybar.shape[1]

    def worst_noise_var(self) -> float:
        return float(self.noise_var.max(initial=0.0))

    def measurement(self, i: int) -> Measurement:
        return Measurement(ybar=self.ybar[i], mask=self.masks[i],
                           noise_var=self.noise_var[i])


def precompute(signals: np.ndarray, family: DegradationFamily,
               seed: int) -> PrecomputedDataset:
    """Corrupt clean signals into transformed measurements.

    Record ``i`` consumes the generator ``derived_rng(seed, i)``: first its
    mask (``family.masks.sample``), then ``n`` standard normals, the draws
    that ``corrupt(signals[i], family.sample(rng), rng)`` makes. So the dataset
    is reproducible and independent of iteration order. The transform then
    runs once over all rows. Every kept entry becomes ``xbar + sqrt(var) *
    noise`` with ``noise_var = var = sigma0 * sigma0``; the rest are 0.
    """
    signals = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    count = signals.shape[0]
    n = family.n
    if signals.shape[1] != n:
        raise ValueError(f"signals have dimension {signals.shape[1]}, family {n}")
    ybar = np.empty((count, n))
    masks = np.empty((count, n), dtype=bool)
    for i in range(count):
        rng = derived_rng(seed, i)
        masks[i] = family.masks.sample(rng)
        rng.standard_normal(out=ybar[i])  # the draws of standard_normal(n)
    clean_xbar = family.vt.apply(signals)
    sigma0 = float(family.sigma0)
    var = sigma0 * sigma0  # correctly rounded; Python's ** 2 is not always
    noise_var = masks * var
    # in place, so no full-size temporary: the same operations per entry as
    # corrupt's where(mask, xbar + sqrt(noise_var) * noise, 0)
    ybar *= np.sqrt(var)
    ybar += clean_xbar
    ybar[~masks] = 0.0
    return PrecomputedDataset(ybar=ybar, masks=masks, noise_var=noise_var,
                              w=family.weights(), clean_xbar=clean_xbar)


@dataclass(frozen=True)
class MetricsRow:
    step: int
    loss: float
    divergence_term: float
    grad_norm: float


@dataclass
class TrainResult:
    metrics: list[MetricsRow]
    t_min_valid: int


def _chunk_bounds(batch_size: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, batch_size))
            for lo in range(0, batch_size, chunk_size)]


def _evaluate_chunk(model, cfg: TrainConfig, data: PrecomputedDataset,
                    schedule: DiffusionSchedule, idx: np.ndarray,
                    t_vec: np.ndarray, rng) -> tuple[float, float, np.ndarray]:
    """One chunk's (loss, divergence term, flat gradient), all chunk means."""
    if cfg.oracle_mode:
        out = supervised_loss(model, data.clean_xbar[idx], t_vec, schedule, rng,
                              cfg.loss)
    else:
        out = gsure_diffusion_loss(model, data.ybar[idx], data.masks[idx],
                                   data.noise_var[idx], t_vec, schedule, data.w,
                                   cfg.loss, rng)
    return out.value, out.divergence_term, out.backward_flat(model)


def train(model: Denoiser, cfg: TrainConfig, data: PrecomputedDataset,
          schedule: DiffusionSchedule) -> TrainResult:
    """Run the stochastic loop: sample, perturb, estimate risk, step, shadow.

    Timesteps are drawn uniformly from the feasible range
    ``[t_min_valid, T]`` induced by the dataset's worst measurement variance.
    """
    if cfg.oracle_mode and data.clean_xbar is None:
        raise ValueError("oracle mode needs clean signals (simulation-mode dataset)")
    if model.n != data.n:
        raise ValueError(f"model dimension {model.n} != data dimension {data.n}")
    if len(data) == 0 and cfg.iterations > 0:
        raise ValueError("cannot train on an empty dataset")

    t_min = t_min_for_noise_var(schedule, data.worst_noise_var())
    state = AdamState.for_params(model.params)
    metrics: list[MetricsRow] = []
    # resolved here, not at construction, so dataclasses.replace(cfg,
    # batch_size=...) on an unset chunk still means "whole batch"
    bounds = _chunk_bounds(cfg.batch_size, cfg.chunk_size or cfg.batch_size)

    try:
        for step in range(1, cfg.iterations + 1):
            idx = derived_rng(cfg.seed, step, 0).integers(0, len(data),
                                                          size=cfg.batch_size)
            t_vec = derived_rng(cfg.seed, step, 1).integers(
                t_min, schedule.T + 1, size=cfg.batch_size)

            # fixed-order reduction of chunk means into batch means. The
            # gradient sum starts from the first chunk, not from zeros, so it
            # may hold -0.0 where a zero-started sum holds +0.0; Adam turns
            # both into the same parameters, as its moments start at +0.0.
            loss = div = 0.0
            for ci, (lo, hi) in enumerate(bounds):
                c_loss, c_div, c_grads = _evaluate_chunk(
                    model, cfg, data, schedule, idx[lo:hi], t_vec[lo:hi],
                    derived_rng(cfg.seed, step, 2 + ci))
                frac = (hi - lo) / cfg.batch_size
                loss += frac * c_loss
                div += frac * c_div
                if ci == 0:
                    grads = c_grads if frac == 1.0 else frac * c_grads
                else:
                    grads += frac * c_grads

            if not np.isfinite(loss) or not np.all(np.isfinite(grads)):
                raise TrainingDiverged(step, "non-finite loss or gradient")

            adam_step(model.params, grads, state, cfg.learning_rate)
            model.ema_update()

            if step == 1 or step % cfg.log_interval == 0 or step == cfg.iterations:
                metrics.append(MetricsRow(step=step, loss=loss,
                                          divergence_term=div,
                                          grad_norm=float(np.linalg.norm(grads))))
    except NonFiniteError as exc:
        raise TrainingDiverged(step, str(exc)) from exc

    return TrainResult(metrics=metrics, t_min_valid=t_min)
