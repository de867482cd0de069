"""Measurement precompute, the stochastic training loop, and Adam.

:func:`precompute` draws per record and transforms once. Record ``i`` takes
the generator derived from ``(seed, i)``, draws its mask from the family's
mask distribution and then ``n`` standard normals, the draws ``corrupt`` makes
for it. One batched transform then maps every clean signal to spectral
coordinates, and the noise is scaled, added and masked in place over all rows.
The records' generators come from :func:`derived_rngs`: one PCG64 reset to
each record's state in turn, with NumPy's ``SeedSequence`` hash run over all
records at once, instead of a new ``SeedSequence`` and ``PCG64`` per record.
:class:`RawDraws` replays a ``Generator``'s scalar ``random``, ``uniform`` and
``integers`` draws from PCG64's raw words in plain Python, for the
synthetic-shapes signals' many scalar draws. Both depend on NumPy's rules
(the ``SeedSequence`` hash, PCG64's seeding and its ``Generator``
distributions, as of numpy 2.4), which the tests check against NumPy itself.

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

import operator
from collections.abc import Iterator
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
    "RawDraws",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "adam_step",
    "derived_rng",
    "derived_rngs",
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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# set-seed step (pcg64.h), which derived_rngs runs in place of the objects
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
# records whose state words are Python ints at one time: after a shapes_patch
# set-up (4,096 records) the RSS was ~0.2 MB higher at 1,024 than at 16 to 256
_STATE_BLOCK = 256


def _hashmix(init: int, mult: int):
    """SeedSequence's ``hashmix`` with its running hash constant: each call
    mixes a uint32 array with the next constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> np.uint32(16)


def _spawn_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for
    every ``i < count``, as ``(count, 4)`` little-endian uint64 words.

    The hash runs over uint32 arrays with one lane per record. The entropy is
    the seed's uint32 words, zero-padded to the pool size, then ``i`` as one
    word (so ``count <= 2**32``); the words before ``i`` are the same for all
    records, so they are one lane.
    """
    # SeedSequence rejects what derived_rng rejects, with the same exception
    entropy = operator.index(np.random.SeedSequence(seed).entropy)
    words = [np.array([entropy >> s & _MASK32], dtype=np.uint32)
             for s in range(0, max(entropy.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    words.append(np.arange(count, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)  # mix_entropy
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hashmix(_INIT_B, _MULT_B)  # generate_state: 8 words
    state = np.stack([hashmix(pool[k % _POOL_SIZE]) for k in range(8)], axis=1)
    return state.astype("<u4").view("<u8")


def derived_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield, for ``i`` in ``range(count)``, a generator in the state that
    ``derived_rng(seed, i)`` starts in, so it makes the same draws.

    It is one PCG64 generator, set to each record's state in turn: the same
    object each time, valid until the next is yielded. The states come from
    NumPy's seeding run for all records at once (:func:`_spawn_states`), then
    PCG64's set-seed step per record on Python ints, ``_STATE_BLOCK`` records
    at a time. A seed ``derived_rng`` rejects raises its exception.
    """
    words = _spawn_states(seed, count)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for lo in range(0, count, _STATE_BLOCK):
        for w0, w1, w2, w3 in words[lo:lo + _STATE_BLOCK].tolist():
            # initstate = w0:w1 and initseq = w2:w3, each high word first
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


# raw words RawDraws takes from its bit generator per random_raw call
_RAW_BLOCK = 1024
_DOUBLE_UNIT = 2.0 ** -53


class RawDraws:
    """``random()``, ``uniform(a, b)`` and scalar ``integers(lo, hi)`` of a
    ``Generator`` on ``bit_generator``, replayed in plain Python from its raw
    64-bit words: the same values from the same state, without a
    ``Generator`` call per draw.

    The rules are those of NumPy's ``Generator`` for PCG64 (numpy 2.4,
    ``distributions.c`` and ``pcg64.h``), which the tests check against it:
    a double is ``(w >> 11) * 2**-53``; ``uniform`` is ``a + (b - a) * u``;
    ``integers`` is Lemire's bounded draw on 32-bit draws, with its rejection
    loop. A 32-bit draw takes a word's low half and keeps the high half for
    the next 32-bit draw; double draws leave that kept half alone.
    ``integers`` takes ranges of 1 to ``2**32`` values (one value takes no
    draw) and returns a Python int.

    Words are taken ``_RAW_BLOCK`` at a time, so the bit generator runs ahead
    of the draws and is not for further use.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._next = self._words(bit_generator).__next__

    @staticmethod
    def _words(bit_generator) -> Iterator[int]:
        while True:
            yield from bit_generator.random_raw(_RAW_BLOCK).tolist()

    def random(self) -> float:
        return (self._next() >> 11) * _DOUBLE_UNIT

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, lo: int, hi: int) -> int:
        span = hi - lo
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"integers({lo}, {hi}): the replay takes 1 to 2**32 values")
        if span == 1:
            return lo
        m = self._uint32() * span
        if m & _MASK32 < span:
            threshold = ((1 << 32) - span) % span
            while m & _MASK32 < threshold:
                m = self._uint32() * span
        return lo + (m >> 32)


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
    loss: LossConfig = field(default_factory=LossConfig)
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
    is reproducible and independent of iteration order. The generators come
    from :func:`derived_rngs`, one PCG64 set to each record's state in turn,
    so no generator object is built per record. The transform then
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
    for i, rng in enumerate(derived_rngs(seed, count)):
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
