"""Time-conditioned denoiser network with EMA parameter shadowing.

The denoiser is a fully connected net over the flattened spectral vector
concatenated with a sinusoidal embedding of the timestep (the first layer is
split into a signal block and an embedding block, which is the same map).
Its nonlinearity is tanh, which is smooth everywhere: training differentiates
the network's input-Jacobian, and a kinked activation would make that
Jacobian discontinuous.

The network predicts either the clean signal directly (``predict_x``) or the
added noise (``predict_epsilon``); in the latter case the estimate of the
clean signal is ``(x_t - sqrt(1 - abar_t) * eps_hat) / sqrt(abar_t)``. Every
consumer works with this clean-signal view, so :meth:`Denoiser.evaluate`
returns it: one pass gives ``x0``, optionally its directional derivative
``dx0`` along an input tangent, and a gradient function. The network's
closed-form pass (:mod:`specdiff.autodiff`, filled by
:meth:`Denoiser.build_graph`) covers the layers alone; the per-row affine
conversion and its adjoint are plain numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Graph, NonFiniteError, backward, forward
from .diffusion import DiffusionSchedule, timestep_rows

__all__ = ["Denoiser", "time_embedding"]

MEAN_TYPES = ("predict_x", "predict_epsilon")

# Elements per slice of the flat-vector updates (EMA here, Adam in
# :mod:`specdiff.training`): 256 KB of float64, so a slice and its temporaries
# stay in cache. The updates are elementwise, so slicing changes no bit.
UPDATE_BLOCK = 1 << 15

MAX_PERIOD = 10_000.0  # longest wavelength of the time embedding, in timesteps


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of (1-based) timesteps; rows for vector input."""
    if dim % 2:
        raise ValueError("embedding dimension must be even")
    t = np.asarray(t, dtype=np.float64)
    angles = t[..., None] * _frequencies(dim // 2)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@functools.lru_cache(maxsize=None)
def _frequencies(half: int) -> np.ndarray:
    freqs = np.exp(-np.log(MAX_PERIOD) * np.arange(half) / half)
    freqs.flags.writeable = False  # shared by every later call
    return freqs


class Denoiser:
    """MLP denoiser with flat parameter storage and an EMA shadow copy."""

    def __init__(self, n: int, hidden: tuple[int, ...], emb_dim: int,
                 mean_type: str, ema_decay: float, params: np.ndarray):
        if mean_type not in MEAN_TYPES:
            raise ValueError(f"mean_type must be one of {MEAN_TYPES}")
        if not 0.0 <= ema_decay <= 1.0:
            raise ValueError("ema_decay must lie in [0, 1]")
        if emb_dim < 2 or emb_dim % 2:
            raise ValueError("emb_dim must be a positive even number")
        self.n = int(n)
        self.hidden = tuple(int(h) for h in hidden)
        self.emb_dim = int(emb_dim)
        self.mean_type = mean_type
        self.ema_decay = float(ema_decay)
        self._slices, size = [], 0  # (name, lo, hi, shape) of each parameter block
        for name, shape in self._make_layout(self.n, self.hidden, self.emb_dim):
            lo, size = size, size + int(np.prod(shape))
            self._slices.append((name, lo, size, shape))
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (size,):
            raise ValueError(f"expected {size} parameters, got {params.shape}")
        self.params = params.copy()
        self.ema_params = params.copy()

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make_layout(n, hidden, emb_dim):
        if not hidden:
            raise ValueError("at least one hidden layer is required")
        layout = [("w0x", (hidden[0], n)), ("w0e", (hidden[0], emb_dim)),
                  ("b0", (hidden[0],))]
        for i in range(1, len(hidden)):
            layout.append((f"w{i}", (hidden[i], hidden[i - 1])))
            layout.append((f"b{i}", (hidden[i],)))
        layout.append(("w_out", (n, hidden[-1])))
        layout.append(("b_out", (n,)))
        return layout

    @classmethod
    def create(cls, n: int, hidden=(256, 256, 256), emb_dim: int = 32,
               mean_type: str = "predict_x", ema_decay: float = 0.999,
               rng=None) -> "Denoiser":
        """Fresh network with scaled Gaussian weights and zero biases."""
        rng = np.random.default_rng(0) if rng is None else rng
        layout = cls._make_layout(n, tuple(hidden), emb_dim)
        chunks = []
        for name, shape in layout:
            if name.startswith("w"):
                fan_in = shape[1]
                scale = (0.1 if name == "w_out" else 1.0) / np.sqrt(fan_in)
                chunks.append(scale * rng.standard_normal(shape).ravel())
            else:
                chunks.append(np.zeros(int(np.prod(shape))))
        return cls(n, tuple(hidden), emb_dim, mean_type, ema_decay,
                   np.concatenate(chunks))

    @property
    def param_count(self) -> int:
        return self.params.shape[0]

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in self._slices}

    # -- evaluation ---------------------------------------------------------

    def build_graph(self, t_vec: np.ndarray, ema: bool = False) -> Graph:
        """The network's layers for one row per entry of ``t_vec``.

        The one input is the ``(len(t_vec), n)`` batch of noisy rows; the
        output is the x-estimate or noise estimate. :func:`backward` returns
        the parameter gradients in layout order, so they concatenate into
        the flat layout.
        """
        p = self._views(self.ema_params if ema else self.params)
        layers = [(p["w0x"], p["b0"])]
        layers += [(p[f"w{i}"], p[f"b{i}"]) for i in range(1, len(self.hidden))]
        layers.append((p["w_out"], p["b_out"]))
        return Graph(layers, time_embedding(t_vec, self.emb_dim), p["w0e"])

    def evaluate(self, xbar_t: np.ndarray, t, schedule: DiffusionSchedule,
                 tangent: np.ndarray | None = None, ema: bool = False):
        """One pass over a batch of rows: ``(x0, dx0, grad)``.

        ``t`` is an int shared by all rows or a per-row integer vector.
        ``x0`` is the clean-signal estimate of each row, ``dx0`` its
        directional derivative along the input ``tangent`` (None without one),
        and ``grad(g_x0, g_dx0=None)`` the flat parameter gradient of
        ``sum(g_x0 * x0) + sum(g_dx0 * dx0)``.
        """
        rows = np.atleast_2d(np.asarray(xbar_t, dtype=np.float64))
        t_vec = timestep_rows(t, len(rows))

        x0, dx0, saved = forward(self.build_graph(t_vec, ema=ema), rows, tangent)
        if self.mean_type == "predict_epsilon":
            # the network gave eps: x0 = inv * (x - s * eps) per row, likewise dx0
            abar = np.asarray(schedule.abar(t_vec), dtype=np.float64)[:, None]
            s, inv = np.sqrt(1.0 - abar), 1.0 / np.sqrt(abar)
            x0 = inv * (rows - s * x0)
            if dx0 is not None:
                dx0 = inv * (tangent - s * dx0)
            if not np.all(np.isfinite(x0)):
                raise NonFiniteError("non-finite clean-signal estimate")

        def grad(g_x0, g_dx0=None) -> np.ndarray:
            if self.mean_type == "predict_epsilon":
                g_x0 = s * -(inv * g_x0)
                g_dx0 = None if g_dx0 is None else s * -(inv * g_dx0)
            return np.concatenate([pg.ravel() for pg in backward(saved, g_x0, g_dx0)])

        return x0, dx0, grad

    def denoise(self, xbar_t: np.ndarray, t, schedule: DiffusionSchedule,
                ema: bool = False) -> np.ndarray:
        """Clean-signal estimate; accepts one vector or a batch of rows."""
        xbar_t = np.asarray(xbar_t, dtype=np.float64)
        x0 = self.evaluate(xbar_t, t, schedule, ema=ema)[0]
        return x0[0] if xbar_t.ndim == 1 else x0

    # -- EMA ---------------------------------------------------------------

    def ema_update(self) -> None:
        """Shift the shadow parameters: ``ema <- d * ema + (1 - d) * params``.

        Runs over :data:`UPDATE_BLOCK`-element slices with the same operations
        per element, so it is bit-identical to the whole-vector form.
        """
        d = self.ema_decay
        a = 1.0 - d
        for lo in range(0, self.params.shape[0], UPDATE_BLOCK):
            ema = self.ema_params[lo:lo + UPDATE_BLOCK]
            ema *= d
            ema += a * self.params[lo:lo + UPDATE_BLOCK]

    # -- serialization -----------------------------------------------------

    def arch(self) -> dict:
        return {
            "n": self.n,
            "hidden": list(self.hidden),
            "emb_dim": self.emb_dim,
            "mean_type": self.mean_type,
            "ema_decay": self.ema_decay,
        }

    @classmethod
    def from_arch(cls, arch: dict, params: np.ndarray,
                  ema_params: np.ndarray | None = None) -> "Denoiser":
        model = cls(arch["n"], tuple(arch["hidden"]), arch["emb_dim"],
                    arch["mean_type"], arch["ema_decay"], params)
        if ema_params is not None:
            ema_params = np.asarray(ema_params, dtype=np.float64)
            if ema_params.shape != model.params.shape:
                raise ValueError("ema parameter vector has the wrong length")
            model.ema_params = ema_params.copy()
        return model
