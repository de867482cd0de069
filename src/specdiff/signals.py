"""Clean signal sources: the configured distribution's rows, and the
replayed ``Generator`` draws (:class:`RawDraws`) that paint the
synthetic-shapes signals.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .artifacts import read_tensor_file
from .schema import ConfigError
from .training import _MASK32, derived_rng

__all__ = ["RawDraws", "generate_signals"]


def generate_signals(data_cfg: dict, count: int, seed: int,
                     start: int = 0) -> np.ndarray:
    """Clean signal rows for the configured distribution; of an
    ``external-binary`` source, only the ``count`` rows from row ``start`` on
    are read, and a file that lacks them raises ``ConfigError``."""
    kind = data_cfg["kind"]
    rng = derived_rng(seed, 0)
    if kind == "two-deltas":
        signs = rng.integers(0, 2, size=count) * 2 - 1
        return np.outer(signs, np.ones(2))
    if kind == "isotropic-gaussian":
        return rng.standard_normal((count, data_cfg["dim"]))
    if kind == "synthetic-shapes":
        return _shapes(count, data_cfg["height"], data_cfg["width"], rng)
    arr = read_tensor_file(data_cfg["path"], rows=count, start=start)
    if arr.ndim != 2 or arr.shape[0] < count:
        raise ConfigError(f"data.path {data_cfg['path']}: an external-binary file "
                          f"must be a 2-D array of at least {start + count} rows")
    return arr


# pixels painted at a time: blocks of 64 records at the 16x16 presets, whose
# temporaries add ~0.5 MB to a preset-size set-up (tracemalloc)
_PAINT_PIXELS = 1 << 14


def _shapes(count: int, h: int, w: int, rng) -> np.ndarray:
    """Random axis-aligned rectangles and discs on a small grid, values in [0, 1].

    Each record draws 1 to 3 shapes from ``rng``, replayed from its raw words
    (:class:`RawDraws`). The shapes are then painted with array ops, a block
    of records and one shape slot at a time: a record is the elementwise max
    of its shapes, which is exact in any order.
    """
    draws = RawDraws(rng.bit_generator)
    integers, uniform, random = draws.integers, draws.uniform, draws.random
    out = np.zeros((count, h, w))
    yy, xx = np.arange(h)[:, None], np.arange(w)
    rows = max(1, _PAINT_PIXELS // (h * w))
    for lo in range(0, count, rows):
        block = out[lo:lo + rows]
        rects, discs = ([], [], []), ([], [], [])  # per slot: (record, ...)
        for i in range(len(block)):
            for slot in range(integers(1, 4)):
                intensity = uniform(0.4, 1.0)
                if random() < 0.5:
                    y0 = integers(0, h - 2)
                    x0 = integers(0, w - 2)
                    y1 = integers(y0 + 2, min(h, y0 + h // 2) + 1)
                    x1 = integers(x0 + 2, min(w, x0 + w // 2) + 1)
                    rects[slot].append((i, intensity, y0, x0, y1, x1))
                else:
                    cy = uniform(2, h - 2)
                    cx = uniform(2, w - 2)
                    r = uniform(1.5, min(h, w) / 4)
                    discs[slot].append((i, intensity, cy, cx, r ** 2))
        for params in rects + discs:
            if not params:
                continue
            idx, intensity, *p = np.array(params).T[:, :, None, None]
            if len(p) == 4:
                y0, x0, y1, x1 = p
                inside = (y0 <= yy) & (yy < y1) & (x0 <= xx) & (xx < x1)
            else:
                cy, cx, r2 = p
                inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r2
            idx = idx.ravel().astype(np.intp)
            patch = intensity * inside
            block[idx] = np.maximum(block[idx], patch, out=patch)
    return out.reshape(count, h * w)


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
