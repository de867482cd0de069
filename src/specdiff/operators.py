"""Orthogonal transforms, mask families and the measurement model.

A degradation is stored pre-diagonalized: an orthogonal transform into
spectral coordinates, a random 0/1 mask per record and a noise level. In
spectral coordinates a measurement keeps the masked-in entries of the
transformed signal plus Gaussian noise of variance ``sigma0 * sigma0``, and is
exactly 0 elsewhere. The left singular vectors are never materialized;
everything downstream consumes the transformed measurement directly.

Mask families draw the random mask of each record and expose the expected
projection ``E[P]`` as ``keep_probabilities``. A :class:`DegradationFamily`
requires ``E[P]`` to be entrywise positive and derives the balancing weights
``W = E[P]**(-1/2)`` from it. A transform's ``descriptor`` is rebuilt into the
transform by :func:`transform_from_descriptor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegradationFamily",
    "FixedMask",
    "IdentityTransform",
    "LineSubsampleMasks",
    "MatrixTransform",
    "Measurement",
    "OrthoTransform",
    "PatchDropMasks",
    "RealDFTTransform",
    "SingleDropMasks",
    "corrupt",
    "transform_from_descriptor",
]

_ORTHO_TOL = 1e-10


class OrthoTransform:
    """Orthogonal change of basis between signal and spectral coordinates.

    ``apply`` maps signal -> spectral, ``apply_inverse`` maps back. Both act
    on the last axis and accept stacked rows. Subclasses must preserve the
    Euclidean norm to within 1e-10.
    """

    n: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_inverse(self, xbar: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-serializable identity of this transform, used to detect mixing."""
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n:
            raise ValueError(f"transform of dimension {self.n} applied to {x.shape}")
        return x


class IdentityTransform(OrthoTransform):
    def __init__(self, n: int):
        self.n = int(n)

    def apply(self, x):
        return self._check_dim(x).copy()

    def apply_inverse(self, xbar):
        return self._check_dim(xbar).copy()

    def descriptor(self):
        return {"kind": "identity", "n": self.n}


class MatrixTransform(OrthoTransform):
    """Explicit orthogonal matrix; intended for small n."""

    def __init__(self, q):
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("matrix transform must be square")
        if np.max(np.abs(q @ q.T - np.eye(q.shape[0]))) > _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal to within 1e-10")
        self.n = q.shape[0]
        self._q = q

    def apply(self, x):
        return self._check_dim(x) @ self._q.T

    def apply_inverse(self, xbar):
        return self._check_dim(xbar) @ self._q


class RealDFTTransform(MatrixTransform):
    """Unitary DFT over ``lines`` complex entries as a real orthogonal map.

    Signals pack real and imaginary parts as separate channel blocks:
    ``x = [re_0..re_{L-1}, im_0..im_{L-1}]``. Spectral coordinates use the
    centered frequency ordering (lowest frequencies in the middle), so a
    "central block" of lines is contiguous. Line ``l`` occupies spectral
    coordinates ``l`` (real part) and ``L + l`` (imaginary part).
    """

    def __init__(self, lines: int):
        lines = int(lines)
        if lines < 1:
            raise ValueError("lines must be >= 1")
        self.lines = lines
        j = np.arange(lines)
        freqs = j - lines // 2  # centered ordering
        theta = 2.0 * np.pi * np.outer(freqs, j) / lines
        c = np.cos(theta) / np.sqrt(lines)
        s = np.sin(theta) / np.sqrt(lines)
        # y = F (xr + i xi) with F_{fj} = exp(-i theta)/sqrt(L)
        q = np.block([[c, s], [-s, c]])
        super().__init__(q)

    def descriptor(self):
        return {"kind": "real_dft", "lines": self.lines}


def transform_from_descriptor(desc: dict) -> OrthoTransform:
    """The transform that ``descriptor()`` described; other kinds raise
    ``ValueError``."""
    if desc["kind"] == "identity":
        return IdentityTransform(desc["n"])
    if desc["kind"] == "real_dft":
        return RealDFTTransform(desc["lines"])
    raise ValueError(f"transform kind {desc['kind']!r} cannot be rebuilt "
                     "from its descriptor")


@dataclass(frozen=True)
class Measurement:
    """A transformed corrupted observation: the unit of training data."""

    ybar: np.ndarray
    mask: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        ybar = np.asarray(self.ybar, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        nv = np.asarray(self.noise_var, dtype=np.float64)
        if not (ybar.shape == mask.shape == nv.shape) or ybar.ndim != 1:
            raise ValueError("ybar, mask and noise_var must be 1-D and equal length")
        if np.any(ybar[~mask] != 0.0):
            raise ValueError("ybar must be exactly zero at masked entries")
        if np.any(nv[~mask] != 0.0):
            raise ValueError("noise_var must be zero at masked entries")
        object.__setattr__(self, "ybar", ybar)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "noise_var", nv)

    @property
    def n(self) -> int:
        return self.ybar.shape[0]


def _line_counts(n: int, r: int) -> tuple[int, int]:
    # central and extra counts in the 120:200:320 proportions
    if r < 1:
        raise ValueError("acceleration factor must be >= 1")
    n_central = int(np.ceil(0.375 * n / r))
    n_extra = int(np.ceil(0.625 * n / r))
    if n // r < n_central or n_central < 1:
        raise ValueError(f"acceleration {r} leaves no room for the central block")
    if n_central + n_extra > n:
        raise ValueError(f"acceleration {r} keeps more lines than exist")
    return n_central, n_extra


@dataclass(frozen=True)
class PatchDropMasks:
    """Each patch of an image grid independently dropped with probability p."""

    height: int
    width: int
    patch: int
    p: float

    def __post_init__(self):
        if self.height % self.patch or self.width % self.patch:
            raise ValueError(f"patch {self.patch} does not tile {self.height}x{self.width}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("drop probability must satisfy 0 <= p < 1")

    @property
    def n(self) -> int:
        return self.height * self.width

    def sample(self, rng) -> np.ndarray:
        """Flat row-major mask, each patch dropped independently."""
        keep = rng.random((self.height // self.patch, self.width // self.patch)) >= self.p
        if self.patch > 1:
            keep = keep.repeat(self.patch, 0).repeat(self.patch, 1)
        return keep.reshape(-1)

    def keep_probabilities(self) -> np.ndarray:
        return np.full(self.n, 1.0 - self.p)


@dataclass(frozen=True)
class LineSubsampleMasks:
    """Central lines always acquired, the rest uniformly subsampled.

    Line masks are in centered ordering: the central ``ceil(0.375 * lines /
    accel)`` lines are always kept, plus a uniform sample of ``ceil(0.625 *
    lines / accel)`` of the others. The line mask is duplicated over the real
    and imaginary channel blocks of a :class:`RealDFTTransform`.
    """

    lines: int
    accel: int

    def __post_init__(self):
        _line_counts(self.lines, self.accel)  # rejects infeasible accelerations

    @property
    def n(self) -> int:
        return 2 * self.lines

    def sample(self, rng) -> np.ndarray:
        n_central, n_extra = _line_counts(self.lines, self.accel)
        start = (self.lines - n_central) // 2
        m = np.zeros(self.lines, dtype=bool)
        m[start:start + n_central] = True
        m[rng.choice(np.flatnonzero(~m), size=n_extra, replace=False)] = True
        return np.concatenate([m, m])

    def keep_probabilities(self) -> np.ndarray:
        n_central, n_extra = _line_counts(self.lines, self.accel)
        start = (self.lines - n_central) // 2
        probs = np.full(self.lines, n_extra / (self.lines - n_central))
        probs[start:start + n_central] = 1.0
        return np.concatenate([probs, probs])


@dataclass(frozen=True)
class SingleDropMasks:
    """Masks removing exactly one uniformly chosen coordinate per record."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("need at least 2 coordinates to drop one")

    @property
    def n(self) -> int:
        return self.dim

    def sample(self, rng) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        mask[rng.integers(0, self.dim)] = False
        return mask

    def keep_probabilities(self) -> np.ndarray:
        return np.full(self.dim, 1.0 - 1.0 / self.dim)


@dataclass(frozen=True)
class FixedMask:
    """Degenerate distribution: the same mask for every record."""

    mask: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def sample(self, rng) -> np.ndarray:
        return self.mask.copy()

    def keep_probabilities(self) -> np.ndarray:
        return self.mask.astype(np.float64)


@dataclass(frozen=True)
class DegradationFamily:
    """A dataset-wide measurement process: shared transform, random masks.

    All records drawn from one family share ``vt`` and ``sigma0``; each
    draws its own mask. The masks' ``E[P]`` must be entrywise positive.
    """

    vt: OrthoTransform
    masks: object  # PatchDropMasks | LineSubsampleMasks | SingleDropMasks | FixedMask
    sigma0: float

    def __post_init__(self):
        if self.masks.n != self.vt.n:
            raise ValueError(
                f"mask dimension {self.masks.n} != transform dimension {self.vt.n}"
            )
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        if np.any(self.masks.keep_probabilities() <= 0.0):
            raise ValueError("E[P] has a zero entry; masks do not cover the signal space")

    @property
    def n(self) -> int:
        return self.vt.n

    def weights(self) -> np.ndarray:
        """Balancing weights ``W = E[P]**(-1/2)`` as a diagonal vector."""
        return self.masks.keep_probabilities() ** -0.5


def corrupt(x: np.ndarray, family: DegradationFamily, rng) -> Measurement:
    """One clean signal's :class:`Measurement` under ``family``.

    The record draws its mask (``family.masks.sample(rng)``) and then ``n``
    standard normals from ``rng``: the draws ``training.precompute`` makes for
    a record. Kept entries are ``xbar + sqrt(noise_var) * noise`` with
    ``noise_var = sigma0 * sigma0``; the rest are 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("corrupt takes a single 1-D signal")
    mask = family.masks.sample(rng)
    xbar = family.vt.apply(x)
    noise = rng.standard_normal(xbar.shape)
    noise_var = mask * (family.sigma0 * family.sigma0)
    ybar = np.where(mask, xbar + np.sqrt(noise_var) * noise, 0.0)
    return Measurement(ybar=ybar, mask=mask, noise_var=noise_var)
