"""The denoiser MLP's pass in closed form: value, tangent and exact gradient.

A :class:`Graph` is one evaluation of a fixed smooth MLP over a batch of rows:
a list of layers ``(W, b)``, each but the last followed by φ = tanh, and a
time-embedding block ``temb W_e^T`` added to the first layer's
pre-activation. :func:`forward` computes, per layer,

    z = (h W^T + b) [+ temb W_e^T],   h' = φ(z),
    dz = dh W^T,                       dh' = φ'(z) dz,

where the tangent stream (a dual number at tensor granularity) runs only when
an input tangent is given. :func:`backward` then returns the exact parameter
gradient of ``seed_gradient . out + seed_tangent . dout``:

    g_z = g_h φ'(z) + (g_dh φ''(z)) dz,   g_dz = g_dh φ'(z),
    g_W = g_z^T h + g_dz^T dh,            g_b = sum over rows of g_z,

passing ``g_h = g_z W`` and ``g_dh = g_dz W`` down to the layer below. So a
scalar built outside from the output and its tangent (the divergence term of
a GSURE loss) is differentiated exactly. Each gradient is written in place
into one flat vector in the parameter layout, through views that
:func:`bind` makes once per vector, so a caller that reuses its vector makes
no parameter-sized array per pass.

The tangent may carry k blocks over one primal, ``(k, rows, n)``: k
Hutchinson probes ride one pass. The values and φ' are computed once; each
tangent GEMM runs over the flattened ``k·rows`` axis, ``g_z`` sums the
blocks' second-order terms, and ``g_W``'s tangent part is one GEMM over
``k·rows``.

Both derivatives come from ``y = φ(z)``: φ' = ``1 - y y`` and φ'' =
``-2 y φ'``. They are formed only where something reads them. A value-only
forward computes φ alone and keeps ``y``, not ``z``; a dual forward also
forms φ' once, for the tangent, and keeps it. :func:`backward` reuses the
kept φ' or, after a value-only forward, forms it from ``y``; it forms φ''
only when given a tangent seed. The formulas do not depend on where they
run, so either path gives the same bits.

Every pre-activation is checked for finiteness; the output alone would not
do, since φ maps an infinite pre-activation to ±1. The layers' pre-activations
are tested together, by one ``isfinite`` over them joined, until they exceed
:data:`CHECK_ENTRIES` entries. So a one-row or few-row value pass, where a
call per layer would be a large share of the time, makes one check after its
last layer, and a large pass checks each layer as it is computed, joining and
holding nothing. A dual pass checks each layer before its tangent GEMM.

The operation order is fixed, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Bound", "Graph", "NonFiniteError", "ShapeError", "backward", "bind",
           "forward"]

# Pre-activation entries a pass may leave unchecked before testing them in one
# call. Up to ~16k entries, one call over the layers joined costs less than a
# call per layer (one thread); a joined copy holds at most this many entries
# plus one layer's.
CHECK_ENTRIES = 1 << 12


class ShapeError(ValueError):
    """Input or seed shapes do not match the graph or the pass."""


class NonFiniteError(ArithmeticError):
    """A non-finite pre-activation appeared during evaluation."""


class Graph:
    """One MLP evaluation: layers ``[(W, b)]`` and embedding rows ``temb`` with
    the first layer's block ``w_e``."""

    def __init__(self, layers, temb, w_e):
        self._nodes = list(layers)
        self.temb = temb
        self.w_e = w_e


def forward(graph: Graph, rows, tangent=None):
    """Evaluate the graph on ``rows``: ``(out, dout, saved)``.

    An input ``tangent`` seeds a directional derivative, which propagates
    alongside the values; ``dout`` is the output's tangent (None without one),
    shaped like ``tangent``: ``(rows, n)``, or ``(k, rows, n)`` for k blocks
    over the one primal.
    ``saved`` holds the graph and, per layer, ``(h, dh, φ(z), φ' or None,
    dz)``, with φ(z) None on the linear last layer: all that :func:`backward`
    reads. Raises :class:`ShapeError` on a shape mismatch, and
    :class:`NonFiniteError` naming the first layer whose pre-activation is not
    finite. A value pass checks its layers in groups of up to
    :data:`CHECK_ENTRIES` entries, so the layers after a bad one in its group
    still run before the error.
    """
    h = np.asarray(rows, dtype=np.float64)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    nodes = graph._nodes
    shape = (graph.temb.shape[0], nodes[0][0].shape[1])
    if h.shape != shape or (dh is not None
                            and dh.shape not in (shape, dh.shape[:1] + shape)):
        raise ShapeError(f"graph takes rows of shape {shape}, and tangents of that "
                         f"shape or of (k, *{shape})")
    trace, last = [], len(nodes) - 1
    pending, size = [], 0  # unchecked pre-activations, and their entry count
    for i, (w, b) in enumerate(nodes):
        z = h @ w.T
        z += b
        if i == 0:
            z += graph.temb @ graph.w_e.T
        pending.append(z)
        size += z.size
        # a dual pass checks each layer before its tangent meets φ' = 0 (0·inf)
        if i == last or dh is not None or size > CHECK_ENTRIES:
            _check_finite(pending, i)
            pending, size = [], 0
        dz = None if dh is None else _tangent_gemm(dh, w.T)
        if i == last:
            trace.append((h, dh, None, None, None))
            return z, dz, (graph, trace)
        y = np.tanh(z)
        d1 = None if dz is None else 1.0 - y * y
        trace.append((h, dh, y, d1, dz))
        h, dh = y, None if dz is None else d1 * dz


def _check_finite(zs: list, last: int) -> None:
    """Raise :class:`NonFiniteError` naming the first non-finite of the
    ``(rows, width)`` pre-activations ``zs`` of layers ``last - len(zs) + 1``
    to ``last``, all tested by one ``isfinite`` over them joined."""
    flags = np.isfinite(zs[0] if len(zs) == 1 else np.concatenate(zs, axis=1))
    if np.count_nonzero(flags) < flags.size:
        for i, z in enumerate(zs, last + 1 - len(zs)):
            if not np.isfinite(z).all():
                raise NonFiniteError(f"non-finite pre-activation in layer {i}")


def _flat(a: np.ndarray) -> np.ndarray:
    """Tangent blocks as one ``(k·rows, width)`` matrix."""
    return a.reshape(-1, a.shape[-1])


def _tangent_gemm(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` for tangent blocks as one GEMM over ``k·rows``, blocks kept.

    A batched 3-D ``@`` runs k small GEMMs, which is slower.
    """
    return (_flat(a) @ m).reshape(a.shape[:-1] + m.shape[-1:])


class Bound(NamedTuple):
    """A flat vector and its views in the parameter layout (:func:`bind`)."""

    flat: np.ndarray
    views: list      # in layout order
    layers: list     # [(W, b)] per layer
    w_e: np.ndarray  # the first layer's embedding block


def bind(flat: np.ndarray, shapes) -> Bound:
    """The flat vector ``flat`` bound to views of it shaped ``shapes``, in
    layout order ``W_0, W_e, b_0``, then ``W_i, b_i`` per layer.

    A caller that reuses one vector binds it once and pays no per-pass cost
    for its views. Raises :class:`ShapeError` unless ``flat`` is a contiguous
    float64 vector that the shapes cover exactly.
    """
    sizes = [math.prod(shape) for shape in shapes]
    if (flat.dtype != np.float64 or not flat.flags.c_contiguous
            or flat.shape != (sum(sizes),)):
        raise ShapeError(f"the layout binds a contiguous float64 vector of "
                         f"{sum(sizes)} entries, not {flat.dtype} {flat.shape}")
    views, lo = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[lo:lo + size].reshape(shape))
        lo += size
    w0, w_e, b0, *rest = views
    return Bound(flat, views, [(w0, b0), *zip(rest[::2], rest[1::2])], w_e)


def _layout(graph: Graph) -> list[tuple]:
    """The shapes of the graph's parameters in layout order."""
    (w0, b0), *rest = graph._nodes
    return [w0.shape, graph.w_e.shape, b0.shape,
            *(a.shape for layer in rest for a in layer)]


def backward(saved, seed_gradient, seed_tangent=None,
             out: Bound | None = None) -> list[np.ndarray]:
    """Exact gradients of ``seed_gradient . out + seed_tangent . dout``.

    ``saved`` comes from the :func:`forward` that gave ``out`` and ``dout``;
    ``seed_tangent`` requires a forward that carried a tangent and is shaped
    like ``dout``; over k blocks, the gradient is that of the sum over blocks.
    Every gradient is written into one flat vector in layout order, the
    caller's (``out``, bound by :func:`bind`) or a new one. Returns its views
    per parameter in that order: ``W_0, W_e, b_0``, then ``W_i, b_i`` per
    layer. A tangent seed's part of each ``g_W`` is formed in one scratch
    array shared by the layers.
    """
    graph, trace = saved
    if seed_tangent is not None and trace[0][1] is None:  # the pass had no input tangent
        raise ShapeError("seed_tangent needs a forward that carried a tangent")
    shape = (graph.temb.shape[0], graph._nodes[-1][0].shape[0])
    ga = np.asarray(seed_gradient, dtype=np.float64)
    gt = None if seed_tangent is None else np.asarray(seed_tangent, dtype=np.float64)
    if ga.shape != shape or (gt is not None
                             and gt.shape != trace[0][1].shape[:-1] + shape[1:]):
        raise ShapeError(f"seeds must have the output's shape {shape}, the tangent "
                         "seed in the forward's tangent blocks")
    if out is None:
        layout = _layout(graph)
        out = bind(np.empty(sum(map(math.prod, layout))), layout)
    scratch = None if gt is None else np.empty(max(w.size for w, _ in graph._nodes))
    for i in range(len(graph._nodes) - 1, -1, -1):
        w, _ = graph._nodes[i]
        gw, gb = out.layers[i]
        h, dh, y, d1, dz = trace[i]
        if y is not None:  # back through φ: adjoints of z and dz
            if d1 is None:  # value-only forward
                d1 = 1.0 - y * y
            if gt is None:
                ga = ga * d1
            else:
                # the tangent blocks' second-order terms sum onto the one primal;
                # the block count is explicit, as -1 is ambiguous at 0 rows
                blocks = gt.shape[0] if gt.ndim == 3 else 1
                second = (gt * (-2.0 * y * d1) * dz).reshape((blocks,) + ga.shape)
                ga, gt = ga * d1 + second.sum(axis=0), gt * d1
        np.matmul(ga.T, h, out=gw)
        if gt is not None:
            tangent_part = scratch[:gw.size].reshape(gw.shape)
            gw += np.matmul(_flat(gt).T, _flat(dh), out=tangent_part)
        if i == 0:
            np.matmul(ga.T, graph.temb, out=out.w_e)
        ga.sum(axis=0, out=gb)
        if i > 0:
            ga, gt = ga @ w, None if gt is None else _tangent_gemm(gt, w)
    return out.views
