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
a GSURE loss) is differentiated exactly.

Both derivatives come from ``y = φ(z)``: φ' = ``1 - y y`` and φ'' =
``-2 y φ'``. They are formed only where something reads them. A value-only
forward computes φ alone and keeps ``z`` and ``y``; a dual forward also forms
φ' once, for the tangent, and keeps it. :func:`backward` reuses the kept φ'
or, after a value-only forward, forms it from ``y``; it forms φ'' only when
given a tangent seed. The formulas do not depend on where they run, so either
path gives the same bits.

The operation order is fixed, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Graph", "NonFiniteError", "ShapeError", "backward", "forward"]


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
    alongside the values; ``dout`` is the output's tangent (None without one).
    ``saved`` holds the graph and, per layer, ``(h, dh, z, φ(z), φ' or None,
    dz)``: all that :func:`backward` reads. Raises :class:`NonFiniteError` if
    any pre-activation is not finite and :class:`ShapeError` on a shape
    mismatch.
    """
    h = np.asarray(rows, dtype=np.float64)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    shape = (graph.temb.shape[0], graph._nodes[0][0].shape[1])
    if h.shape != shape or (dh is not None and dh.shape != shape):
        raise ShapeError(f"graph takes input rows of shape {shape}")
    last = len(graph._nodes) - 1
    trace = []
    for i, (w, b) in enumerate(graph._nodes):
        z = h @ w.T + b
        if i == 0:
            z = z + graph.temb @ graph.w_e.T
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite pre-activation in layer {i}")
        dz = None if dh is None else dh @ w.T
        if i == last:
            trace.append((h, dh, None, None, None, None))
            return z, dz, (graph, trace)
        y = np.tanh(z)
        d1 = None if dz is None else 1.0 - y * y
        trace.append((h, dh, z, y, d1, dz))
        h, dh = y, None if dz is None else d1 * dz


def backward(saved, seed_gradient, seed_tangent=None) -> list[np.ndarray]:
    """Exact gradients of ``seed_gradient . out + seed_tangent . dout``.

    ``saved`` comes from the :func:`forward` that gave ``out`` and ``dout``;
    ``seed_tangent`` requires a forward that carried a tangent. Returns the
    gradient of each parameter in layout order: ``W_0, W_e, b_0``, then
    ``W_i, b_i`` per layer.
    """
    graph, trace = saved
    if seed_tangent is not None and trace[0][1] is None:  # the pass had no input tangent
        raise ShapeError("seed_tangent needs a forward that carried a tangent")
    shape = (graph.temb.shape[0], graph._nodes[-1][0].shape[0])
    ga = np.asarray(seed_gradient, dtype=np.float64)
    gt = None if seed_tangent is None else np.asarray(seed_tangent, dtype=np.float64)
    if ga.shape != shape or (gt is not None and gt.shape != shape):
        raise ShapeError(f"seeds must have the output's shape {shape}")
    grads = []
    for i in range(len(graph._nodes) - 1, -1, -1):
        w, _ = graph._nodes[i]
        h, dh, z, y, d1, dz = trace[i]
        if z is not None:  # back through φ: adjoints of z and dz
            if d1 is None:  # value-only forward
                d1 = 1.0 - y * y
            if gt is None:
                ga = ga * d1
            else:
                ga, gt = ga * d1 + gt * (-2.0 * y * d1) * dz, gt * d1
        gw = ga.T @ h
        if gt is not None:
            gw = gw + gt.T @ dh
        layer = [gw, ga.T @ graph.temb] if i == 0 else [gw]
        grads[:0] = layer + [ga.sum(axis=0)]
        if i > 0:
            ga, gt = ga @ w, None if gt is None else gt @ w
    return grads
