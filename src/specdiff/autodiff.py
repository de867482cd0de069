"""The denoiser MLP's pass in closed form: value, tangent and exact gradient.

A :class:`Graph` is one evaluation of a fixed smooth MLP over a batch of rows:
a list of layers ``(W, b)``, each but the last followed by an elementwise
nonlinearity φ, and a time-embedding block ``temb W_e^T`` added to the first
layer's pre-activation. :func:`forward` computes, per layer,

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

The operation order is fixed, so identical inputs give bit-identical results.
A graph records its latest forward pass; use a given graph from one thread.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Graph", "GraphStateError", "NonFiniteError", "ShapeError", "backward",
           "forward", "jvp"]


class ShapeError(ValueError):
    """Input or seed shapes do not match the graph."""


class GraphStateError(RuntimeError):
    """Graph used out of order (e.g. backward before forward)."""


class NonFiniteError(ArithmeticError):
    """A non-finite pre-activation appeared during evaluation."""


def _nl_tanh(x):
    y = np.tanh(x)
    d1 = 1.0 - y * y
    return y, d1, -2.0 * y * d1


def _nl_softplus(x):
    ex = np.exp(-np.abs(x))  # the logistic σ = φ', without overflow either side
    s = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return np.logaddexp(0.0, x), s, s * (1.0 - s)


def _nl_sin(x):
    return np.sin(x), np.cos(x), -np.sin(x)


# name -> callable returning (value, first derivative, second derivative)
NONLINEARITIES = {"tanh": _nl_tanh, "softplus": _nl_softplus, "sin": _nl_sin}


class Graph:
    """One MLP evaluation: layers ``[(W, b)]``, embedding rows ``temb`` with the
    first layer's block ``w_e``, and a nonlinearity from :data:`NONLINEARITIES`."""

    def __init__(self, layers, temb, w_e, nonlin: str = "tanh"):
        self._nodes = list(layers)
        self.temb = temb
        self.w_e = w_e
        self.nonlin = nonlin
        self._trace = None  # per layer (h, dh, φ', φ'', dz) of the latest forward
        self._tangent = None  # output tangent of the latest forward


def forward(graph: Graph, inputs: list, tangents: list | None = None) -> np.ndarray:
    """Evaluate the graph on ``inputs = [rows]``, recording what backward needs.

    ``tangents = [dx]`` optionally seeds a directional derivative, which then
    propagates alongside the values. Raises :class:`NonFiniteError` if any
    pre-activation is not finite and :class:`ShapeError` on a shape mismatch.
    """
    (h,) = inputs
    h = np.asarray(h, dtype=np.float64)
    dh = None if tangents is None else np.asarray(tangents[0], dtype=np.float64)
    shape = (graph.temb.shape[0], graph._nodes[0][0].shape[1])
    if h.shape != shape or (dh is not None and dh.shape != shape):
        raise ShapeError(f"graph takes input rows of shape {shape}")
    phi = NONLINEARITIES[graph.nonlin]
    trace = []
    for i, (w, b) in enumerate(graph._nodes):
        z = h @ w.T + b
        if i == 0:
            z = z + graph.temb @ graph.w_e.T
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"non-finite pre-activation in layer {i}")
        dz = None if dh is None else dh @ w.T
        if i == len(graph._nodes) - 1:
            trace.append((h, dh, None, None, None))
            h, dh = z, dz
            break
        y, d1, d2 = phi(z)
        trace.append((h, dh, d1, d2, dz))
        h, dh = y, None if dz is None else d1 * dz
    graph._trace, graph._tangent = trace, dh
    return h


def jvp(graph: Graph, inputs: list, tangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output value and its directional derivative along the input ``tangent``."""
    return forward(graph, inputs, [tangent]), graph._tangent


def backward(graph: Graph, seed_gradient, seed_tangent=None) -> list[np.ndarray]:
    """Exact gradients of ``seed_gradient . output + seed_tangent . tangent``.

    ``tangent`` is the output's tangent from the latest dual forward
    (:func:`jvp`); ``seed_tangent`` requires one. Returns the gradient of each
    parameter in layout order: ``W_0, W_e, b_0``, then ``W_i, b_i`` per layer.
    """
    if graph._trace is None:
        raise GraphStateError("backward before forward")
    if seed_tangent is not None and graph._tangent is None:
        raise GraphStateError("seed_tangent needs a forward that carried tangents")
    shape = (graph.temb.shape[0], graph._nodes[-1][0].shape[0])
    ga = np.asarray(seed_gradient, dtype=np.float64)
    gt = None if seed_tangent is None else np.asarray(seed_tangent, dtype=np.float64)
    if ga.shape != shape or (gt is not None and gt.shape != shape):
        raise ShapeError(f"seeds must have the output's shape {shape}")
    grads = []
    for i in range(len(graph._nodes) - 1, -1, -1):
        w, _ = graph._nodes[i]
        h, dh, d1, d2, dz = graph._trace[i]
        if d1 is not None:  # back through φ: adjoints of z and dz
            if gt is None:
                ga = ga * d1
            else:
                ga, gt = ga * d1 + gt * d2 * dz, gt * d1
        gw = ga.T @ h
        if gt is not None:
            gw = gw + gt.T @ dh
        layer = [gw, ga.T @ graph.temb] if i == 0 else [gw]
        grads[:0] = layer + [ga.sum(axis=0)]
        if i > 0:
            ga, gt = ga @ w, None if gt is None else gt @ w
    return grads
