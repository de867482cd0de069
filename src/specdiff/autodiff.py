"""Dense-tensor computation graphs with reverse-mode and forward-mode differentiation.

Values are plain float64 numpy arrays. A :class:`Graph` is an append-only,
topologically ordered tape of primitive operations over three kinds of leaves
(inputs, parameters, constants). Running :func:`forward` records every
intermediate value; :func:`backward` then yields exact reverse-mode gradients.

Forward-mode is supported by letting every node carry an optional tangent
array alongside its value (a dual number at tensor granularity): :func:`jvp`
returns the output's value and tangent. :func:`backward` takes a seed for
each of the two, and each primitive propagates adjoints for both its value
and its tangent, which for nonlinear primitives involves their second
derivative. So a scalar ``s(f(x), J f(x) v)`` built outside the tape from the
output and its tangent is differentiated with respect to the parameters of
``f`` exactly, given ``ds/df`` and ``ds/d(Jv)`` as the two seeds.

The primitives are the ones a smooth MLP needs: ``affine``, ``add`` and the
elementwise ``nonlin``. Shape discipline is strict: ``add``'s operands match
exactly, and the bias row-broadcast inside ``affine`` is the only broadcast.
All arithmetic is deterministic: identical graphs and inputs produce
bit-identical values and gradients.

Graphs are cheap to build, so callers construct one per evaluation. A graph's
recorded state belongs to its latest forward pass; evaluate a given graph
from one thread at a time, and parallelize across independent graphs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Graph",
    "GraphStateError",
    "NonFiniteError",
    "ShapeError",
    "Var",
    "as_tensor",
    "backward",
    "forward",
    "jvp",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphStateError(RuntimeError):
    """Graph used out of order (e.g. backward before forward)."""


class NonFiniteError(ArithmeticError):
    """A non-finite intermediate appeared during evaluation."""


def as_tensor(x, shape=None) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous float64 array, optionally checking shape."""
    arr = np.asarray(x, dtype=np.float64, order="C")
    if shape is not None and arr.shape != tuple(shape):
        raise ShapeError(f"expected shape {tuple(shape)}, got {arr.shape}")
    return arr


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _nl_tanh(x):
    y = np.tanh(x)
    d1 = 1.0 - y * y
    return y, d1, -2.0 * y * d1


def _nl_softplus(x):
    s = _sigmoid(x)
    return np.logaddexp(0.0, x), s, s * (1.0 - s)


def _nl_sin(x):
    return np.sin(x), np.cos(x), -np.sin(x)


# name -> callable returning (value, first derivative, second derivative)
NONLINEARITIES = {
    "tanh": _nl_tanh,
    "softplus": _nl_softplus,
    "sin": _nl_sin,
}


class Var:
    """Handle to one node of a :class:`Graph`."""

    __slots__ = ("graph", "index", "shape")

    def __init__(self, graph: "Graph", index: int, shape: tuple):
        self.graph = graph
        self.index = index
        self.shape = shape

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.shape})"


class _Node:
    __slots__ = ("op", "a", "b", "c", "aux", "shape")

    def __init__(self, op, a, b, c, aux, shape):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.aux = aux
        self.shape = shape


class Graph:
    """Append-only tape of primitive tensor operations.

    Build leaves with :meth:`input`, :meth:`param`, :meth:`const`, compose
    with the operation methods, then mark the result with :meth:`set_output`.
    Evaluate with module-level :func:`forward` / :func:`backward` / :func:`jvp`.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._inputs: list[int] = []
        self._params: list[int] = []
        self._output: int | None = None
        self._values: list | None = None
        self._tangents: list | None = None

    # -- leaves ---------------------------------------------------------

    def input(self, shape) -> Var:
        """Placeholder leaf; value supplied at forward time."""
        return self._append("input", shape=tuple(shape))

    def param(self, value) -> Var:
        """Trainable leaf; its gradient is reported by :func:`backward`."""
        value = as_tensor(value)
        return self._append("param", aux=value, shape=value.shape)

    def const(self, value) -> Var:
        """Non-differentiable leaf."""
        value = as_tensor(value)
        return self._append("const", aux=value, shape=value.shape)

    # -- primitives -----------------------------------------------------

    def add(self, a: Var, b: Var) -> Var:
        self._check_same(a, b, "add")
        return self._append("add", a, b, shape=a.shape)

    def affine(self, x: Var, w: Var, bias: Var | None = None) -> Var:
        """``x @ w.T + bias`` for row-major batches.

        ``x`` is ``(k,)`` or ``(batch, k)``, ``w`` is ``(m, k)``, ``bias`` is
        ``(m,)``. The bias add over batch rows is the one sanctioned
        broadcast in this module.
        """
        if len(w.shape) != 2:
            raise ShapeError(f"affine weight must be 2-D, got {w.shape}")
        m, k = w.shape
        if len(x.shape) == 1:
            if x.shape[0] != k:
                raise ShapeError(f"affine input {x.shape} incompatible with weight {w.shape}")
            out = (m,)
        elif len(x.shape) == 2:
            if x.shape[1] != k:
                raise ShapeError(f"affine input {x.shape} incompatible with weight {w.shape}")
            out = (x.shape[0], m)
        else:
            raise ShapeError(f"affine input must be 1-D or 2-D, got {x.shape}")
        if bias is not None and bias.shape != (m,):
            raise ShapeError(f"affine bias must have shape ({m},), got {bias.shape}")
        return self._append("affine", x, w, bias, shape=out)

    def nonlin(self, kind: str, a: Var) -> Var:
        """Elementwise smooth nonlinearity from :data:`NONLINEARITIES`."""
        if kind not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {kind!r}")
        return self._append("nonlin", a, aux=kind, shape=a.shape)

    def set_output(self, a: Var) -> None:
        if a.graph is not self:
            raise GraphStateError("output belongs to a different graph")
        self._output = a.index

    # -- internals ------------------------------------------------------

    def _check_same(self, a: Var, b: Var, op: str) -> None:
        if a.graph is not self or b.graph is not self:
            raise GraphStateError(f"{op}: operands belong to a different graph")
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")

    def _append(self, op, a=None, b=None, c=None, aux=None, shape=()) -> Var:
        self._nodes.append(
            _Node(op, None if a is None else a.index, None if b is None else b.index,
                  None if c is None else c.index, aux, tuple(shape))
        )
        idx = len(self._nodes) - 1
        if op == "input":
            self._inputs.append(idx)
        elif op == "param":
            self._params.append(idx)
        # evaluation state is stale once the tape grows
        self._values = None
        self._tangents = None
        return Var(self, idx, tuple(shape))

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    def output_shape(self) -> tuple:
        if self._output is None:
            raise GraphStateError("graph has no output")
        return self._nodes[self._output].shape


def forward(graph: Graph, inputs: list, tangents: list | None = None) -> np.ndarray:
    """Evaluate the graph on ``inputs``, recording intermediates for backward.

    ``tangents`` optionally seeds a directional derivative per input (entries
    may be None); tangent arrays then propagate through every node alongside
    the values. Raises :class:`NonFiniteError` if any intermediate is not
    finite, and :class:`ShapeError` on input count/shape mismatch.
    """
    if graph._output is None:
        raise GraphStateError("graph has no output")
    if len(inputs) != graph.n_inputs:
        raise ShapeError(f"graph takes {graph.n_inputs} inputs, got {len(inputs)}")
    bound = [as_tensor(x, shape=graph._nodes[i].shape)
             for x, i in zip(inputs, graph._inputs)]
    seeded = [None] * graph.n_inputs
    if tangents is not None:
        if len(tangents) != graph.n_inputs:
            raise ShapeError(f"graph takes {graph.n_inputs} inputs, got {len(tangents)} tangents")
        seeded = [None if t is None else as_tensor(t, shape=graph._nodes[i].shape)
                  for t, i in zip(tangents, graph._inputs)]

    n = len(graph._nodes)
    vals: list = [None] * n
    tans: list = [None] * n
    input_pos = {node_idx: k for k, node_idx in enumerate(graph._inputs)}

    for i, node in enumerate(graph._nodes):
        op = node.op
        if op == "input":
            k = input_pos[i]
            vals[i] = bound[k]
            tans[i] = seeded[k]
            continue
        if op in ("param", "const"):
            vals[i] = node.aux
            continue

        av = vals[node.a]
        at = tans[node.a]
        if op == "add":
            bv, bt = vals[node.b], tans[node.b]
            vals[i] = av + bv
            if at is not None or bt is not None:
                tans[i] = (0.0 if at is None else at) + (0.0 if bt is None else bt)
        elif op == "affine":
            wv, wt = vals[node.b], tans[node.b]
            out = av @ wv.T
            if node.c is not None:
                out = out + vals[node.c]
            vals[i] = out
            ct = None if node.c is None else tans[node.c]
            if at is not None or wt is not None or ct is not None:
                t = 0.0
                if at is not None:
                    t = at @ wv.T
                if wt is not None:
                    t = t + av @ wt.T
                if ct is not None:
                    t = t + ct
                tans[i] = t
        elif op == "nonlin":
            y, d1, _ = NONLINEARITIES[node.aux](av)
            vals[i] = y
            if at is not None:
                tans[i] = d1 * at
        else:  # pragma: no cover
            raise AssertionError(f"unhandled op {op}")

        if not np.all(np.isfinite(vals[i])):
            raise NonFiniteError(f"non-finite value at node #{i} ({op})")

    graph._values = vals
    graph._tangents = tans
    return vals[graph._output]


def jvp(graph: Graph, inputs: list, tangent_in: np.ndarray,
        wrt: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Output value and its directional derivative along ``tangent_in`` at input ``wrt``.

    Implemented by dual propagation in a single forward sweep; the tangents
    stay recorded on the graph so a subsequent :func:`backward` can seed the
    output's tangent.
    """
    tangents: list = [None] * graph.n_inputs
    tangents[wrt] = tangent_in
    value = forward(graph, inputs, tangents=tangents)
    t = graph._tangents[graph._output]
    if t is None:
        raise GraphStateError("output has no tangent; seed at least one input")
    return value, t


def backward(graph: Graph, seed_gradient,
             seed_tangent=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact reverse-mode gradients of ``seed_gradient . output + seed_tangent . tangent``.

    ``tangent`` is the output's tangent from the latest dual forward
    (:func:`jvp`); ``seed_tangent`` requires one. Returns per-parameter and
    per-input gradients, in declaration order. The tangent seed flows back on
    the tangent stream; for nonlinear primitives its adjoint on the values uses
    their second derivative, so the gradient of a scalar that depends on the
    output's tangent is exact. Requires a prior :func:`forward` on this graph.
    """
    if graph._values is None:
        raise GraphStateError("backward before forward")
    seed = as_tensor(seed_gradient, shape=graph.output_shape())
    if seed_tangent is not None and graph._tangents[graph._output] is None:
        raise GraphStateError("seed_tangent needs a forward that carried tangents")

    vals = graph._values
    tans = graph._tangents
    n = len(graph._nodes)
    vadj: list = [None] * n  # adjoints of node values
    tadj: list = [None] * n  # adjoints of node tangents

    def acc(buf, idx, delta):
        if buf[idx] is None:
            buf[idx] = np.zeros(graph._nodes[idx].shape)
        buf[idx] += delta

    vadj[graph._output] = seed.copy()
    if seed_tangent is not None:
        tadj[graph._output] = as_tensor(seed_tangent, shape=graph.output_shape()).copy()

    for i in range(n - 1, -1, -1):
        ga = vadj[i]
        gt = tadj[i]
        if ga is None and gt is None:
            continue
        node = graph._nodes[i]
        op = node.op
        if op in ("input", "param", "const"):
            continue
        a = node.a
        b = node.b

        if op == "add":
            if ga is not None:
                acc(vadj, a, ga)
                acc(vadj, b, ga)
            if gt is not None:
                acc(tadj, a, gt)
                acc(tadj, b, gt)
        elif op == "affine":
            xv, wv = vals[a], vals[b]
            xt, wt = tans[a], tans[b]
            one_d = xv.ndim == 1

            def _wgrad(g, x):
                return np.outer(g, x) if one_d else g.T @ x

            def _bgrad(g):
                return g if one_d else g.sum(axis=0)

            if ga is not None:
                acc(vadj, a, ga @ wv)
                acc(vadj, b, _wgrad(ga, xv))
                if node.c is not None:
                    acc(vadj, node.c, _bgrad(ga))
            if gt is not None:
                if wt is not None:
                    acc(vadj, a, gt @ wt)
                if xt is not None:
                    acc(vadj, b, _wgrad(gt, xt))
                acc(tadj, a, gt @ wv)
                acc(tadj, b, _wgrad(gt, xv))
                if node.c is not None:
                    acc(tadj, node.c, _bgrad(gt))
        elif op == "nonlin":
            _, d1, d2 = NONLINEARITIES[node.aux](vals[a])
            at = tans[a]
            if ga is not None:
                acc(vadj, a, ga * d1)
            if gt is not None:
                # tangent = d1(a) * at, so d(tangent)/da needs d2
                if at is not None:
                    acc(vadj, a, gt * d2 * at)
                acc(tadj, a, gt * d1)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled op {op}")

    param_grads = [
        vadj[i] if vadj[i] is not None else np.zeros(graph._nodes[i].shape)
        for i in graph._params
    ]
    input_grads = [
        vadj[i] if vadj[i] is not None else np.zeros(graph._nodes[i].shape)
        for i in graph._inputs
    ]
    return param_grads, input_grads
