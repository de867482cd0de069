"""Graph evaluation, reverse-mode gradients, and dual-number JVPs."""

import numpy as np
import pytest

from specdiff.autodiff import (
    Graph,
    GraphStateError,
    NonFiniteError,
    ShapeError,
    backward,
    forward,
    jvp,
)

from helpers import central_difference, fraction_close


def identity_graph(n):
    g = Graph()
    x = g.input((n,))
    g.set_output(x)
    return g


def mlp_graph(weights, biases, x_shape, nonlin="tanh"):
    """Fully connected net over 1-D input; returns (graph, param vars order)."""
    g = Graph()
    x = g.input(x_shape)
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = g.affine(h, g.param(w), g.param(b))
        if i < len(weights) - 1:
            h = g.nonlin(nonlin, h)
    g.set_output(h)
    return g


def random_mlp(rng, sizes):
    weights = [rng.standard_normal((m, k)) / np.sqrt(k) for k, m in zip(sizes, sizes[1:])]
    biases = [rng.standard_normal(m) * 0.1 for m in sizes[1:]]
    return weights, biases


def flatten(arrs):
    return np.concatenate([a.ravel() for a in arrs])


class TestForward:
    def test_identity(self):
        g = identity_graph(4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(forward(g, [x]), x)

    def test_affine_identity(self):
        g = Graph()
        x = g.input((3,))
        y = g.affine(x, g.param(np.eye(3)), g.param(np.zeros(3)))
        g.set_output(y)
        x0 = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(forward(g, [x0]), x0, rtol=0, atol=0)

    def test_two_layer_matches_hand_evaluation(self):
        # independent straight-line evaluation of the two-layer formula
        rng = np.random.default_rng(7)
        weights, biases = random_mlp(rng, [5, 4, 3])
        g = mlp_graph(weights, biases, (5,))
        x = np.zeros(5)
        expected = weights[1] @ np.tanh(weights[0] @ x + biases[0]) + biases[1]
        np.testing.assert_allclose(forward(g, [x]), expected, rtol=0, atol=1e-15)

    def test_input_count_and_shape_checks(self):
        g = identity_graph(4)
        with pytest.raises(ShapeError):
            forward(g, [np.zeros(4), np.zeros(4)])
        with pytest.raises(ShapeError):
            forward(g, [np.zeros(5)])

    def test_build_time_shape_mismatch(self):
        g = Graph()
        a = g.input((3,))
        b = g.input((4,))
        with pytest.raises(ShapeError):
            g.add(a, b)
        with pytest.raises(ShapeError):
            g.affine(a, g.param(np.zeros((2, 4))))

    def test_non_finite_intermediate_aborts(self):
        g = Graph()
        x = g.input((2,))
        g.set_output(g.affine(x, g.const(np.diag([1e308, 1e308]))))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            forward(g, [np.array([1e308, 0.0])])

    def test_reevaluation_is_bit_identical(self):
        rng = np.random.default_rng(3)
        weights, biases = random_mlp(rng, [6, 8, 6])
        g = mlp_graph(weights, biases, (6,))
        x = rng.standard_normal(6)
        out1 = forward(g, [x]).copy()
        out2 = forward(g, [x])
        assert np.array_equal(out1, out2)


class TestBackward:
    def test_scale_by_two(self):
        g = Graph()
        x = g.input((1,))
        g.set_output(g.affine(x, g.const([[2.0]])))
        forward(g, [np.array([3.0])])
        _, (gx,) = backward(g, np.array([1.0]))
        np.testing.assert_array_equal(gx, [2.0])

    def test_backward_before_forward(self):
        g = identity_graph(2)
        with pytest.raises(GraphStateError):
            backward(g, np.zeros(2))

    def test_seed_shape_check(self):
        g = identity_graph(2)
        forward(g, [np.zeros(2)])
        with pytest.raises(ShapeError):
            backward(g, np.zeros(3))
        jvp(g, [np.zeros(2)], np.ones(2))
        with pytest.raises(ShapeError):
            backward(g, np.zeros(2), seed_tangent=np.zeros(3))

    @pytest.mark.parametrize("nonlin", ["tanh", "softplus", "sin"])
    def test_mlp_gradients_match_finite_differences(self, nonlin):
        rng = np.random.default_rng(11)
        sizes = [16, 12, 10, 1]
        weights, biases = random_mlp(rng, sizes)
        x = rng.standard_normal(16)

        def build():
            return mlp_graph(weights, biases, (16,), nonlin=nonlin)

        g = build()
        forward(g, [x])
        pgrads, (xgrad,) = backward(g, np.array([1.0]))
        flat = flatten(pgrads)

        theta0 = flatten([a for wb in zip(weights, biases) for a in wb])

        def loss_at(theta):
            ws, bs, off = [], [], 0
            for w, b in zip(weights, biases):
                ws.append(theta[off:off + w.size].reshape(w.shape))
                off += w.size
                bs.append(theta[off:off + b.size])
                off += b.size
            gg = mlp_graph(ws, bs, (16,), nonlin=nonlin)
            return float(forward(gg, [x])[0])

        fd = central_difference(loss_at, theta0, step=1e-5)
        # interleave to match declaration order (w1, b1, w2, b2, ...)
        assert fraction_close(flat, fd, rel_tol=1e-4) >= 0.99

        fd_x = central_difference(
            lambda xv: float(forward(build(), [xv])[0]), x, step=1e-5
        )
        assert fraction_close(xgrad, fd_x, rel_tol=1e-4) >= 0.99

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        weights, biases = random_mlp(rng, [8, 8, 1])
        x = rng.standard_normal(8)
        results = []
        for _ in range(2):
            g = mlp_graph(weights, biases, (8,))
            forward(g, [x])
            pg, ig = backward(g, np.array([1.0]))
            results.append((flatten(pg), ig[0].copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestJvp:
    def test_linear_map_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        g = Graph()
        x = g.input((6,))
        g.set_output(g.affine(x, g.const(a)))
        v = rng.standard_normal(6)
        value, tangent = jvp(g, [np.zeros(6)], v)
        np.testing.assert_array_equal(value, np.zeros(4))
        np.testing.assert_allclose(tangent, a @ v, rtol=1e-15, atol=0)

    def test_elementwise_tanh(self):
        g = Graph()
        x = g.input((5,))
        g.set_output(g.nonlin("tanh", x))
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(5)
        v = rng.standard_normal(5)
        value, tangent = jvp(g, [x0], v)
        np.testing.assert_array_equal(value, np.tanh(x0))
        np.testing.assert_allclose(tangent, (1.0 - np.tanh(x0) ** 2) * v,
                                   rtol=1e-15, atol=0)

    def test_mlp_jvp_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        weights, biases = random_mlp(rng, [10, 14, 6])
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        g = mlp_graph(weights, biases, (10,))
        _, got = jvp(g, [x], v)
        h = 1e-5
        g1 = mlp_graph(weights, biases, (10,))
        g2 = mlp_graph(weights, biases, (10,))
        fd = (forward(g1, [x + h * v]) - forward(g2, [x - h * v])) / (2 * h)
        assert fraction_close(got, fd, rel_tol=1e-4) == 1.0

    def test_jvp_linearity(self):
        rng = np.random.default_rng(13)
        weights, biases = random_mlp(rng, [7, 9, 5])
        x = rng.standard_normal(7)
        v1 = rng.standard_normal(7)
        v2 = rng.standard_normal(7)
        a, b = 0.37, -1.42
        g = mlp_graph(weights, biases, (7,))
        lhs = jvp(g, [x], a * v1 + b * v2)[1]
        rhs = a * jvp(g, [x], v1)[1] + b * jvp(g, [x], v2)[1]
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_seed_tangent_requires_dual_forward(self):
        g = identity_graph(3)
        forward(g, [np.zeros(3)])
        with pytest.raises(GraphStateError):
            backward(g, np.zeros(3), seed_tangent=np.ones(3))


class TestSecondOrder:
    """Gradients of ``u . Jv``, seeded on the output's tangent (what losses need)."""

    def test_grad_of_u_dot_jvp_matches_fd(self):
        rng = np.random.default_rng(21)
        sizes = [6, 10, 8, 6]
        weights, biases = random_mlp(rng, sizes)
        x = rng.standard_normal(6)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)

        g = mlp_graph(weights, biases, (6,))
        jvp(g, [x], v)
        pgrads, _ = backward(g, np.zeros(6), seed_tangent=u)
        got = flatten(pgrads)

        def scalar_at(theta):
            ws, bs, off = [], [], 0
            for w, b in zip(weights, biases):
                ws.append(theta[off:off + w.size].reshape(w.shape))
                off += w.size
                bs.append(theta[off:off + b.size])
                off += b.size
            return float(u @ jvp(mlp_graph(ws, bs, (6,)), [x], v)[1])

        theta0 = flatten([a for wb in zip(weights, biases) for a in wb])
        fd = central_difference(scalar_at, theta0, step=1e-5)
        assert fraction_close(got, fd, rel_tol=1e-3) >= 0.99

    def test_grad_through_jvp_wrt_input(self):
        # d/dx of v . J(x) v for f(x) = sum(tanh(Wx)) pieces, vs finite differences
        rng = np.random.default_rng(22)
        w = rng.standard_normal((5, 5))
        v = rng.standard_normal(5)
        x0 = rng.standard_normal(5)

        def build():
            g = Graph()
            x = g.input((5,))
            g.set_output(g.nonlin("tanh", g.affine(x, g.const(w))))
            return g

        g = build()
        jvp(g, [x0], v)
        _, (gx,) = backward(g, np.zeros(5), seed_tangent=v)

        fd = central_difference(
            lambda xv: float(v @ jvp(build(), [xv], v)[1]), x0, step=1e-6
        )
        assert fraction_close(gx, fd, rel_tol=1e-3) == 1.0

    def test_batched_rows_match_single(self):
        # batching over rows must be the same function applied per row
        rng = np.random.default_rng(23)
        weights, biases = random_mlp(rng, [4, 6, 4])
        xb = rng.standard_normal((3, 4))
        g = Graph()
        x = g.input((3, 4))
        h = g.nonlin("tanh", g.affine(x, g.param(weights[0]), g.param(biases[0])))
        h = g.affine(h, g.param(weights[1]), g.param(biases[1]))
        g.set_output(h)
        out = forward(g, [xb])
        for r in range(3):
            gr = mlp_graph(weights, biases, (4,))
            np.testing.assert_allclose(forward(gr, [xb[r]]), out[r], rtol=0, atol=1e-14)
