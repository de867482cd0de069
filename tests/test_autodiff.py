"""The closed-form MLP pass: evaluation, reverse-mode gradients and dual-number JVPs."""

import numpy as np
import pytest

from specdiff.autodiff import Graph, NonFiniteError, ShapeError, backward, forward

from helpers import central_difference, fraction_close

def build(params, temb):
    """Graph from parameters in layout order: ``W_0, W_e, b_0, W_1, b_1, ...``."""
    w0, w_e, b0, *rest = params
    return Graph([(w0, b0)] + list(zip(rest[::2], rest[1::2])), temb, w_e)


def random_net(rng, sizes, batch=1, emb=4):
    """Random parameters in layout order for layer widths ``sizes``, plus ``temb``."""
    weights = [rng.standard_normal((m, k)) / np.sqrt(k) for k, m in zip(sizes, sizes[1:])]
    biases = [rng.standard_normal(m) * 0.1 for m in sizes[1:]]
    w_e = rng.standard_normal((sizes[1], emb)) / np.sqrt(emb)
    params = [weights[0], w_e, biases[0]]
    for w, b in zip(weights[1:], biases[1:]):
        params += [w, b]
    return params, rng.standard_normal((batch, emb))


def flatten(arrs):
    return np.concatenate([a.ravel() for a in arrs])


def unflatten(theta, like):
    out, off = [], 0
    for a in like:
        out.append(theta[off:off + a.size].reshape(a.shape))
        off += a.size
    return out


def one_layer(w):
    """A single affine layer, no bias, with a zero embedding block, on one row."""
    m, _ = w.shape
    return Graph([(w, np.zeros(m))], np.ones((1, 2)), np.zeros((m, 2)))


class TestForward:
    def test_affine_identity(self):
        x0 = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_array_equal(forward(one_layer(np.eye(3)), x0)[0], x0)

    def test_two_layer_matches_hand_evaluation(self):
        # independent straight-line evaluation of the two-layer formula
        rng = np.random.default_rng(7)
        (w0, w_e, b0, w1, b1), temb = random_net(rng, [5, 4, 3], batch=2)
        x = rng.standard_normal((2, 5))
        expected = np.stack([
            w1 @ np.tanh(w0 @ x[r] + w_e @ temb[r] + b0) + b1 for r in range(2)])
        got = forward(build([w0, w_e, b0, w1, b1], temb), x)[0]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_input_count_and_shape_checks(self):
        rng = np.random.default_rng(1)
        params, temb = random_net(rng, [4, 3, 2], batch=2)
        g = build(params, temb)
        with pytest.raises(ShapeError):  # two stacked inputs are not one batch
            forward(g, [np.zeros((2, 4)), np.zeros((2, 4))])
        with pytest.raises(ShapeError):
            forward(g, np.zeros((2, 5)))
        with pytest.raises(ShapeError):  # one row per embedding row
            forward(g, np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            forward(g, np.zeros((2, 4)), np.zeros((2, 5)))

    def test_non_finite_intermediate_aborts(self):
        g = one_layer(np.diag([1e308, 1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            forward(g, np.array([[1e308, 0.0]]))

    def test_infinite_pre_activation_squashed_by_tanh_aborts(self):
        # tanh maps the infinite inner pre-activation to 1, so the output alone
        # would look finite; the pass checks every pre-activation
        w0 = np.diag([1e308, 1e308])
        g = Graph([(w0, np.zeros(2)), (np.eye(2), np.zeros(2))], np.ones((1, 2)),
                  np.zeros((2, 2)))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 0"):
            forward(g, np.array([[1e308, 0.0]]))

    def test_reevaluation_is_bit_identical(self):
        rng = np.random.default_rng(3)
        params, temb = random_net(rng, [6, 8, 6], batch=3)
        g = build(params, temb)
        x = rng.standard_normal((3, 6))
        out1 = forward(g, x)[0].copy()
        out2 = forward(g, x)[0]
        assert np.array_equal(out1, out2)


class TestBackward:
    def test_scale_by_two(self):
        # y = 2 x + 0.5 + 1.5 w_e at x = 3: dy/dW = x, dy/dw_e = temb, dy/db = 1
        g = Graph([(np.array([[2.0]]), np.array([0.5]))], np.array([[1.5]]),
                  np.array([[0.0]]))
        out, dout, saved = forward(g, np.array([[3.0]]))
        np.testing.assert_array_equal(out, [[6.5]])
        assert dout is None  # no input tangent, no output tangent
        gw, gw_e, gb = backward(saved, np.array([[1.0]]))
        np.testing.assert_array_equal(gw, [[3.0]])
        np.testing.assert_array_equal(gw_e, [[1.5]])
        np.testing.assert_array_equal(gb, [1.0])

    def test_seed_shape_check(self):
        g = one_layer(np.eye(2))
        saved = forward(g, np.zeros((1, 2)))[2]
        with pytest.raises(ShapeError):
            backward(saved, np.zeros((1, 3)))
        saved = forward(g, np.zeros((1, 2)), np.ones((1, 2)))[2]
        with pytest.raises(ShapeError):
            backward(saved, np.zeros((1, 2)), seed_tangent=np.zeros((1, 3)))

    def test_mlp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params, temb = random_net(rng, [16, 12, 10, 3], batch=2)
        x = rng.standard_normal((2, 16))
        c = rng.standard_normal((2, 3))

        saved = forward(build(params, temb), x)[2]
        got = flatten(backward(saved, c))

        def loss_at(theta):
            return float(np.sum(c * forward(build(unflatten(theta, params), temb), x)[0]))

        fd = central_difference(loss_at, flatten(params), step=1e-5)
        assert fraction_close(got, fd, rel_tol=1e-4) >= 0.99

    def test_gradients_with_tangent_seed_match_finite_differences(self):
        # both seeds at once: d/dtheta of c . f(x) + u . J f(x) v
        rng = np.random.default_rng(12)
        params, temb = random_net(rng, [6, 10, 8, 6], batch=2)
        x, v, c, u = (rng.standard_normal((2, 6)) for _ in range(4))

        saved = forward(build(params, temb), x, v)[2]
        got = flatten(backward(saved, c, seed_tangent=u))

        def scalar_at(theta):
            value, tangent, _ = forward(build(unflatten(theta, params), temb), x, v)
            return float(np.sum(c * value) + np.sum(u * tangent))

        fd = central_difference(scalar_at, flatten(params), step=1e-5)
        assert fraction_close(got, fd, rel_tol=1e-3) >= 0.99

    def test_determinism_bit_identical(self):
        # passes over one graph are independent: a value-only pass, its
        # repeat, and a dual pass whose tangent goes unseeded give backward
        # the same bits, whichever order the gradients are taken in and
        # whatever pass ran in between
        rng = np.random.default_rng(5)
        params, temb = random_net(rng, [8, 8, 8, 1], batch=2)
        x, v = rng.standard_normal((2, 2, 8))
        g = build(params, temb)
        saved = [forward(g, x)[2], forward(g, x)[2], forward(g, x, v)[2]]
        forward(g, -x, v)
        results = [flatten(backward(s, np.ones((2, 1)))) for s in reversed(saved)]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])
        fresh = forward(build(params, temb), x, v)[2]
        np.testing.assert_array_equal(
            flatten(backward(saved[2], np.ones((2, 1)), np.ones((2, 1)))),
            flatten(backward(fresh, np.ones((2, 1)), np.ones((2, 1)))))


class TestJvp:
    def test_linear_map_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        v = rng.standard_normal((1, 6))
        value, tangent, _ = forward(one_layer(a), np.zeros((1, 6)), v)
        np.testing.assert_array_equal(value, np.zeros((1, 4)))
        np.testing.assert_allclose(tangent[0], a @ v[0], rtol=1e-15, atol=0)

    def test_elementwise_tanh(self):
        # identity layers around the nonlinearity leave tanh and its derivative
        eye, zero = np.eye(5), np.zeros(5)
        g = Graph([(eye, zero), (eye, zero)], np.ones((1, 2)), np.zeros((5, 2)))
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 5))
        value, tangent, _ = forward(g, x0, v)
        np.testing.assert_array_equal(value, np.tanh(x0))
        np.testing.assert_allclose(tangent, (1.0 - np.tanh(x0) ** 2) * v,
                                   rtol=1e-15, atol=0)

    def test_mlp_jvp_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        params, temb = random_net(rng, [10, 14, 6], batch=2)
        x = rng.standard_normal((2, 10))
        v = rng.standard_normal((2, 10))
        got = forward(build(params, temb), x, v)[1]
        h = 1e-5
        fd = (forward(build(params, temb), x + h * v)[0]
              - forward(build(params, temb), x - h * v)[0]) / (2 * h)
        assert fraction_close(got, fd, rel_tol=1e-4) == 1.0

    def test_jvp_linearity(self):
        rng = np.random.default_rng(13)
        params, temb = random_net(rng, [7, 9, 5])
        x = rng.standard_normal((1, 7))
        v1 = rng.standard_normal((1, 7))
        v2 = rng.standard_normal((1, 7))
        a, b = 0.37, -1.42
        g = build(params, temb)
        lhs = forward(g, x, a * v1 + b * v2)[1]
        rhs = a * forward(g, x, v1)[1] + b * forward(g, x, v2)[1]
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_seed_tangent_requires_dual_forward(self):
        saved = forward(one_layer(np.eye(3)), np.zeros((1, 3)))[2]
        with pytest.raises(ShapeError, match="carried a tangent"):
            backward(saved, np.zeros((1, 3)), seed_tangent=np.ones((1, 3)))


class TestSecondOrder:
    """Gradients of ``u . Jv``, seeded on the output's tangent (what losses need)."""

    def test_grad_of_u_dot_jvp_matches_fd(self):
        rng = np.random.default_rng(21)
        params, temb = random_net(rng, [6, 10, 8, 6])
        x = rng.standard_normal((1, 6))
        u = rng.standard_normal((1, 6))
        v = rng.standard_normal((1, 6))

        saved = forward(build(params, temb), x, v)[2]
        got = flatten(backward(saved, np.zeros((1, 6)), seed_tangent=u))

        def scalar_at(theta):
            return float(np.sum(u * forward(build(unflatten(theta, params), temb), x, v)[1]))

        fd = central_difference(scalar_at, flatten(params), step=1e-5)
        assert fraction_close(got, fd, rel_tol=1e-3) >= 0.99

    def test_batched_rows_match_single(self):
        # batching over rows must be the same function applied per row
        rng = np.random.default_rng(23)
        params, temb = random_net(rng, [4, 6, 4], batch=3)
        xb = rng.standard_normal((3, 4))
        out = forward(build(params, temb), xb)[0]
        for r in range(3):
            row = forward(build(params, temb[r:r + 1]), xb[r:r + 1])[0]
            np.testing.assert_allclose(row[0], out[r], rtol=0, atol=1e-14)
