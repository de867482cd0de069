"""Fixture denoisers implementing the model protocol used by the losses."""

import numpy as np


class LinearModel:
    """Affine, timestep-independent denoiser ``f(x) = x @ A.T + b``."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.n = self.a.shape[0]

    def evaluate(self, rows, t, schedule, tangent=None, ema=False):
        """``(x0, dx0, grad)`` in closed form; the flat layout is ``(A, b)``."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        dx0 = None
        if tangent is not None:
            tangent = np.asarray(tangent, dtype=np.float64)
            dx0 = tangent @ self.a.T

        def grad(g_x0, g_dx0=None):
            g_a = g_x0.T @ rows
            if g_dx0 is not None:
                # tangent blocks (k, rows, n) flatten to k * rows rows
                g_a = g_a + g_dx0.reshape(-1, self.n).T @ tangent.reshape(-1, self.n)
            return np.concatenate([g_a.ravel(), g_x0.sum(axis=0)])

        return rows @ self.a.T + self.b, dx0, grad

    def denoise(self, xbar_t, t, schedule, ema=False):
        xbar_t = np.asarray(xbar_t, dtype=np.float64)
        x0 = self.evaluate(xbar_t, t, schedule)[0]
        return x0[0] if xbar_t.ndim == 1 else x0

    def exact_divergence(self, mask, w):
        """trace(P W^2 A) for this fixed linear map."""
        return float(np.sum(np.asarray(mask, float) * np.asarray(w) ** 2
                            * np.diag(self.a)))


class ConstantModel(LinearModel):
    """Denoiser that ignores its input: ``f(x) = c``."""

    def __init__(self, c):
        c = np.asarray(c, dtype=np.float64)
        super().__init__(np.zeros((c.shape[0], c.shape[0])), c)
