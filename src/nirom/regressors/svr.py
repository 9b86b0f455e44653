"""Epsilon-insensitive support vector regression, one machine per output.

The bias-free dual is solved by cyclic coordinate ascent with soft
thresholding: for beta = alpha - alpha*, minimize
0.5 beta' K beta - y' beta + eps ||beta||_1 subject to |beta_i| <= C.
Each coordinate has a closed-form clipped update, so no working-set
heuristics are needed. Kernels: inhomogeneous polynomial (z'z + 1)^d for
degrees 2 and 3, and the Gaussian.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial.distance import cdist

from .base import FittedRegressor, RegressorSpec, scale_to_box

MAX_PASSES = 400
PASS_TOL = 1e-8


def kernel_matrix(A, B, kernel: str, gamma: float) -> np.ndarray:
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if kernel == "rbf":
        return np.exp(-gamma * cdist(A, B, "sqeuclidean"))
    deg = {"poly2": 2, "poly3": 3}[kernel]
    return (A @ B.T + 1.0) ** deg


def rbf_gradients(u: np.ndarray, centers: np.ndarray, gamma: float) -> np.ndarray:
    """Row i: the gradient in u of the Gaussian kernel exp(-gamma |u - c_i|^2)."""
    diffs = u[None, :] - centers
    kv = np.exp(-gamma * np.sum(diffs**2, axis=1))
    return (-2.0 * gamma) * kv[:, None] * diffs


def _solve_dual(K: np.ndarray, y: np.ndarray, eps: float, c_box: float) -> np.ndarray:
    m = y.size
    beta = np.zeros(m)
    g = np.zeros(m)  # K @ beta, maintained incrementally
    diag = np.maximum(K.diagonal(), 1e-12)
    for _ in range(MAX_PASSES):
        max_step = 0.0
        for i in range(m):
            z = y[i] - (g[i] - K[i, i] * beta[i])
            new = np.sign(z) * max(abs(z) - eps, 0.0) / diag[i]
            new = min(max(new, -c_box), c_box)
            step = new - beta[i]
            if abs(step) > 1e-14:
                g += K[:, i] * step
                beta[i] = new
                max_step = max(max_step, abs(step))
        if max_step <= PASS_TOL:
            return beta
    warnings.warn(f"svr dual not fully converged after {MAX_PASSES} passes")
    return beta


class SVRRegressor(FittedRegressor):
    differentiable = True
    _saved = (("inputs_scaled", True), ("beta", True))

    def __init__(self, spec, lows, highs, inputs_scaled, beta):
        super().__init__(spec, lows, highs, beta.shape[1])
        self.inputs_scaled = inputs_scaled
        self.beta = beta
        self.kernel = str(spec["kernel"])
        self.gamma = float(spec["gamma"])

    @classmethod
    def fit(cls, spec: RegressorSpec, X, Y, lows, highs) -> "SVRRegressor":
        U = scale_to_box(X, lows, highs)
        Y = np.asarray(Y, dtype=float)
        K = kernel_matrix(U, U, str(spec["kernel"]), float(spec["gamma"]))
        eps = float(spec["epsilon"])
        c_box = float(spec["c_box"])
        beta = np.column_stack(
            [_solve_dual(K, Y[:, i], eps, c_box) for i in range(Y.shape[1])]
        )
        return cls(spec, lows, highs, U, beta)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        return kernel_matrix(U, self.inputs_scaled, self.kernel, self.gamma) @ self.beta

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        if self.kernel == "rbf":
            grads = rbf_gradients(u, self.inputs_scaled, self.gamma)
        else:
            deg = {"poly2": 2, "poly3": 3}[self.kernel]
            base = self.inputs_scaled @ u + 1.0
            grads = deg * (base ** (deg - 1))[:, None] * self.inputs_scaled
        return self.beta.T @ grads

    @property
    def n_support(self) -> int:
        return int(np.sum(np.any(self.beta != 0.0, axis=1)))
