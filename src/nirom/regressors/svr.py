"""Epsilon-insensitive support vector regression, one machine per output.

The bias-free dual is solved by cyclic coordinate ascent with soft
thresholding: for beta = alpha - alpha*, minimize
0.5 beta' K beta - y' beta + eps ||beta||_1 subject to |beta_i| <= C.
Each coordinate has a closed-form clipped update, so no working-set
heuristics are needed. Kernels: inhomogeneous polynomial (z'z + 1)^d for
degrees 2 and 3, and the Gaussian. ``kernel_matrix`` and
``kernel_gradients`` evaluate both, and VKOGA uses their Gaussian.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial.distance import cdist

from .base import FittedRegressor, RegressorSpec

MAX_PASSES = 400
PASS_TOL = 1e-8
POLY_DEGREE = {"poly2": 2, "poly3": 3}


def kernel_matrix(A, B, kernel: str, gamma: float) -> np.ndarray:
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if kernel == "rbf":
        return np.exp(-gamma * cdist(A, B, "sqeuclidean"))
    return (A @ B.T + 1.0) ** POLY_DEGREE[kernel]


def kernel_gradients(u, centers, kernel: str, gamma: float) -> np.ndarray:
    """Row i: the gradient in u of k(u, c_i), the Gaussian exp(-gamma |u - c_i|^2)
    or the polynomial (u'c_i + 1)^d, for one point u against every center."""
    if kernel == "rbf":
        diffs = u[None, :] - centers
        kv = np.exp(-gamma * np.sum(diffs**2, axis=1))
        return (-2.0 * gamma) * kv[:, None] * diffs
    deg = POLY_DEGREE[kernel]
    return deg * ((centers @ u + 1.0) ** (deg - 1))[:, None] * centers


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
        self.kernel, self.gamma = spec["kernel"], spec["gamma"]

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "SVRRegressor":
        K = kernel_matrix(U, U, spec["kernel"], spec["gamma"])
        eps, c_box = spec["epsilon"], spec["c_box"]
        beta = np.column_stack(
            [_solve_dual(K, Y[:, i], eps, c_box) for i in range(Y.shape[1])]
        )
        return cls(spec, lows, highs, U, beta)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        return kernel_matrix(U, self.inputs_scaled, self.kernel, self.gamma) @ self.beta

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        grads = kernel_gradients(u, self.inputs_scaled, self.kernel, self.gamma)
        return self.beta.T @ grads

    @property
    def n_support(self) -> int:
        return int(np.sum(np.any(self.beta != 0.0, axis=1)))
