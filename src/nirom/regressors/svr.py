"""Epsilon-insensitive support vector regression, one machine per output.

The bias-free dual is solved by cyclic coordinate ascent with soft
thresholding: for beta = alpha - alpha*, minimize
0.5 beta' K beta - y' beta + eps ||beta||_1 subject to |beta_i| <= C.
Each coordinate has a closed-form clipped update, so no working-set
heuristics are needed. The ascent stops after ``MAX_PASSES`` passes, with a
warning, or at the first pass whose largest step is within ``PASS_TOL``.
On the polynomial kernels K is rank-deficient, so the dual optimum is not
unique. There, and on the Gaussian fits of convdiff, the ascent crawls, and
a capped fit stops short of the dual's KKT conditions.

The coordinate loop is scalar, so it runs on Python floats (beta, y and K's
diagonal as lists, g read with ``item``), which are the same IEEE doubles as
numpy's but far cheaper to operate on one at a time. Each step adds one
C-contiguous column of K, scaled into a preallocated buffer, to g = K beta.

The outputs share only K and the loop holds the GIL, so ``fit`` solves them
in forked processes, at most one per usable CPU, while its thread is the
process's only one (a fork while another thread is in a threaded OpenBLAS
call hangs). Fork shares K and starts in milliseconds; spawn and forkserver
re-import the package per worker (1-1.5 s a pool). Betas match the serial loop's.
Kernels: inhomogeneous polynomial (z'z + 1)^d for degrees 2 and 3, and the
Gaussian. ``kernel_matrix`` and ``kernel_gradients`` evaluate both, and
VKOGA uses their Gaussian.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
import os
import threading
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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _solve_dual(y: list, KT: np.ndarray, diag: list, eps: float, c_box: float):
    """(beta, converged) for one output; converged is False when capped at
    ``MAX_PASSES``. Row i of ``KT`` is column i of K, ``diag`` K's diagonal and
    ``y`` the targets, as floats. No I/O, logging, BLAS call or warning."""
    m = len(y)
    cols = list(KT)
    beta = [0.0] * m
    g = np.zeros(m)  # K @ beta, maintained incrementally
    scaled = np.empty(m)  # one column of K times a step
    clipped = [max(d, 1e-12) for d in diag]
    g_item, multiply, add = g.item, np.multiply, np.add
    for _ in range(MAX_PASSES):
        max_step = 0.0
        for i in range(m):
            b = beta[i]
            z = y[i] - (g_item(i) - diag[i] * b)
            # sign(z) * max(|z| - eps, 0) / diag, with np.sign's 0 at z = -0.0
            if z > 0.0:
                new = max(z - eps, 0.0) / clipped[i]
            elif z < 0.0:
                new = -max(-z - eps, 0.0) / clipped[i]
            elif z == 0.0:
                new = 0.0
            else:
                continue  # z is NaN: so is the step, which is never taken
            new = min(max(new, -c_box), c_box)
            step = new - b
            size = abs(step)
            if size > 1e-14:
                multiply(cols[i], step, scaled)
                add(g, scaled, g)
                beta[i] = new
                max_step = max(max_step, size)
        if max_step <= PASS_TOL:
            return np.array(beta), True
    return np.array(beta), False


_shared: list = []  # a worker's KT, diag, eps and c_box, from its pool's initializer


def _solve_shared(y: list):
    return _solve_dual(y, *_shared)


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
        # one m x m array per fit: the contiguous transpose replaces K
        KT = np.ascontiguousarray(kernel_matrix(U, U, spec["kernel"], spec["gamma"]).T)
        dual = (KT, KT.diagonal().tolist(), spec["epsilon"], spec["c_box"])
        targets = [y.tolist() for y in Y.T]
        workers = min(len(targets), _usable_cpus())
        if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
            with ProcessPoolExecutor(workers, get_context("fork"), _shared.extend, (dual,)) as pool:
                solved = list(pool.map(_solve_shared, targets))
        else:
            solved = [_solve_dual(y, *dual) for y in targets]
        for _, converged in solved:
            if not converged:
                warnings.warn(f"svr dual not fully converged after {MAX_PASSES} passes")
        return cls(spec, lows, highs, U, np.column_stack([beta for beta, _ in solved]))

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        return kernel_matrix(U, self.inputs_scaled, self.kernel, self.gamma) @ self.beta

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        grads = kernel_gradients(u, self.inputs_scaled, self.kernel, self.gamma)
        return self.beta.T @ grads

    @property
    def n_support(self) -> int:
        return int(np.sum(np.any(self.beta != 0.0, axis=1)))
