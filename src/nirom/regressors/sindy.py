"""Sparse polynomial regression of the reduced dynamics.

Library columns are {1, z_k, z_k z_l (k <= l)} over box-scaled inputs, up
to the configured degree. Each output component gets its own coefficient
vector, sparsified by sequential threshold least squares: solve, zero
every coefficient below the threshold, re-solve on the survivors, repeat
until the support is stable.
"""

from __future__ import annotations

import functools
from typing import List, Tuple
import warnings

import numpy as np

from .base import FittedRegressor, RegressorSpec

STLS_MAX_ITER = 20
RIDGE = 1e-10


def library_terms(dim: int, degree: int) -> List[Tuple[int, ...]]:
    """Monomial index tuples: () constant, (k,) linear, (k, l) quadratic."""
    terms: List[Tuple[int, ...]] = [()]
    terms += [(k,) for k in range(dim)]
    if degree >= 2:
        terms += [(k, l) for k in range(dim) for l in range(k, dim)]
    return terms


@functools.cache
def _pairs(dim: int):
    """(k, l) factors of the quadratic block in library order, k <= l. Cached:
    one np.triu_indices call costs more than a whole one-row predict."""
    return np.triu_indices(dim)


def eval_library(U: np.ndarray, terms) -> np.ndarray:
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, dim = U.shape
    out = np.empty((m, len(terms)))
    out[:, 0] = 1.0
    out[:, 1 : 1 + dim] = U
    if len(terms) > 1 + dim:
        ks, ls = _pairs(dim)
        out[:, 1 + dim :] = U[:, ks] * U[:, ls]
    return out


def library_gradient(u: np.ndarray, terms) -> np.ndarray:
    """d(library)/du at one point, shape (len(terms), dim)."""
    u = np.asarray(u, dtype=float)
    dim = u.size
    grad = np.zeros((len(terms), dim))
    grad[1 : 1 + dim] = np.eye(dim)
    if len(terms) > 1 + dim:
        ks, ls = _pairs(dim)
        rows = np.arange(1 + dim, len(terms))
        # off-diagonal pairs write two distinct cells; squares need the 2u_k
        grad[rows, ks] = u[ls]
        off = ks != ls
        grad[rows[off], ls[off]] = u[ks[off]]
        grad[rows[~off], ks[~off]] = 2.0 * u[ks[~off]]
    return grad


def _solve_ls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[1]:
        warnings.warn("singular least-squares subproblem; using ridge 1e-10")
        sol = np.linalg.solve(
            A.T @ A + RIDGE * np.eye(A.shape[1]), A.T @ b
        )
    return sol


def stls(Phi: np.ndarray, y: np.ndarray, threshold: float) -> np.ndarray:
    """Sequential threshold least squares for one output component."""
    n_cols = Phi.shape[1]
    support = np.ones(n_cols, dtype=bool)
    theta = np.zeros(n_cols)
    theta[support] = _solve_ls(Phi, y)
    for _ in range(STLS_MAX_ITER):
        keep = np.abs(theta) >= threshold
        keep &= support
        if not keep.any():
            warnings.warn("threshold removed every library term; zero model")
            return np.zeros(n_cols)
        if keep.sum() == support.sum():
            break
        support = keep
        theta = np.zeros(n_cols)
        theta[support] = _solve_ls(Phi[:, support], y)
    theta[np.abs(theta) < threshold] = 0.0
    return theta


class SINDyRegressor(FittedRegressor):
    differentiable = True
    _saved = (("theta", False),)

    def __init__(self, spec, lows, highs, theta):
        super().__init__(spec, lows, highs, theta.shape[1])
        self.theta = theta
        self.terms = library_terms(self.input_dim, spec["degree"])
        if len(self.terms) != theta.shape[0]:
            raise ValueError("coefficient rows do not match the library size")

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "SINDyRegressor":
        Phi = eval_library(U, library_terms(U.shape[1], spec["degree"]))
        theta = np.column_stack(
            [stls(Phi, Y[:, i], spec["threshold"]) for i in range(Y.shape[1])]
        )
        return cls(spec, lows, highs, theta)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        return eval_library(U, self.terms) @ self.theta

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        return self.theta.T @ library_gradient(u, self.terms)

    def active_terms(self, output: int):
        """Indices of surviving library columns for one output component."""
        return np.nonzero(self.theta[:, output])[0]
