"""POD basis construction and the projected (Galerkin) reduced model.

The reduced model keeps the full-order velocity in the loop: its reduced
velocity is V^T f(xbar + V xhat, t; mu), which is what the regression
surrogates later learn to imitate. ``pod_fit`` takes the snapshot array
itself (columns are full-order states, e.g. ``np.hstack`` of trajectory
states) and builds V by one SVD with an energy criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import io
from .core import DynamicalSystem


# Former tagged snapshot class, kept only because bench/test_bench_checks.py
# still builds one: it returns the state columns and drops the tags.
def SnapshotMatrix(data, *tags) -> np.ndarray:
    return np.asarray(data, dtype=float)


@dataclass
class ReducedBasis:
    """Orthonormal trial basis V with an additive offset (zero by default)."""

    V: np.ndarray
    offset: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        if self.V.ndim != 2 or self.V.shape[1] < 1:
            raise ValueError("basis needs at least one column")
        if self.offset.shape != (self.V.shape[0],):
            raise ValueError("offset length must match basis rows")
        gram = self.V.T @ self.V
        if np.max(np.abs(gram - np.eye(self.n))) > 1e-10:
            raise ValueError("basis columns are not orthonormal to 1e-10")

    @property
    def n(self) -> int:
        return self.V.shape[1]

    @property
    def full_dim(self) -> int:
        return self.V.shape[0]

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.full_dim:
            raise ValueError(f"state length {x.shape[0]}, basis rows {self.full_dim}")
        return self.V.T @ (x - (self.offset if x.ndim == 1 else self.offset[:, None]))

    def lift(self, xhat) -> np.ndarray:
        xhat = np.asarray(xhat, dtype=float)
        if xhat.shape[0] != self.n:
            raise ValueError(f"reduced length {xhat.shape[0]}, basis cols {self.n}")
        return (self.offset if xhat.ndim == 1 else self.offset[:, None]) + self.V @ xhat

    def save(self, matrix_path, meta_path, extra_meta: Optional[dict] = None):
        io.write_matrix(matrix_path, self.V)
        meta = {
            "n": self.n,
            "full_dim": self.full_dim,
            "singular_values": " ".join(io.format_double(s) for s in self.singular_values),
            "offset_nonzero": int(np.any(self.offset != 0.0)),
        }
        meta.update(extra_meta or {})
        io.write_keyvalues(meta_path, meta)
        if np.any(self.offset != 0.0):
            io.write_matrix(str(matrix_path) + ".offset", self.offset)

    @classmethod
    def load(cls, matrix_path, meta_path):
        V = io.read_matrix(matrix_path)
        meta = io.read_keyvalues(meta_path)
        sigma = np.array(meta["singular_values"].split(), dtype=float)
        if int(meta.get("offset_nonzero", "0")):
            offset = io.read_matrix(str(matrix_path) + ".offset")[:, 0]
        else:
            offset = np.zeros(V.shape[0])
        return cls(V, offset, sigma)


def pod_fit(
    snapshots: np.ndarray,
    energy: float,
    max_modes: Optional[int] = None,
    center: bool = False,
    *,
    overwrite: bool = False,
) -> ReducedBasis:
    """Proper orthogonal decomposition of ``snapshots``, whose columns are
    full-order states.

    The dimension is the smallest that keeps the fraction ``energy`` (eta)
    of the squared singular values, at most the numerical rank, capped by
    ``max_modes``. With ``center`` the column mean becomes the basis offset;
    with ``overwrite`` it is subtracted from ``snapshots`` in place rather
    than from a copy, so the caller's array is left centred.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy fraction must lie in (0, 1]")
    S = np.asarray(snapshots, dtype=float)
    if S.ndim != 2 or S.shape[1] < 1:
        raise ValueError("snapshot matrix needs at least one column")
    if center:
        offset = S.mean(axis=1)
        if overwrite:
            S -= offset[:, None]
        else:
            S = S - offset[:, None]
    else:
        offset = np.zeros(S.shape[0])
    U, sigma, _ = np.linalg.svd(S, full_matrices=False)
    tol = max(S.shape) * np.finfo(float).eps * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > tol))
    if rank == 0:
        raise ValueError("snapshot matrix is numerically zero")

    ratios = np.cumsum(sigma**2) / np.sum(sigma**2)
    k = min(int(np.searchsorted(ratios, energy) + 1), rank)
    if max_modes is not None and k > max_modes:
        k = int(max_modes)
    # a copy, so that the basis does not keep all of U alive
    return ReducedBasis(U[:, :k].copy(), offset, sigma)


class GalerkinROM(DynamicalSystem):
    """Projection of a full-order system onto a reduced basis.

    Velocity, Jacobian and initial state all follow from the chain rule:
    the reduced system is d/dt xhat = V^T f(xbar + V xhat, t; mu) with
    xhat(0) = V^T (x0(mu) - xbar).
    """

    def __init__(self, system: DynamicalSystem, basis: ReducedBasis):
        if basis.full_dim != system.dim:
            raise ValueError("basis rows must match system dimension")
        self.system = system
        self.basis = basis
        self.dim = basis.n
        self.domain = system.domain
        self.t_final = system.t_final

    def initial_state(self, mu) -> np.ndarray:
        return self.basis.project(self.system.initial_state(mu))

    def velocity(self, xhat, t, mu) -> np.ndarray:
        return self.basis.V.T @ self.system.velocity(self.basis.lift(xhat), t, mu)

    def jacobian(self, xhat, t, mu) -> np.ndarray:
        full = self.system.jacobian(self.basis.lift(xhat), t, mu)
        prod = full @ self.basis.V
        if sp.issparse(prod):
            prod = prod.toarray()
        return self.basis.V.T @ prod
