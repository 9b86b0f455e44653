"""Benchmark full-order models.

Two parameterized systems, both semi-discretized in space so that they fit
the generic ODE interface dx/dt = f(x, t; mu):

* ``Burgers1D``: inviscid Burgers' equation on [0, 100] with an exponential
  source term, first-order Godunov upwind fluxes on 501 nodes, inflow value
  ``a`` held at the left boundary.
* ``ConvDiff2D``: a nonlinear heat (reaction-diffusion) equation on the unit
  square with homogeneous Dirichlet data, a 5-point Laplacian on a 51x51
  grid, an exponential reaction term and a cosine forcing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import DynamicalSystem, ParameterDomain, require_finite


class Burgers1D(DynamicalSystem):
    """Upwind finite-volume Burgers' flow with source 0.02*exp(b*x).

    State u has one entry per grid node x_i = i*dx, dx = 100/(dim - 1),
    i = 0..dim-1.
    The inflow node is a Dirichlet condition u_0 = a: the initial state
    carries it and its velocity row is zero, so it never moves. Transport
    is everywhere positive for admissible parameters, hence the pure
    upwind flux F_i = u_i^2/2.
    """

    name = "burgers"
    dim = 501
    t_final = 25.0
    domain = ParameterDomain([1.5, 0.02], [2.0, 0.025])

    def __init__(self):
        self.dx = 100.0 / (self.dim - 1)
        self.xs = np.arange(self.dim) * self.dx

    def initial_state(self, mu) -> np.ndarray:
        a, _ = self.domain.check(mu)
        u0 = np.ones(self.dim)
        u0[0] = a
        return u0

    def velocity(self, x, t, mu) -> np.ndarray:
        _, b = self.domain.check(mu)
        x = require_finite(np.asarray(x, dtype=float), "state")
        u = x.reshape(self.dim, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            flux = 0.5 * u * u
            out = np.empty_like(u)
            out[0] = 0.0
            out[1:] = -(flux[1:] - flux[:-1]) / self.dx + 0.02 * np.exp(
                b * self.xs[1:, None]
            )
        return out.reshape(x.shape)

    def jacobian(self, x, t, mu) -> sp.csr_matrix:
        self.domain.check(mu)
        u = require_finite(np.asarray(x, dtype=float), "state")
        main = np.concatenate(([0.0], -u[1:] / self.dx))
        lower = u[:-1] / self.dx
        return sp.diags([lower, main], offsets=[-1, 0], format="csr")


class ConvDiff2D(DynamicalSystem):
    """Nonlinear heat equation on the unit square, 51x51 grid, row-major state.

    du/dt = mu0 * Lap(u) - (mu0*mu1/mu2) * (exp(mu2*u) - 1)
            + cos(2 pi x) cos(2 pi y)

    at interior nodes, zero at the Dirichlet frame. mu0 = 0.01 is fixed,
    (mu1, mu2) vary on [9, 10]^2. Grid spacing h = 1/50; state index
    k = i*51 + j holds u(x_i, y_j).
    """

    name = "convdiff"
    n_side = 51
    dim = n_side * n_side
    t_final = 2.0
    mu0 = 0.01
    domain = ParameterDomain([9.0, 9.0], [10.0, 10.0])

    def __init__(self):
        n = self.n_side
        self.h = 1.0 / (n - 1)
        coords = np.arange(n) * self.h
        self.xg, self.yg = np.meshgrid(coords, coords, indexing="ij")
        self.forcing = np.cos(2 * np.pi * self.xg) * np.cos(2 * np.pi * self.yg)
        self.forcing[0, :] = self.forcing[-1, :] = 0.0
        self.forcing[:, 0] = self.forcing[:, -1] = 0.0
        interior = np.zeros((n, n), dtype=bool)
        interior[1:-1, 1:-1] = True
        self.interior = interior.ravel()
        self._frame = np.flatnonzero(~self.interior)
        self._neighbors = self._build_neighbor_matrix()

    def _build_neighbor_matrix(self) -> sp.csr_matrix:
        """Adjacency of interior nodes to their 4 grid neighbors (any node)."""
        n = self.n_side
        k = np.flatnonzero(self.interior)
        rows = np.repeat(k, 4)
        cols = rows + np.tile([-n, n, -1, 1], k.size)
        return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(self.dim, self.dim))

    def initial_state(self, mu) -> np.ndarray:
        self.domain.check(mu)
        return np.zeros(self.dim)

    def velocity(self, x, t, mu) -> np.ndarray:
        mu1, mu2 = self.domain.check(mu)
        x = require_finite(np.asarray(x, dtype=float), "state")
        # Rows are flat node indices k = i*n + j, so the four neighbours of
        # the interior span are the row ranges k+n, k-n, k+1 and k-1. The
        # span also covers the frame nodes j = 0 and j = n-1 between its
        # ends; every frame row is zeroed afterwards.
        n = self.n_side
        lo, hi = n + 1, self.dim - n - 1
        u = x.reshape(self.dim, -1)
        out = np.empty_like(u)
        centre = u[lo:hi]
        lap = out[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(u[lo + n:hi + n], u[lo - n:hi - n], out=lap)
            lap += u[lo + 1:hi + 1]
            lap += u[lo - 1:hi - 1]
            reaction = 4.0 * centre
            lap -= reaction
            lap /= self.h**2
            lap *= self.mu0
            np.multiply(mu2, centre, out=reaction)
            np.exp(reaction, out=reaction)
            reaction -= 1.0
            reaction *= self.mu0 * mu1 / mu2
            lap -= reaction
            lap += self.forcing.reshape(-1, 1)[lo:hi]
        out[self._frame] = 0.0
        return out.reshape(x.shape)

    def jacobian(self, x, t, mu) -> sp.csr_matrix:
        mu1, mu2 = self.domain.check(mu)
        u = require_finite(np.asarray(x, dtype=float), "state")
        with np.errstate(over="ignore"):
            diag = np.where(
                self.interior,
                -4.0 * self.mu0 / self.h**2 - self.mu0 * mu1 * np.exp(mu2 * u),
                0.0,
            )
        return (self.mu0 / self.h**2) * self._neighbors + sp.diags(diag, format="csr")


_REGISTRY = {"burgers": Burgers1D, "convdiff": ConvDiff2D}


def get_problem(name: str) -> DynamicalSystem:
    """Instantiate a benchmark system by name ('burgers' or 'convdiff')."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}, have {sorted(_REGISTRY)}") from None
