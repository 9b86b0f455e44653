"""Shared small test systems and dataset helpers."""

import numpy as np
import pytest

from nirom.core import DynamicalSystem, ParameterDomain


def fd_jacobian(f, x: np.ndarray, scale: float = 1e-6) -> np.ndarray:
    """Dense Jacobian of f at x by central differences, the reference the
    analytic Jacobians are tested against.

    The step in coordinate j is scale*(1 + |x_j|) so that both tiny and
    large states get a sensible relative perturbation.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = scale * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


class DiagonalDecay(DynamicalSystem):
    """dx_i/dt = -mu * rate_i * x_i, exactly solvable component-wise."""

    def __init__(self, rates=(1.0, 2.0), t_final=1.0):
        self.rates = np.asarray(rates, dtype=float)
        self.dim = self.rates.size
        self.domain = ParameterDomain([0.5], [2.0])
        self.t_final = t_final

    def initial_state(self, mu):
        self.domain.check(mu)
        return np.ones(self.dim)

    def velocity(self, x, t, mu):
        """One state (dim,) or a block (dim, B) of state columns."""
        x = np.asarray(x, float)
        rates = self.rates.reshape((-1,) + (1,) * (x.ndim - 1))
        return -float(np.asarray(mu).ravel()[0]) * rates * x

    def jacobian(self, x, t, mu):
        return np.diag(-float(np.asarray(mu).ravel()[0]) * self.rates)

    def exact(self, t, mu):
        return np.exp(-float(np.asarray(mu).ravel()[0]) * self.rates * t)


class SoftSaturation(DynamicalSystem):
    """dx/dt = -x + 0.2*tanh(x) + 0.1*sin(t); smooth, contractive, nonlinear."""

    dim = 2
    domain = ParameterDomain([0.5], [2.0])
    t_final = 1.0

    def initial_state(self, mu):
        self.domain.check(mu)
        return np.array([0.8, -0.3])

    def velocity(self, x, t, mu):
        x = np.asarray(x, dtype=float)
        return -x + 0.2 * np.tanh(x) + 0.1 * np.sin(t)

    def jacobian(self, x, t, mu):
        x = np.asarray(x, dtype=float)
        return np.diag(-1.0 + 0.2 / np.cosh(x) ** 2)


@pytest.fixture
def diagonal_decay():
    return DiagonalDecay()


@pytest.fixture
def soft_saturation():
    return SoftSaturation()


def make_dataset(n_rows=40, dim_in=3, dim_out=2, seed=0, func=None):
    """Random inputs on [0,1]^d with targets from a known smooth map."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n_rows, dim_in))
    if func is None:
        func = lambda Z: np.column_stack(
            [Z.sum(axis=1), (Z[:, 0] - Z[:, 1]) ** 2]
        )[:, :dim_out]
    Y = np.atleast_2d(func(X))
    if Y.shape[1] > dim_out:
        Y = Y[:, :dim_out]
    return X, Y
