"""Regression surrogates packaged as reduced dynamical systems.

``RegressionROM`` makes a fitted regressor interchangeable with the
projected model for ``integrate``: its velocity is the regressor's
prediction at (xhat, t, mu), its Jacobian (when the family has one) is
the state block of the regressor's full input Jacobian. The adapter also
gives the share of a solved trajectory's points that lie outside the
model's training box, the extrapolation diagnostic reported with each
solve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DynamicalSystem
from .integration import TrajectoryResult
from .reduction import ReducedBasis
from .regressors.base import FittedRegressor


class RegressionROM(DynamicalSystem):
    def __init__(
        self,
        system: DynamicalSystem,
        basis: ReducedBasis,
        model: FittedRegressor,
        label: Optional[str] = None,
    ):
        expected = basis.n + 1 + system.domain.dim
        if model.input_dim != expected:
            raise ValueError(
                f"model takes {model.input_dim} inputs, reduced system needs {expected}"
            )
        self.system = system
        self.basis = basis
        self.model = model
        self.label = label or model.spec.label
        self.dim = basis.n
        self.domain = system.domain
        self.t_final = system.t_final

    @property
    def differentiable(self) -> bool:
        return self.model.differentiable

    def _joint(self, xhat, t, mu) -> np.ndarray:
        return np.concatenate([np.asarray(xhat, float), [float(t)], np.asarray(mu, float)])

    def initial_state(self, mu) -> np.ndarray:
        return self.basis.project(self.system.initial_state(mu))

    def velocity(self, xhat, t, mu) -> np.ndarray:
        return self.model.predict(self._joint(xhat, t, mu))

    def jacobian(self, xhat, t, mu) -> np.ndarray:
        full = self.model.jacobian(self._joint(xhat, t, mu))
        return full[:, : self.dim]

    def extrapolation_fraction(self, result: TrajectoryResult, mu) -> float:
        """Share of the time points (xhat_j, t_j, mu) of a solved trajectory
        that lie outside the model's training box."""
        mus = np.tile(np.asarray(mu, float), (result.times.size, 1))
        Z = np.column_stack([result.states.T, result.times, mus])
        return float(np.mean(~self.model.in_box(Z)))
