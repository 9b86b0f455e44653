"""The regression-surrogate adapter."""

import numpy as np
import pytest

from nirom.core import CapabilityError, TimeGrid, fd_jacobian
from nirom.integration import IntegratorSpec, TrajectoryResult, integrate
from nirom.reduction import GalerkinROM, ReducedBasis
from nirom.regressors import RegressorSpec, fit_arrays
from nirom.sampling import build_training_set, lhs_maximin
from nirom.surrogate import RegressionROM

from conftest import DiagonalDecay


def fitted_on_velocity(spec, count=220):
    """A (system, basis, model, training box) tuple on the 2d decay problem."""
    sys = DiagonalDecay(rates=(1.0, 2.0))
    basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
    rom = GalerkinROM(sys, basis)
    lows = np.array([-1.5, -1.5, 0.0, 0.5])
    highs = np.array([1.5, 1.5, 1.0, 2.0])
    points = lhs_maximin(count, lows, highs, candidate_rounds=2, seed=0)
    data = build_training_set(rom, points, lows, highs)
    from nirom.regressors import fit

    return sys, basis, fit(spec, data), (lows, highs)


class TestRegressionROM:
    def test_input_width_mismatch_is_rejected(self):
        sys = DiagonalDecay(rates=(1.0, 2.0))
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        X = np.random.default_rng(0).uniform(size=(20, 3))  # one column short
        model = fit_arrays(RegressorSpec("knn", {"n_neighbors": 1}), X, X[:, :2])
        with pytest.raises(ValueError, match="inputs"):
            RegressionROM(sys, basis, model)

    def test_velocity_is_the_model_prediction(self):
        spec = RegressorSpec("sindy", {"degree": 2, "threshold": 1e-6})
        sys, basis, model, _ = fitted_on_velocity(spec)
        rom = RegressionROM(sys, basis, model)
        xhat = np.array([0.3, -0.4])
        z = np.concatenate([xhat, [0.2], [1.1]])
        assert np.array_equal(rom.velocity(xhat, 0.2, np.array([1.1])),
                              model.predict(z))

    def test_surrogate_tracks_the_linear_dynamics(self):
        spec = RegressorSpec("sindy", {"degree": 2, "threshold": 1e-6})
        sys, basis, model, _ = fitted_on_velocity(spec)
        rom = RegressionROM(sys, basis, model)
        mu = np.array([1.0])
        grid = TimeGrid(0.0, 1.0, 100)
        ref = integrate(sys, grid, mu, IntegratorSpec("rk4"))
        sol = integrate(rom, grid, mu, IntegratorSpec("rk4"))
        assert np.max(np.abs(sol.states - ref.states)) < 1e-6

    def test_jacobian_is_the_state_block(self):
        spec = RegressorSpec("vkoga", {"gamma": 1.0, "max_centers": 120})
        sys, basis, model, _ = fitted_on_velocity(spec)
        rom = RegressionROM(sys, basis, model)
        mu = np.array([1.3])
        xhat = np.array([0.2, 0.5])
        jac = rom.jacobian(xhat, 0.4, mu)
        assert jac.shape == (2, 2)
        fd = fd_jacobian(lambda z: rom.velocity(z, 0.4, mu), xhat)
        assert np.max(np.abs(jac - fd)) < 1e-5

    def test_non_differentiable_family_blocks_newton(self):
        spec = RegressorSpec("knn", {"n_neighbors": 4})
        sys, basis, model, _ = fitted_on_velocity(spec)
        rom = RegressionROM(sys, basis, model)
        with pytest.raises(CapabilityError, match="fixed_point"):
            integrate(rom, TimeGrid(0.0, 0.5, 10), np.array([1.0]),
                      IntegratorSpec("backward_euler", "newton"))

    def test_extrapolation_counter(self):
        spec = RegressorSpec("knn", {"n_neighbors": 4})
        sys, basis, model, _ = fitted_on_velocity(spec)
        rom = RegressionROM(sys, basis, model)
        # box: states [-1.5, 1.5]^2, t [0, 1], mu [0.5, 2]
        times = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
        states = np.array([[0.0, 1.5, 9.0, -1.5, 0.0],
                           [0.0, 0.0, 0.0, -1.6, 0.0]])
        traj = TrajectoryResult(times, states, 0.0, "rk4")
        # inside, on the boundary, state outside, state outside, t outside
        assert rom.extrapolation_fraction(traj, np.array([1.0])) == 0.6
        assert rom.extrapolation_fraction(traj, np.array([7.0])) == 1.0
        assert rom.extrapolation_fraction(traj, np.array([2.0])) == 0.6
