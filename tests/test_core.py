"""Parameter domains, time grids, finite-difference Jacobians, error types."""

import numpy as np
import pytest

from nirom.core import (
    CapabilityError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    EvaluationError,
    ParameterDomain,
    StageError,
    TimeGrid,
    require_finite,
)

from conftest import fd_jacobian


class TestParameterDomain:
    def test_check_validates_shape_and_bounds(self):
        box = ParameterDomain([0.0, -1.0], [1.0, 1.0])
        assert np.array_equal(box.check([0.0, -1.0]), [0.0, -1.0])  # boundary included
        with pytest.raises(DomainError):
            box.check([2.0, 0.0])
        with pytest.raises(DomainError):
            box.check([0.5])  # wrong shape
        out = box.check([0.25, 0.5])
        assert out.dtype == float and out.shape == (2,)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ParameterDomain([1.0], [1.0])
        with pytest.raises(ValueError):
            ParameterDomain([0.0, 0.0], [1.0])

    def test_corners_order_and_count(self):
        box = ParameterDomain([0.0, 10.0], [1.0, 20.0])
        corners = box.corners()
        assert corners.shape == (4, 2)
        # lexicographic in (low, high) per axis
        expected = [[0.0, 10.0], [0.0, 20.0], [1.0, 10.0], [1.0, 20.0]]
        assert np.array_equal(corners, expected)

    def test_corner_count_grows_with_dim(self):
        box = ParameterDomain([0.0] * 3, [1.0] * 3)
        assert box.corners().shape == (8, 3)


class TestTimeGrid:
    def test_times_endpoints_and_dt(self):
        grid = TimeGrid(0.0, 2.0, 8)
        t = grid.times()
        assert t.size == 9
        assert t[0] == 0.0 and t[-1] == 2.0
        assert grid.dt == 0.25
        assert np.allclose(np.diff(t), grid.dt)

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 5)


class TestFdJacobian:
    def test_matches_analytic_on_polynomial(self):
        f = lambda x: np.array([x[0] ** 2, x[0] * x[1], np.sin(x[1])])
        x = np.array([1.2, -0.7])
        expected = np.array(
            [[2 * x[0], 0.0], [x[1], x[0]], [0.0, np.cos(x[1])]]
        )
        assert np.abs(fd_jacobian(f, x) - expected).max() < 1e-8

    def test_scales_step_with_coordinate_size(self):
        f = lambda x: np.array([x[0] ** 2])
        big = fd_jacobian(f, np.array([1e6]))
        assert np.abs(big[0, 0] - 2e6) / 2e6 < 1e-6


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(DivergenceError, EvaluationError)
        assert issubclass(DomainError, ValueError)
        for cls in (CapabilityError, ConvergenceError, StageError):
            assert issubclass(cls, RuntimeError)

    def test_convergence_error_carries_context(self):
        err = ConvergenceError("stalled", step=7, residual=1e-3)
        assert err.step == 7 and err.residual == 1e-3

    def test_require_finite(self):
        arr = np.array([1.0, 2.0])
        assert require_finite(arr) is arr
        with pytest.raises(EvaluationError):
            require_finite(np.array([1.0, np.nan]))
        with pytest.raises(EvaluationError):
            require_finite(np.array([np.inf]))
