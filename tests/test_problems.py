"""Benchmark full-order models: velocity fields, Jacobians, boundary handling."""

import numpy as np
import pytest
import scipy.sparse as sp

from nirom.core import DomainError, EvaluationError, fd_jacobian
from nirom.problems import Burgers1D, ConvDiff2D, get_problem


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_problem("burgers"), Burgers1D)
        assert isinstance(get_problem("convdiff"), ConvDiff2D)
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("heat3d")


class TestBurgers:
    def setup_method(self):
        self.sys = Burgers1D()

    def test_geometry(self):
        assert self.sys.dim == 501
        assert self.sys.dx == pytest.approx(0.2)
        assert self.sys.xs[0] == 0.0 and self.sys.xs[-1] == pytest.approx(100.0)
        assert self.sys.t_final == 25.0

    def test_grid_follows_dim(self):
        class Coarse(Burgers1D):
            dim = 251

        coarse = Coarse()
        assert coarse.xs[0] == 0.0 and coarse.xs[-1] == 100.0
        assert coarse.dx == 0.4
        mu = np.array([1.8, 0.0232])
        u = coarse.initial_state(mu)
        assert coarse.velocity(u, 0.0, mu).shape == (251,)
        assert coarse.jacobian(u, 0.0, mu).shape == (251, 251)

    def test_initial_state_carries_inflow_value(self):
        u0 = self.sys.initial_state([1.7, 0.021])
        assert u0[0] == 1.7
        assert np.all(u0[1:] == 1.0)

    def test_velocity_hand_values(self):
        # at the initial state with mu = (1.5, 0.02):
        # node 1 feels the inflow jump: -(0.5*1^2 - 0.5*1.5^2)/0.2 + 0.02 e^{0.02*0.2}
        # node 2 sees a flat profile: source only, 0.02 e^{0.02*0.4}
        mu = np.array([1.5, 0.02])
        v = self.sys.velocity(self.sys.initial_state(mu), 0.0, mu)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(3.125 + 0.02 * np.exp(0.004), rel=1e-14)
        assert v[2] == pytest.approx(0.02 * np.exp(0.008), rel=1e-14)
        assert v[500] == pytest.approx(0.02 * np.exp(0.02 * 100.0), rel=1e-14)

    def test_inflow_row_is_frozen(self):
        rng = np.random.default_rng(0)
        u = 1.0 + 0.5 * rng.uniform(size=501)
        mu = np.array([1.8, 0.0232])
        assert self.sys.velocity(u, 0.3, mu)[0] == 0.0
        jac = self.sys.jacobian(u, 0.3, mu)
        assert np.all(jac.toarray()[0] == 0.0)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        u = 1.0 + rng.uniform(size=501)
        mu = np.array([1.6, 0.022])
        analytic = self.sys.jacobian(u, 0.0, mu)
        assert sp.issparse(analytic)
        fd = fd_jacobian(lambda y: self.sys.velocity(y, 0.0, mu), u)
        assert np.abs(analytic.toarray() - fd).max() < 1e-5

    def test_source_independent_of_parameter_a(self):
        u = self.sys.initial_state([1.5, 0.02])
        v1 = self.sys.velocity(u, 0.0, [1.5, 0.02])
        u2 = u.copy()
        u2[0] = 1.5  # same state, different mu only changes the source
        v2 = self.sys.velocity(u2, 0.0, [2.0, 0.02])
        assert np.allclose(v1, v2)

    def test_rejects_bad_inputs(self):
        u = self.sys.initial_state([1.5, 0.02])
        with pytest.raises(DomainError):
            self.sys.velocity(u, 0.0, [1.0, 0.02])
        with pytest.raises(EvaluationError):
            self.sys.velocity(np.full(501, np.nan), 0.0, [1.5, 0.02])


class TestConvDiff:
    def setup_method(self):
        self.sys = ConvDiff2D()

    def test_geometry(self):
        assert self.sys.dim == 51 * 51
        assert self.sys.h == pytest.approx(1.0 / 50.0)
        assert self.sys.t_final == 2.0
        assert self.sys.mu0 == 0.01

    def test_neighbor_matrix_matches_a_loop_over_interior_nodes(self):
        n = self.sys.n_side
        rows, cols = [], []
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                k = i * n + j
                for k2 in (k - n, k + n, k - 1, k + 1):
                    rows.append(k)
                    cols.append(k2)
        ref = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n * n, n * n))
        got = self.sys._neighbors
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))

    def test_initial_state_is_zero(self):
        assert np.all(self.sys.initial_state([9.5, 9.5]) == 0.0)

    def test_velocity_at_rest_equals_forcing(self):
        # with u = 0 the diffusion and reaction terms vanish, so the
        # velocity is the cosine forcing; at the center cos(pi)^2 = 1
        mu = np.array([9.5, 9.5])
        v = self.sys.velocity(np.zeros(self.sys.dim), 0.0, mu).reshape(51, 51)
        assert v[25, 25] == pytest.approx(1.0, rel=1e-14)
        assert v[25, 13] == pytest.approx(
            np.cos(np.pi) * np.cos(2 * np.pi * 13 / 50.0), rel=1e-12
        )
        assert np.all(v[0, :] == 0.0) and np.all(v[:, -1] == 0.0)

    def test_boundary_rows_stay_zero(self):
        rng = np.random.default_rng(2)
        u = 0.1 * rng.standard_normal(self.sys.dim)
        v = self.sys.velocity(u, 0.0, [9.0, 10.0]).reshape(51, 51)
        assert np.all(v[0, :] == 0.0) and np.all(v[-1, :] == 0.0)
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)

    def test_jacobian_diagonal_at_rest(self):
        # interior diagonal: -4*mu0/h^2 - mu0*mu1*exp(0) = -100 - 0.095
        jac = self.sys.jacobian(np.zeros(self.sys.dim), 0.0, [9.5, 9.5])
        diag = jac.diagonal().reshape(51, 51)
        assert diag[25, 25] == pytest.approx(-100.095, rel=1e-13)
        assert diag[0, 0] == 0.0

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        u = 0.05 * rng.standard_normal(self.sys.dim)
        mu = np.array([9.2, 9.8])
        analytic = self.sys.jacobian(u, 0.0, mu).toarray()
        fd = fd_jacobian(lambda y: self.sys.velocity(y, 0.0, mu), u)
        assert np.abs(analytic - fd).max() < 1e-5

    def test_reaction_sign_damps_positive_states(self):
        # (exp(mu2 u) - 1) > 0 for u > 0, so the reaction term opposes growth
        u = np.full(self.sys.dim, 0.1)
        mu = np.array([10.0, 10.0])
        v_with = self.sys.velocity(u, 0.0, mu).reshape(51, 51)
        lap_only = (
            self.sys.mu0 * 0.0 + self.sys.forcing[25, 25]
        )  # flat profile: laplacian zero at center
        reaction = (self.sys.mu0 * 10.0 / 10.0) * (np.exp(10.0 * 0.1) - 1.0)
        assert v_with[25, 25] == pytest.approx(lap_only - reaction, rel=1e-12)
