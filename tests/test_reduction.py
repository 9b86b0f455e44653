"""POD basis construction and the projected model."""

import numpy as np
import pytest

from nirom.core import TimeGrid, fd_jacobian
from nirom.integration import IntegratorSpec, integrate
from nirom.problems import get_problem
from nirom.reduction import GalerkinROM, ReducedBasis, pod_fit

from conftest import DiagonalDecay


def random_orthonormal(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((rows, max(rows, cols))))
    return q[:, :cols]


def snapshots_with_singular_values(sigma, rows=6, seed=3):
    """Build a matrix whose singular values are exactly ``sigma``."""
    sigma = np.asarray(sigma, float)
    m = sigma.size
    u = random_orthonormal(rows, m, seed)
    w = random_orthonormal(m, m, seed + 1)
    return u @ np.diag(sigma) @ w.T


class TestReducedBasis:
    def test_rejects_non_orthonormal_columns(self):
        V = np.ones((4, 2))
        with pytest.raises(ValueError, match="orthonormal"):
            ReducedBasis(V, np.zeros(4), np.ones(2))

    def test_rejects_offset_length_mismatch(self):
        V = random_orthonormal(5, 2)
        with pytest.raises(ValueError, match="offset"):
            ReducedBasis(V, np.zeros(4), np.ones(2))

    def test_project_then_lift_recovers_states_in_range(self):
        V = random_orthonormal(8, 3, seed=1)
        offset = np.linspace(-1.0, 1.0, 8)
        basis = ReducedBasis(V, offset, np.ones(3))
        rng = np.random.default_rng(2)
        xhat = rng.standard_normal(3)
        x = basis.lift(xhat)
        assert np.allclose(basis.project(x), xhat, atol=1e-13)
        assert np.allclose(basis.lift(basis.project(x)), x, atol=1e-13)

    def test_project_and_lift_accept_column_batches(self):
        V = random_orthonormal(6, 2, seed=4)
        offset = np.full(6, 0.3)
        basis = ReducedBasis(V, offset, np.ones(2))
        batch = np.random.default_rng(5).standard_normal((2, 7))
        lifted = basis.lift(batch)
        assert lifted.shape == (6, 7)
        assert np.allclose(basis.project(lifted), batch, atol=1e-13)

    def test_dimension_mismatches_raise(self):
        basis = ReducedBasis(random_orthonormal(6, 2), np.zeros(6), np.ones(2))
        with pytest.raises(ValueError, match="basis rows"):
            basis.project(np.zeros(5))
        with pytest.raises(ValueError, match="basis cols"):
            basis.lift(np.zeros(3))

    def test_save_load_roundtrip_with_offset(self, tmp_path):
        V = random_orthonormal(7, 3, seed=6)
        offset = np.linspace(0.1, 0.7, 7)
        basis = ReducedBasis(V, offset, np.array([5.0, 2.0, 0.5]))
        mat = tmp_path / "V.txt"
        meta = tmp_path / "V.meta"
        basis.save(mat, meta, extra_meta={"note": "unit"})
        assert (tmp_path / "V.txt.offset").exists()
        back = ReducedBasis.load(mat, meta)
        assert np.array_equal(back.V, basis.V)
        assert np.array_equal(back.offset, basis.offset)
        assert np.array_equal(back.singular_values, basis.singular_values)

    def test_save_skips_offset_file_when_zero(self, tmp_path):
        basis = ReducedBasis(random_orthonormal(5, 2), np.zeros(5), np.ones(2))
        basis.save(tmp_path / "V.txt", tmp_path / "V.meta")
        assert not (tmp_path / "V.txt.offset").exists()
        back = ReducedBasis.load(tmp_path / "V.txt", tmp_path / "V.meta")
        assert np.all(back.offset == 0.0)


class TestPodFit:
    def test_needs_at_least_one_column(self):
        with pytest.raises(ValueError, match="column"):
            pod_fit(np.zeros((4, 0)), n=1)
        with pytest.raises(ValueError, match="column"):
            pod_fit(np.zeros(4), n=1)

    def test_exactly_one_criterion_required(self):
        snaps = snapshots_with_singular_values([2.0, 1.0])
        with pytest.raises(ValueError, match="exactly one"):
            pod_fit(snaps)
        with pytest.raises(ValueError, match="exactly one"):
            pod_fit(snaps, n=1, energy=0.9)

    def test_energy_fraction_must_be_in_unit_interval(self):
        snaps = snapshots_with_singular_values([2.0, 1.0])
        with pytest.raises(ValueError, match="energy"):
            pod_fit(snaps, energy=0.0)
        with pytest.raises(ValueError, match="energy"):
            pod_fit(snaps, energy=1.5)

    def test_columns_are_orthonormal_to_tight_tolerance(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((30, 12))
        basis = pod_fit(data, n=5)
        gram = basis.V.T @ basis.V
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-10

    def test_energy_criterion_picks_smallest_sufficient_dimension(self):
        # squared values 16, 4, 1, 0.25 give retained fractions
        # 0.7529, 0.9412, 0.9882, 1.0
        snaps = snapshots_with_singular_values([4.0, 2.0, 1.0, 0.5])
        assert pod_fit(snaps, energy=0.70).n == 1
        assert pod_fit(snaps, energy=0.90).n == 2
        assert pod_fit(snaps, energy=0.95).n == 3
        assert pod_fit(snaps, energy=0.99).n == 4

    def test_recovered_singular_values_match_construction(self):
        sigma = np.array([4.0, 2.0, 1.0, 0.5])
        basis = pod_fit(snapshots_with_singular_values(sigma), n=2)
        assert np.allclose(basis.singular_values[:4], sigma, atol=1e-12)

    def test_max_modes_caps_both_criteria(self):
        snaps = snapshots_with_singular_values([4.0, 2.0, 1.0, 0.5])
        assert pod_fit(snaps, n=4, max_modes=2).n == 2
        assert pod_fit(snaps, energy=0.99, max_modes=3).n == 3

    def test_rank_deficient_request_warns_and_truncates(self):
        u = random_orthonormal(6, 2, seed=8)
        coeffs = np.random.default_rng(9).standard_normal((2, 5))
        data = u @ coeffs  # rank two by construction
        with pytest.warns(UserWarning, match="rank"):
            basis = pod_fit(data, n=4)
        assert basis.n == 2

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            pod_fit(np.zeros((4, 3)), n=1)

    def test_low_rank_data_is_reconstructed_exactly(self):
        u = random_orthonormal(10, 3, seed=10)
        coeffs = np.random.default_rng(11).standard_normal((3, 8))
        data = u @ coeffs
        basis = pod_fit(data, n=3)
        recon = basis.lift(basis.project(data))
        assert np.max(np.abs(recon - data)) < 1e-12
        # the span matches: the two orthogonal projectors agree
        gap = basis.V @ basis.V.T - u @ u.T
        assert np.max(np.abs(gap)) < 1e-10

    def test_center_uses_column_mean_as_offset(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((6, 5)) + 3.0
        basis = pod_fit(data, n=2, center=True)
        assert np.allclose(basis.offset, data.mean(axis=1), atol=1e-15)
        # centered columns sum to zero, so full reconstruction needs m - 1 modes
        full = pod_fit(data, n=4, center=True)
        recon = full.lift(full.project(data))
        assert np.max(np.abs(recon - data)) < 1e-12


class TestGalerkinROM:
    def test_basis_rows_must_match_system_dimension(self, diagonal_decay):
        basis = ReducedBasis(random_orthonormal(5, 2), np.zeros(5), np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            GalerkinROM(diagonal_decay, basis)

    def test_identity_basis_reproduces_the_full_model(self, diagonal_decay):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        rom = GalerkinROM(diagonal_decay, basis)
        mu = np.array([1.2])
        grid = TimeGrid(0.0, 1.0, 50)
        spec = IntegratorSpec("rk4")
        full = integrate(diagonal_decay, grid, mu, spec)
        red = integrate(rom, grid, mu, spec)
        assert np.allclose(red.states, full.states, atol=1e-13)

    def test_linear_system_reduces_to_projected_operator(self):
        sys = DiagonalDecay(rates=(1.0, 2.0, 3.0, 4.0))
        V = random_orthonormal(4, 2, seed=13)
        basis = ReducedBasis(V, np.zeros(4), np.ones(2))
        rom = GalerkinROM(sys, basis)
        mu = np.array([0.7])
        xhat = np.array([0.4, -0.2])
        reduced_op = -0.7 * V.T @ np.diag([1.0, 2.0, 3.0, 4.0]) @ V
        assert np.allclose(rom.velocity(xhat, 0.0, mu), reduced_op @ xhat, atol=1e-14)
        assert np.allclose(rom.jacobian(xhat, 0.0, mu), reduced_op, atol=1e-14)

    def test_initial_state_is_projected(self, diagonal_decay):
        V = random_orthonormal(2, 1, seed=14)
        offset = np.full(2, 0.1)
        basis = ReducedBasis(V, offset, np.ones(1))
        rom = GalerkinROM(diagonal_decay, basis)
        mu = np.array([1.0])
        x0 = diagonal_decay.initial_state(mu)
        assert np.allclose(rom.initial_state(mu), V.T @ (x0 - offset), atol=1e-14)

    def test_sparse_jacobian_projects_to_dense_reduced_matrix(self):
        sys = get_problem("burgers")
        mu = np.array([1.5, 0.02])
        result = integrate(sys, TimeGrid(0.0, 1.0, 50), mu, IntegratorSpec("rk4"))
        basis = pod_fit(result.states, n=3)
        rom = GalerkinROM(sys, basis)
        xhat = basis.project(result.final_state)
        jac = rom.jacobian(xhat, 1.0, mu)
        assert isinstance(jac, np.ndarray) and jac.shape == (3, 3)
        fd = fd_jacobian(lambda z: rom.velocity(z, 1.0, mu), xhat)
        assert np.max(np.abs(jac - fd)) < 1e-5
