"""Time steppers: single-step identities, inner solvers, convergence ladders."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nirom.core import (
    CapabilityError,
    ConvergenceError,
    DivergenceError,
    TimeGrid,
)
from nirom.integration import (
    DEFAULT_STEP_COUNTS,
    IntegratorSpec,
    integrate,
    verify_timestep,
)

from conftest import DiagonalDecay

MU = np.array([1.0])
RK4 = IntegratorSpec("rk4")
NEWTON = IntegratorSpec("backward_euler", "newton")


def decay(rate, t_final=1.0):
    """dx/dt = lam*x with lam = -rate at MU, x(0) = 1."""
    return DiagonalDecay(rates=(rate,), t_final=t_final)


class NoJacobian:
    """A duck-typed model that offers only a velocity and an initial state."""

    def __init__(self, system):
        self.velocity = system.velocity
        self.initial_state = system.initial_state


class TestIntegratorSpec:
    def test_rk4_rejects_inner(self):
        with pytest.raises(ValueError, match="no inner solver"):
            IntegratorSpec("rk4", inner="newton")

    def test_backward_euler_needs_inner(self):
        with pytest.raises(ValueError, match="newton or fixed_point"):
            IntegratorSpec("backward_euler")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            IntegratorSpec("rk2")


class TestRk4SingleStep:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(-25.0, 25.0), h=st.floats(0.01, 0.1))
    def test_linear_step_is_fourth_degree_taylor(self, rate, h):
        # one RK4 step on dx/dt = lam*x multiplies the state by the
        # degree-4 Taylor polynomial of exp(lam*h), to rounding
        sys = decay(rate, t_final=h)
        result = integrate(sys, sys.time_grid(1), MU, RK4)
        z = -rate * h
        taylor = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert result.states[0, 1] == pytest.approx(taylor, rel=1e-14, abs=1e-15)

    def test_fourth_order_on_smooth_problem(self):
        sys = DiagonalDecay(rates=(1.0, 2.0))
        errs = []
        for nt in (20, 40):
            r = integrate(sys, sys.time_grid(nt), MU, RK4)
            errs.append(np.linalg.norm(r.final_state - sys.exact(1.0, MU)))
        assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step_index(self):
        # stiff decay far outside the stability region overflows
        with pytest.raises(DivergenceError) as info:
            integrate(decay(3000.0), TimeGrid(0.0, 1.0, 100), MU, RK4)
        assert info.value.step >= 0


class TestBackwardEulerStep:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(-5.0, 500.0), h=st.floats(0.01, 0.1))
    def test_linear_decay_closed_form(self, rate, h):
        # y = x + h*lam*y  =>  y = x/(1 - h*lam)
        sys = decay(rate, t_final=h)
        r = integrate(sys, sys.time_grid(1), MU, NEWTON)
        assert r.states[0, 1] == pytest.approx(1.0 / (1.0 + rate * h), rel=1e-12)
        assert r.n_inner_total >= 1

    def test_fixed_point_matches_newton_on_contractive_step(self):
        sys = DiagonalDecay(rates=(0.8, 0.8), t_final=0.05)
        grid = sys.time_grid(1)
        yn = integrate(sys, grid, MU, IntegratorSpec("backward_euler", "newton", 1e-12))
        yf = integrate(
            sys, grid, MU, IntegratorSpec("backward_euler", "fixed_point", 1e-12)
        )
        assert np.abs(yn.final_state - yf.final_state).max() < 1e-9

    def test_newton_without_jacobian_is_a_capability_error(self):
        with pytest.raises(CapabilityError, match="jacobian"):
            integrate(NoJacobian(decay(1.0)), TimeGrid(0.0, 0.1, 1), MU, NEWTON)

    def test_unknown_inner_rejected(self):
        with pytest.raises(ValueError, match="newton or fixed_point"):
            IntegratorSpec("backward_euler", inner="secant")


class TestBeSolve:
    def test_trajectory_matches_geometric_decay(self):
        nt = 10
        r = integrate(decay(1.0), TimeGrid(0.0, 1.0, nt), MU, NEWTON)
        expected = (1.0 / 1.1) ** np.arange(nt + 1)
        assert np.abs(r.states[0] - expected).max() < 1e-10
        assert r.scheme == "backward_euler" and r.inner == "newton"

    def test_newton_converges_in_two_inner_iterations_on_linear_problems(self):
        r = integrate(decay(1.0), TimeGrid(0.0, 1.0, 5), MU, NEWTON)
        assert r.n_inner_total == 2 * 5

    def test_fixed_point_diverges_past_contraction_limit(self):
        # the map y <- x + h*lam*y contracts only when |h*lam| < 1
        with pytest.raises(ConvergenceError) as info:
            integrate(
                decay(30.0),
                TimeGrid(0.0, 1.0, 10),
                MU,
                IntegratorSpec("backward_euler", "fixed_point"),
            )
        assert "step 0" in str(info.value)
        assert info.value.step == 0

    def test_newton_handles_stiff_steps(self):
        r = integrate(decay(30.0), TimeGrid(0.0, 1.0, 10), MU, NEWTON)
        assert np.all(np.isfinite(r.states))


class TestInnerAgreement:
    def test_newton_and_fixed_point_agree_on_nonlinear_system(self, soft_saturation):
        mu = np.array([1.0])
        grid = soft_saturation.time_grid(20)
        rn = integrate(
            soft_saturation, grid, mu, IntegratorSpec("backward_euler", "newton", 1e-13)
        )
        rf = integrate(
            soft_saturation,
            grid,
            mu,
            IntegratorSpec("backward_euler", "fixed_point", 1e-13),
        )
        assert np.abs(rn.states - rf.states).max() < 1e-9


class TestIntegrateDispatch:
    def test_shapes_and_tags(self, diagonal_decay):
        mu = np.array([1.0])
        grid = diagonal_decay.time_grid(7)
        r4 = integrate(diagonal_decay, grid, mu, IntegratorSpec("rk4"))
        assert r4.states.shape == (2, 8)
        assert r4.scheme == "rk4" and r4.inner is None
        rb = integrate(
            diagonal_decay, grid, mu, IntegratorSpec("backward_euler", "fixed_point")
        )
        assert rb.inner == "fixed_point" and rb.n_inner_total > 0

    def test_accuracy_against_exact_solution(self, diagonal_decay):
        mu = np.array([1.5])
        r = integrate(
            diagonal_decay, diagonal_decay.time_grid(200), mu, IntegratorSpec("rk4")
        )
        assert np.abs(r.final_state - diagonal_decay.exact(1.0, mu)).max() < 1e-10


class TestVerifyTimestep:
    def test_default_ladder_is_the_doubling_sequence(self):
        assert tuple(DEFAULT_STEP_COUNTS) == (25, 50, 100, 200, 400, 800, 1600, 3200, 6400)

    def test_needs_three_counts(self, diagonal_decay):
        with pytest.raises(ValueError, match="three"):
            verify_timestep(diagonal_decay, "rk4", np.array([1.0]), counts=(8, 16))

    def test_rk4_selects_coarsest_count_on_smooth_problem(self, diagonal_decay):
        study = verify_timestep(
            diagonal_decay, "rk4", np.array([1.0]), counts=(32, 64, 128, 256, 512)
        )
        assert study.selected_nt == 32
        assert study.nominal_order == 4.0
        assert study.selected_order == pytest.approx(4.0, abs=0.05)
        assert study.reliable

    def test_backward_euler_order_includes_reference_correlation(self, diagonal_decay):
        # with the finest run as reference, a clean first-order scheme shows
        # order log2((1/32 - 1/512)/(1/64 - 1/512)) = log2(15/7) at Nt=32
        study = verify_timestep(
            diagonal_decay, "backward_euler", np.array([1.0]), counts=(32, 64, 128, 256, 512)
        )
        assert study.selected_nt == 32
        assert study.selected_order == pytest.approx(np.log2(15.0 / 7.0), abs=0.02)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_coarse_runs_get_infinite_error(self):
        # the fast component overflows every run coarser than its stability
        # limit; the slow component supplies a clean fourth-order tail
        sys = DiagonalDecay(rates=(3000.0, 20.0))
        study = verify_timestep(
            sys, "rk4", np.array([1.0]), counts=(100, 200, 400, 800, 1600, 3200, 6400)
        )
        assert np.all(np.isinf(study.errors[:4]))
        assert np.all(np.isnan(study.orders[:4]))
        assert study.selected_nt == 1600
        assert study.reliable  # the finite tail still decreases strictly

    def test_csv_schema(self, tmp_path, diagonal_decay):
        study = verify_timestep(
            diagonal_decay, "rk4", np.array([1.0]), counts=(8, 16, 32, 64)
        )
        path = tmp_path / "c.csv"
        study.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "Nt,dt,error,observed_order,selected"
        assert len(lines) == 5
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags.count("1") == 1
