"""Time steppers: single-step identities, inner solvers, convergence ladders."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nirom.core import (
    CapabilityError,
    ConvergenceError,
    DivergenceError,
    DynamicalSystem,
    ParameterDomain,
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


class CubicDecay:
    """dx_i/dt = -x_i**3: the Jacobian -3*x**2 changes strongly along a solve."""

    def __init__(self, x0=(2.0, -1.0, 0.5)):
        self.x0 = np.asarray(x0, dtype=float)

    def initial_state(self, mu):
        return self.x0.copy()

    def velocity(self, x, t, mu):
        return -np.asarray(x) ** 3

    def jacobian(self, x, t, mu):
        return np.diag(-3.0 * np.asarray(x) ** 2)

    def exact_step(self, x, h):
        """The one real root y of h*y**3 + y - x = 0, per component."""
        roots = [np.roots([h, 0.0, 1.0, -xi]) for xi in x]
        return np.array([r[np.argmin(np.abs(r.imag))].real for r in roots])


class CountingJacobian:
    """Decay at rates[0] until t = 0.5 and rates[1] after, with a Jacobian
    that is exact or, with ``wrong``, zero; counts Jacobian calls."""

    def __init__(self, rates=(1.0, 30.0), wrong=False):
        self.rates = rates
        self.wrong = wrong
        self.calls = 0

    def rate(self, t):
        return self.rates[0] if t <= 0.5 else self.rates[1]

    def initial_state(self, mu):
        return np.ones(1)

    def velocity(self, x, t, mu):
        return -self.rate(t) * np.asarray(x)

    def jacobian(self, x, t, mu):
        self.calls += 1
        return np.zeros((1, 1)) if self.wrong else np.array([[-self.rate(t)]])


class NoisyDecay:
    """dx/dt = -x plus a 3e-9 ripple: velocity round-off at the scale of the
    default Newton tolerance, with the exact Jacobian of the smooth part."""

    def initial_state(self, mu):
        return np.ones(1)

    def velocity(self, x, t, mu):
        x = np.asarray(x)
        return -x + 3e-9 * np.sin(1e13 * x)

    def jacobian(self, x, t, mu):
        return np.array([[-1.0]])


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

    @pytest.mark.parametrize("inner", ["newton", "fixed_point"])
    def test_max_inner_below_one_rejected(self, inner):
        with pytest.raises(ValueError, match="max_inner must be >= 1"):
            IntegratorSpec("backward_euler", inner, max_inner=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            IntegratorSpec("backward_euler", "newton", tol)


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

    def test_system_subclass_without_jacobian_cannot_take_a_newton_step(self):
        # DynamicalSystem has no finite-difference fallback: a subclass that
        # defines no jacobian runs fixed point, never Newton
        class VelocityOnly(DynamicalSystem):
            dim, t_final = 1, 0.1
            domain = ParameterDomain([0.5], [2.0])

            def velocity(self, x, t, mu):
                return -mu[0] * np.asarray(x)

            def initial_state(self, mu):
                return np.ones(1)

        with pytest.raises(CapabilityError, match="jacobian"):
            integrate(VelocityOnly(), TimeGrid(0.0, 0.1, 1), MU, NEWTON)
        fixed = IntegratorSpec("backward_euler", "fixed_point", 1e-12)
        assert integrate(VelocityOnly(), TimeGrid(0.0, 0.1, 1), MU, fixed).n_inner_total > 0

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


class TestChordNewton:
    def test_linear_trajectory_takes_one_factorization(self):
        grid = TimeGrid(0.0, 1.0, 10)
        r = integrate(decay(30.0), grid, MU, NEWTON)
        assert r.n_factorizations == 1
        for spec in (RK4, IntegratorSpec("backward_euler", "fixed_point")):
            assert integrate(decay(1.0), grid, MU, spec).n_factorizations == 0

    def test_strongly_nonlinear_system_refactors_and_stays_accurate(self):
        sys, h = CubicDecay(), 0.5
        r = integrate(sys, TimeGrid(0.0, 20 * h, 20), MU, NEWTON)
        assert r.n_factorizations > 1
        for j in range(20):
            exact = sys.exact_step(r.states[:, j], h)
            assert np.abs(r.states[:, j + 1] - exact).max() < 1e-9

    def test_stale_factor_that_diverges_is_rebuilt_not_reported(self):
        # the factor from rate 1 diverges once the rate jumps to 30
        model = CountingJacobian()
        r = integrate(model, TimeGrid(0.0, 1.0, 10), MU, NEWTON)
        assert r.n_factorizations == model.calls == 2
        expected = np.cumprod([1.0] + [1.0 / (1.0 + 0.1 * model.rate(t))
                                       for t in r.times[1:]])
        assert np.abs(r.states[0] - expected).max() < 1e-12

    def test_wrong_jacobian_fails_on_its_fresh_factor(self):
        # with J = 0 each step is a fixed point, which contracts at |h*lam| =
        # 0.1 and diverges at 3 from step 5 on, stale factor and fresh alike
        model = CountingJacobian(wrong=True)
        with pytest.raises(ConvergenceError) as info:
            integrate(model, TimeGrid(0.0, 1.0, 10), MU, NEWTON)
        assert info.value.step == 5
        assert model.calls == 2

    def test_wrong_jacobian_on_stiff_decay_fails_at_step_zero(self):
        model = CountingJacobian(rates=(30.0, 30.0), wrong=True)
        with pytest.raises(ConvergenceError, match="newton stalled") as info:
            integrate(model, TimeGrid(0.0, 1.0, 10), MU, NEWTON)
        assert info.value.step == 0
        assert model.calls == 1

    def test_round_off_at_the_tolerance_is_not_a_divergence(self):
        # the updates stop shrinking near the tolerance; a fresh factor
        # keeps iterating there instead of reporting a stall
        r = integrate(NoisyDecay(), TimeGrid(0.0, 1.0, 10), MU, NEWTON)
        assert np.abs(r.states[0] - (1.0 / 1.1) ** np.arange(11)).max() < 1e-8

    def test_slow_contraction_refactors_at_most_max_inner_times(self):
        # with J = 0 and |h*lam| = 0.5 every factor contracts too slowly
        grid = TimeGrid(0.0, 0.1, 1)
        model = CountingJacobian(rates=(5.0, 5.0), wrong=True)
        r = integrate(model, grid, MU, NEWTON)
        assert 1 < r.n_factorizations <= NEWTON.max_inner
        assert r.states[0, 1] == pytest.approx(1.0 / 1.5, rel=1e-9)
        with pytest.raises(ConvergenceError, match="after 3 factors"):
            integrate(model, grid, MU, IntegratorSpec("backward_euler", "newton", max_inner=3))

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(0.01, 5.0))
    def test_every_step_meets_the_residual_bound(self, h):
        sys = CubicDecay()
        r = integrate(sys, TimeGrid(0.0, 20 * h, 20), MU, NEWTON)
        for j in range(20):
            x, y = r.states[:, j], r.states[:, j + 1]
            residual = np.linalg.norm(y - x - h * sys.velocity(y, None, MU))
            assert residual <= 10 * NEWTON.tol * (1.0 + np.linalg.norm(y))


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
