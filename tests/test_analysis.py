"""Error series, Pareto ranking, and the a-priori error bound."""

import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nirom.analysis import (
    FullOrderTerms,
    ParetoPoint,
    bound_value,
    error_series,
    evaluate_bound,
    pareto_csv,
    pareto_frontier,
    relative_series,
    runtime_ratios,
    sample_lipschitz,
    time_average,
    velocity_rows,
)
from nirom.integration import IntegratorSpec, TrajectoryResult, integrate
from nirom.io import read_csv, read_keyvalues
from nirom.reduction import GalerkinROM, ReducedBasis
from nirom.core import TimeGrid

from conftest import DiagonalDecay


def traj(times, states, scheme="rk4"):
    return TrajectoryResult(np.asarray(times, float), np.asarray(states, float),
                            wall_time=0.0, scheme=scheme)


class TestRelativeSeries:
    def test_columnwise_hand_values(self):
        ref = np.array([[3.0, 0.0], [4.0, 2.0]])
        test = np.array([[3.0, 0.0], [9.0, 3.0]])
        out = relative_series(test, ref)
        assert out[0] == pytest.approx(1.0, abs=1e-15)  # ||(0,5)|| / ||(3,4)||
        assert out[1] == pytest.approx(0.5, abs=1e-15)  # ||(0,1)|| / ||(0,2)||

    def test_zero_reference_column_is_nan(self):
        ref = np.array([[0.0, 1.0], [0.0, 0.0]])
        test = np.ones((2, 2))
        out = relative_series(test, ref)
        assert np.isnan(out[0]) and np.isfinite(out[1])


class TestTimeAverage:
    def test_trapezoid_hand_value(self):
        times = np.array([0.0, 1.0, 3.0])
        series = np.array([0.0, 2.0, 2.0])
        # integral = 1 + 4 = 5 over span 3
        assert time_average(times, series) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_nan_entries_shrink_the_averaged_span(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        series = np.array([np.nan, 2.0, 2.0, np.nan])
        assert time_average(times, series) == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_spans_are_nan(self):
        assert np.isnan(time_average(np.array([0.0, 1.0]), np.array([1.0, np.nan])))
        assert np.isnan(time_average(np.array([1.0, 1.0]), np.array([1.0, 2.0])))


class TestErrorSeries:
    def test_hand_built_series(self):
        basis = ReducedBasis(np.array([[1.0], [0.0]]), np.zeros(2), np.ones(1))
        times = [0.0, 0.5, 1.0]
        surrogate = traj(times, [[1.0, 2.0, 3.0]])
        fom = traj(times, [[1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])
        galerkin = traj(times, [[1.0, 1.0, 3.0]])
        series = error_series(surrogate, fom, galerkin, basis)
        assert np.allclose(series.e_fom, [0.0, 0.0, np.sqrt(2.0 / 5.0)], atol=1e-15)
        assert np.allclose(series.e_rom, [0.0, 1.0, 0.0], atol=1e-15)
        assert series.avg_e_rom == pytest.approx(
            time_average(np.asarray(times), series.e_rom), abs=1e-15
        )

    def test_e_rom_does_not_depend_on_the_basis_offset(self):
        # one pair of full-space trajectories, represented in reduced
        # coordinates measured from zero and from an offset inside span(V)
        V = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])
        offset = V @ np.array([2.0, -1.5])
        times = [0.0, 0.5, 1.0, 1.5]
        full_gal = np.array([[1.2, 1.5, 1.8, 2.1], [1.6, 2.0, 2.4, 2.8],
                             [-1.0, -1.4, -1.6, -1.5]])
        full_sur = full_gal + V @ np.array([[0.0, 0.1, -0.2, 0.3],
                                            [0.0, 0.05, 0.1, -0.2]])
        fom = traj(times, full_gal + np.array([[0.01], [-0.02], [0.03]]))
        results = []
        for x_bar in (np.zeros(3), offset):
            basis = ReducedBasis(V, x_bar, np.ones(2))
            results.append(error_series(
                traj(times, basis.project(full_sur)), fom,
                traj(times, basis.project(full_gal)), basis,
            ))
        plain, centred = results
        assert np.all(np.isfinite(plain.e_rom)) and plain.e_rom[-1] > 0.0
        assert np.allclose(centred.e_rom, plain.e_rom, rtol=1e-14, atol=0.0)
        assert np.allclose(centred.e_fom, plain.e_fom, rtol=1e-14, atol=0.0)
        assert centred.avg_e_rom == pytest.approx(plain.avg_e_rom, rel=1e-14)

    def test_hand_built_series_with_an_offset(self):
        basis = ReducedBasis(np.array([[1.0], [0.0]]), np.array([3.0, 4.0]),
                             np.ones(1))
        times = [0.0, 0.5, 1.0]
        surrogate = traj(times, [[1.0, 1.0, -1.0]])
        galerkin = traj(times, [[0.0, 1.0, -3.0]])
        fom = traj(times, [[3.0, 4.0, 0.0], [4.0, 4.0, 4.0]])
        series = error_series(surrogate, fom, galerkin, basis)
        # lifted Galerkin states (3,4), (4,4), (0,4) have norms 5, 4*sqrt(2),
        # 4; the surrogate sits 1, 0, 2 away from them along the basis vector.
        # Norms measured from the offset (0, 1, 3) would give NaN, 0, 2/3.
        assert np.allclose(series.e_rom, [0.2, 0.0, 0.5], rtol=0.0, atol=1e-15)
        assert np.allclose(series.e_fom, [0.2, 0.0, 0.5], rtol=0.0, atol=1e-15)

    def test_mismatched_grids_are_rejected(self):
        basis = ReducedBasis(np.array([[1.0], [0.0]]), np.zeros(2), np.ones(1))
        a = traj([0.0, 1.0], [[1.0, 1.0]])
        b = traj([0.0, 2.0], [[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="time grid"):
            error_series(a, b, a, basis)

    def test_csv_schema(self, tmp_path):
        basis = ReducedBasis(np.array([[1.0], [0.0]]), np.zeros(2), np.ones(1))
        times = [0.0, 1.0]
        series = error_series(
            traj(times, [[1.0, 1.0]]),
            traj(times, [[1.0, 1.0], [0.0, 0.0]]),
            traj(times, [[1.0, 1.0]]),
            basis,
        )
        path = tmp_path / "err.csv"
        series.to_csv(path)
        header, rows = read_csv(path)
        assert header == ["t", "e_fom", "e_rom"]
        assert len(rows) == 2


class TestPareto:
    @staticmethod
    def brute_force(points):
        keep = []
        for p in points:
            dominated = any(
                (q.time <= p.time and q.error <= p.error)
                and (q.time < p.time or q.error < p.error)
                for q in points
            )
            if not dominated:
                keep.append(p)
        return keep

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m = int(rng.integers(1, 50))
            points = [
                ParetoPoint(f"p{i}", float(t), float(e))
                for i, (t, e) in enumerate(rng.uniform(0.0, 1.0, size=(m, 2)))
            ]
            fast = pareto_frontier(points)
            slow = sorted(self.brute_force(points), key=lambda p: (p.time, p.error))
            assert fast == slow

    def test_large_cloud_against_brute_force(self):
        rng = np.random.default_rng(1)
        points = [
            ParetoPoint(f"p{i}", float(t), float(e))
            for i, (t, e) in enumerate(rng.uniform(0.0, 1.0, size=(1000, 2)))
        ]
        fast = pareto_frontier(points)
        slow = sorted(self.brute_force(points), key=lambda p: (p.time, p.error))
        assert fast == slow
        errors = [p.error for p in fast]
        assert all(b < a for a, b in itertools.pairwise(errors))

    def test_duplicates_keep_the_first_label_in_sort_order(self):
        pts = [ParetoPoint("b", 1.0, 1.0), ParetoPoint("a", 1.0, 1.0)]
        assert pareto_frontier(pts) == [ParetoPoint("a", 1.0, 1.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="point"):
            pareto_frontier([])

    def test_csv_flags_frontier_membership(self, tmp_path):
        points = [
            ParetoPoint("cheap", 0.1, 0.9),
            ParetoPoint("slowbad", 0.9, 0.95),
            ParetoPoint("good", 0.5, 0.1),
        ]
        frontier = pareto_frontier(points)
        path = tmp_path / "pareto.csv"
        pareto_csv(path, points, frontier)
        header, rows = read_csv(path)
        assert header == ["label", "relative_time", "relative_error", "frontier"]
        flags = {r[0]: r[3] for r in rows}
        assert flags == {"cheap": "1", "slowbad": "0", "good": "1"}

    def test_runtime_ratios(self):
        tau_fom, tau_rom = runtime_ratios(2.0, 8.0, 4.0)
        assert tau_fom == 0.25 and tau_rom == 0.5


def reference_lipschitz(system, mu, state_pool, n_pairs, seed):
    """The sampling loop without a memo: two velocity calls per pair."""
    rng = np.random.default_rng(seed)
    m = state_pool.shape[1]
    scale = max(np.abs(state_pool).max(), 1.0)
    best = 0.0
    for _ in range(n_pairs):
        x1 = state_pool[:, rng.integers(m)]
        if rng.uniform() < 0.5:
            x2 = state_pool[:, rng.integers(m)]
        else:
            x2 = x1 + rng.normal(scale=1e-4 * scale, size=x1.size)
        dx = np.linalg.norm(x1 - x2)
        if dx == 0.0:
            continue
        df = np.linalg.norm(
            np.asarray(system.velocity(x1, 0.0, mu))
            - np.asarray(system.velocity(x2, 0.0, mu))
        )
        best = max(best, df / dx)
    return best


class Coupled:
    """A nonlinear velocity of any dimension: dx/dt = -mu x + sin(roll(x)) x,
    for one state or a block of state columns."""

    def velocity(self, x, t, mu):
        return -mu[0] * x + np.sin(np.roll(x, 1, axis=0)) * x


class Counting:
    """Wraps a system and counts the states it evaluates by their exact
    values: each column of a block call, and each single-state call."""

    def __init__(self, system):
        self.system = system
        self.columns = {}
        self.single_calls = 0

    def velocity(self, x, t, mu):
        if np.ndim(x) == 1:
            self.single_calls += 1
        else:
            for col in np.asarray(x).T:
                key = np.ascontiguousarray(col).tobytes()
                self.columns[key] = self.columns.get(key, 0) + 1
        return self.system.velocity(x, t, mu)

    def count(self, column):
        return self.columns.get(np.ascontiguousarray(column).tobytes(), 0)


@st.composite
def pools(draw):
    """(states, n_lead): pool columns drawn from a few distinct ones, so that
    columns repeat, and the size of a leading block (0 for none)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, distinct = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    m = draw(st.integers(1, 12))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=m, max_size=m))
    size = draw(st.sampled_from([0.1, 1.0, 30.0]))
    states = size * rng.normal(size=(n, distinct))[:, picks]
    return states, draw(st.integers(0, m - 1))


def full_order_terms(system, mu, states):
    """FullOrderTerms over the columns of `states`; the Lipschitz sample
    needs no basis."""
    return FullOrderTerms(system, mu, traj(np.arange(states.shape[1]), states), None)


def bits(x):
    return np.float64(x).view(np.int64)


class TestLipschitzSampling:
    @settings(max_examples=150, deadline=None)
    @given(pool=pools(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           n_pairs=st.integers(0, 80))
    def test_memo_gives_the_reference_loop_k_bit_for_bit(self, pool, seeds, n_pairs):
        states, n_lead = pool
        sys, mu = Coupled(), np.array([0.7])
        rows = np.ascontiguousarray(states.T)
        lead = rows[:n_lead], velocity_rows(sys, mu, rows[:n_lead])
        # the calls share one leading block, as the models of a scheme do
        for seed in seeds:
            expect = reference_lipschitz(sys, mu, states, n_pairs, seed)
            assert sample_lipschitz(sys, mu, rows, n_pairs, seed) == expect
            if n_lead:
                # contiguous rows, and the transposed view evaluate_bound passes
                for tail in (rows[n_lead:], states.T[n_lead:]):
                    K = sample_lipschitz(sys, mu, tail, n_pairs, seed, lead=lead)
                    assert K == expect

    def test_each_pool_column_is_evaluated_exactly_once(self):
        pool = np.random.default_rng(3).normal(size=(4, 12))
        sys, mu = Counting(Coupled()), np.array([0.7])
        sample_lipschitz(sys, mu, pool.T, n_pairs=500, seed=0)
        assert [sys.count(col) for col in pool.T] == [1] * pool.shape[1]
        # the perturbed states are evaluated each time they are drawn
        assert sys.single_calls > 200

    def test_linear_system_quotient_is_bracketed_by_the_spectrum(self):
        sys = DiagonalDecay(rates=(1.0, 2.0))
        mu = np.array([1.3])
        pool = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 40))
        K = sample_lipschitz(sys, mu, pool.T, n_pairs=1000, seed=0)
        # the true Lipschitz constant is mu * max(rate) = 2.6; sampled
        # difference quotients can only approach it from below
        assert K <= 2.6 + 1e-12
        assert K >= 2.59

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_shared_terms_give_every_tail_the_reference_k(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, distinct = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        columns = rng.uniform(-0.5, 0.5, size=(n, distinct))
        pick = lambda size: columns[:, rng.integers(distinct, size=size)]
        n_lead, n_tail = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        lead = pick(n_lead)
        tails = []
        for _ in range(data.draw(st.integers(1, 5))):
            # a rescaled tail moves the perturbation scale off 1.0
            tails.append(data.draw(st.sampled_from([1.0, 1.0, 3.0, 30.0])) * pick(n_tail))
        order = data.draw(st.permutations(range(len(tails))))
        order += data.draw(st.lists(st.sampled_from(range(len(tails))), max_size=3))
        n_pairs = data.draw(st.integers(0, 60))
        sys, mu = Coupled(), np.array([0.7])
        terms = full_order_terms(sys, mu, lead)
        for k in order:
            seed = data.draw(st.integers(0, 2))
            expect = reference_lipschitz(sys, mu, np.hstack([lead, tails[k]]), n_pairs, seed)
            K = sample_lipschitz(sys, mu, tails[k].T, n_pairs, seed, lead=terms)
            assert bits(K) == bits(expect)

    def test_full_order_perturbations_are_evaluated_once_per_scale(self):
        rng = np.random.default_rng(5)
        lead, tail = rng.uniform(-0.5, 0.5, size=(2, 4, 10))
        n_pairs, m = 400, 20
        # replay the draws to count the perturbations of each block
        replay, lead_kicks, tail_kicks = np.random.default_rng(0), 0, 0
        for _ in range(n_pairs):
            i = replay.integers(m)
            if replay.uniform() < 0.5:
                replay.integers(m)
            else:
                replay.standard_normal(4)
                lead_kicks, tail_kicks = lead_kicks + (i < 10), tail_kicks + (i >= 10)
        assert lead_kicks > 50 and tail_kicks > 50
        sys, mu = Counting(Coupled()), np.array([0.7])
        terms = full_order_terms(sys, mu, lead)
        calls = []
        # two tails under the scale 1.0, then one that raises it to 1.5
        for t in (tail, tail + 0.1, 3.0 * tail):
            before = sys.single_calls
            sample_lipschitz(sys, mu, t.T, n_pairs, seed=0, lead=terms)
            calls.append(sys.single_calls - before)
        assert calls == [lead_kicks + tail_kicks, tail_kicks, lead_kicks + tail_kicks]
        assert [sys.count(col) for col in lead.T] == [1] * 10

    def test_standard_normal_advances_the_stream_as_scaled_normal_does(self):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for rng in (a, b):
            rng.integers(7), rng.uniform()
        a.standard_normal(37)
        b.normal(scale=3e-4, size=37)
        assert a.bit_generator.state == b.bit_generator.state
        assert bits(a.uniform()) == bits(b.uniform())


class TestBoundValue:
    def test_zero_growth_limit(self):
        assert bound_value(0.0, 2.0, 0.5, 0.25, 0.1) == pytest.approx(0.95, abs=1e-15)

    def test_small_k_approaches_the_limit_continuously(self):
        # (exp(KT) - 1)/K cancels catastrophically near zero, which is why
        # K == 0 gets the analytic branch; nearby values are close, not exact
        lim = bound_value(0.0, 2.0, 0.5, 0.25, 0.1)
        near = bound_value(1e-10, 2.0, 0.5, 0.25, 0.1)
        assert near == pytest.approx(lim, abs=1e-6)

    def test_hand_value_at_unit_growth(self):
        e = np.exp(1.5)
        expect = e * (0.2 + 0.1) + 2.0 * (e - 1.0)
        assert bound_value(1.0, 1.5, 0.2, 0.1, 2.0) == pytest.approx(expect, rel=1e-14)


class TestEvaluateBound:
    def setup_method(self):
        self.sys = DiagonalDecay(rates=(1.0, 2.0))
        self.mu = np.array([1.0])
        self.grid = TimeGrid(0.0, 1.0, 100)
        self.fom = integrate(self.sys, self.grid, self.mu, IntegratorSpec("rk4"))

    def terms(self, basis):
        return FullOrderTerms(self.sys, self.mu, self.fom, basis)

    def test_bound_holds_for_the_projected_model(self):
        basis = ReducedBasis(np.array([[1.0], [0.0]]), np.zeros(2), np.ones(1))
        rom = GalerkinROM(self.sys, basis)
        surrogate = integrate(rom, self.grid, self.mu, IntegratorSpec("rk4"))
        report = evaluate_bound(self.terms(basis), surrogate, None)
        assert report.regression_sup == 0.0
        # dropping the second coordinate leaves its full value as defect
        assert report.e_o_inf == pytest.approx(1.0, abs=1e-12)
        assert report.e_i0 == pytest.approx(0.0, abs=1e-12)
        assert report.holds
        assert report.measured <= report.bound

    def test_regression_constant_is_the_worst_validation_row(self):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        rom = GalerkinROM(self.sys, basis)
        surrogate = integrate(rom, self.grid, self.mu, IntegratorSpec("rk4"))

        class Offset:
            def predict_many(self, Z):
                return np.zeros((Z.shape[0], 2))

        inputs = np.zeros((3, 4))
        targets = np.array([[0.0, 0.0], [0.3, 0.4], [0.1, 0.0]])
        report = evaluate_bound(
            self.terms(basis), surrogate, Offset(),
            validation_inputs=inputs, validation_targets=targets,
        )
        assert report.regression_sup == pytest.approx(0.5, abs=1e-15)
        assert report.holds

    def test_mismatched_grids_are_rejected(self):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        other = integrate(self.sys, TimeGrid(0.0, 1.0, 50), self.mu,
                          IntegratorSpec("rk4"))
        with pytest.raises(ValueError, match="time grid"):
            evaluate_bound(self.terms(basis), other, None)

    def test_report_keyvalues_schema(self, tmp_path):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        rom = GalerkinROM(self.sys, basis)
        surrogate = integrate(rom, self.grid, self.mu, IntegratorSpec("rk4"))
        report = evaluate_bound(self.terms(basis), surrogate, None)
        path = tmp_path / "bound.txt"
        report.to_keyvalues(path)
        back = read_keyvalues(path)
        assert set(back) == {
            "lipschitz_K", "regression_sup_C", "orthogonal_error_sup",
            "initial_reduced_error", "bound", "measured_sup_error", "holds",
        }
        assert back["holds"] == "1"
