"""Accuracy and cost metrics for surrogate trajectories.

Error series compare a lifted surrogate trajectory against two references,
both in the full space: the full-order trajectory x(t) (e_FOM) and the
lifted Galerkin trajectory (e_ROM). With lift(x_hat) = x_bar + V x_hat,

    e_fom(t) = ||lift(x_tilde) - x|| / ||x||
    e_rom(t) = ||lift(x_tilde) - lift(x_hat)|| / ||lift(x_hat)||
             = ||x_tilde - x_hat|| / ||x_bar + V x_hat||

(the second form because V is orthonormal). Both compare full-space
states, so neither depends on the offset x_bar the reduced coordinates are
measured from. Time averages are trapezoidal means; entries with a
zero-norm denominator are undefined (NaN) and excluded from the averaged
span. Pareto frontiers rank (relative time, relative error) pairs, and
``evaluate_bound`` instantiates the exponential a-priori bound with
sampled Lipschitz and regression constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from . import io
from .integration import TrajectoryResult
from .reduction import ReducedBasis


@dataclass
class ErrorSeries:
    times: np.ndarray
    e_fom: np.ndarray
    e_rom: np.ndarray
    avg_e_fom: float
    avg_e_rom: float

    def to_csv(self, path):
        rows = [
            (io.format_double(t), io.format_double(a), io.format_double(b))
            for t, a, b in zip(self.times, self.e_fom, self.e_rom)
        ]
        io.write_csv(path, ["t", "e_fom", "e_rom"], rows)


def relative_series(test: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Columnwise ||test - reference|| / ||reference||, NaN where the
    reference norm vanishes."""
    diff = np.linalg.norm(test - reference, axis=0)
    denom = np.linalg.norm(reference, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, diff / np.where(denom > 0.0, denom, 1.0), np.nan)
    return out


def time_average(times: np.ndarray, series: np.ndarray) -> float:
    """Trapezoidal mean over the defined (non-NaN) span of the series."""
    mask = np.isfinite(series)
    if mask.sum() < 2:
        return float("nan")
    t = times[mask]
    span = t[-1] - t[0]
    if span <= 0.0:
        return float("nan")
    return float(np.trapezoid(series[mask], t) / span)


def _require_shared_grid(surrogate: TrajectoryResult, *others: TrajectoryResult):
    for other in others:
        if surrogate.times.size != other.times.size or not np.allclose(
            surrogate.times, other.times
        ):
            raise ValueError("trajectories are not on a shared time grid")


def error_series(
    surrogate: TrajectoryResult,
    fom: TrajectoryResult,
    galerkin: TrajectoryResult,
    basis: ReducedBasis,
    lifted_galerkin: Optional[np.ndarray] = None,
) -> ErrorSeries:
    """Relative errors of a reduced surrogate trajectory over time.

    e_fom(t) compares the lifted surrogate with the full-order states, and
    e_rom(t) compares it with the lifted Galerkin trajectory:
    ||x_tilde - x_hat|| / ||x_bar + V x_hat||. The denominator is the size
    of the Galerkin state, not its distance from the offset x_bar, so two
    bases that represent the same pair of full-space trajectories under
    different offsets give the same e_rom. All three trajectories must
    share one time grid. A caller that compares several surrogates with one
    Galerkin run passes its `lifted_galerkin = basis.lift(galerkin.states)`
    to each.
    """
    _require_shared_grid(surrogate, fom, galerkin)
    if lifted_galerkin is None:
        lifted_galerkin = basis.lift(galerkin.states)
    lifted = basis.lift(surrogate.states)
    e_fom = relative_series(lifted, fom.states)
    e_rom = relative_series(lifted, lifted_galerkin)
    return ErrorSeries(
        surrogate.times.copy(),
        e_fom,
        e_rom,
        time_average(surrogate.times, e_fom),
        time_average(surrogate.times, e_rom),
    )


@dataclass(frozen=True)
class ParetoPoint:
    label: str
    time: float
    error: float


def pareto_frontier(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset, sorted by time.

    A point is dominated when another has time <= and error <= with at
    least one strict inequality. Exactly equal (time, error) pairs keep
    only the first label in sort order.
    """
    if not points:
        raise ValueError("need at least one point")
    ordered = sorted(points, key=lambda p: (p.time, p.error, p.label))
    frontier = []
    best_error = np.inf
    for p in ordered:
        if p.error < best_error:
            frontier.append(p)
            best_error = p.error
    return frontier


def pareto_csv(path, points: List[ParetoPoint], frontier: List[ParetoPoint]):
    on_frontier = {(p.label, p.time, p.error) for p in frontier}
    rows = [
        (
            p.label,
            io.format_double(p.time),
            io.format_double(p.error),
            int((p.label, p.time, p.error) in on_frontier),
        )
        for p in points
    ]
    io.write_csv(path, ["label", "relative_time", "relative_error", "frontier"], rows)


def runtime_ratios(surrogate_wall: float, fom_wall: float, galerkin_wall: float):
    """(tau_fom, tau_rom): online-time ratios against the two references."""
    return surrogate_wall / fom_wall, surrogate_wall / galerkin_wall


@dataclass
class BoundReport:
    lipschitz: float
    regression_sup: float
    e_o_inf: float
    e_i0: float
    bound: float
    measured: float
    holds: bool

    def to_keyvalues(self, path):
        io.write_keyvalues(
            path,
            {
                "lipschitz_K": io.format_double(self.lipschitz),
                "regression_sup_C": io.format_double(self.regression_sup),
                "orthogonal_error_sup": io.format_double(self.e_o_inf),
                "initial_reduced_error": io.format_double(self.e_i0),
                "bound": io.format_double(self.bound),
                "measured_sup_error": io.format_double(self.measured),
                "holds": int(self.holds),
            },
        )


def velocity_rows(system, mu, rows: np.ndarray) -> np.ndarray:
    """The velocities at t = 0 of the states in `rows`, one state per row,
    from one block call, as contiguous rows."""
    return np.ascontiguousarray(np.asarray(system.velocity(rows.T, 0.0, mu)).T)


def _lipschitz_plan(seed: int, m: int, n_pairs: int, dim: int, n_lead: int) -> dict:
    """The draws of the sample: (i, j, None) pairs pool rows i and j, and
    (i, None, state) perturbs row i by the noise a generator in `state`
    draws next. `standard_normal(dim)` advances the stream as that noise
    does. "pairs" and "kicks" touch only the first n_lead rows, "own" the rest."""
    rng = np.random.default_rng(seed)
    plan = {"pairs": [], "kicks": [], "own": []}
    for _ in range(n_pairs):
        i = rng.integers(m)
        if rng.uniform() < 0.5:
            j = rng.integers(m)
            plan["own" if max(i, j) >= n_lead else "pairs"].append((i, j, None))
        else:
            state = rng.bit_generator.state
            plan["own" if i >= n_lead else "kicks"].append((i, None, state))
            rng.standard_normal(dim)
    return plan


def sample_lipschitz(
    system, mu, rows: np.ndarray, n_pairs: int = 1000, seed: int = 0, lead=None
) -> float:
    """Max difference quotient of the velocity at t = 0 over sampled state pairs.

    Pairs mix draws from the pool, one state per row, with small random
    perturbations of them, which probes both global and local slope. The
    pool is `rows`, or the two blocks `[lead rows; rows]` when `lead` is a
    pair (rows, their velocities at t = 0 for the same system and mu) or
    a `FullOrderTerms` of that system and mu. Both blocks are indexed where
    they lie, so the pool is never copied, and the perturbation scale is
    the largest magnitude in either block. The velocities of `rows` come
    from one block call; each perturbed state gets a call of its own.

    A `FullOrderTerms` lead keeps the draws for each (seed, pool size,
    n_pairs), and the largest quotient over the draws that touch its rows
    alone: over pairs once, over perturbations once per scale. A call then
    evaluates only the draws that touch `rows`. K is the same, bit for bit,
    as one pass over all draws; a NaN quotient never replaces the largest.
    """
    velocities = velocity_rows(system, mu, rows)
    if isinstance(lead, FullOrderTerms):
        lead_rows, lead_velocities, memo = lead.rows, lead.velocities, lead.lipschitz_memo
    else:
        lead_rows, lead_velocities = (rows[:0], velocities[:0]) if lead is None else lead
        memo = {}
    n_lead, m = len(lead_rows), len(lead_rows) + len(rows)

    def pool(i):
        """Row i of the pool [lead rows; rows] and its velocity."""
        if i < n_lead:
            return lead_rows[i], lead_velocities[i]
        return rows[i - n_lead], velocities[i - n_lead]

    rng = np.random.default_rng(seed)
    scale = max(np.max([(-b.min(), b.max()) for b in (lead_rows, rows) if b.size]), 1.0)

    def largest(draws) -> float:
        best = 0.0
        for i, j, state in draws:
            x1, f1 = pool(i)
            if state is None:
                x2, f2 = pool(j)
            else:
                rng.bit_generator.state = state
                x2 = x1 + rng.normal(scale=1e-4 * scale, size=x1.size)
            dx = np.linalg.norm(x1 - x2)
            if dx == 0.0:
                continue
            if state is not None:
                f2 = np.asarray(system.velocity(x2, 0.0, mu))
            best = max(best, np.linalg.norm(f1 - f2) / dx)
        return best

    def memoised(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    key = (seed, m, n_pairs)
    plan = memoised(key, lambda: _lipschitz_plan(seed, m, n_pairs, rows.shape[1], n_lead))
    return max(
        memoised(key + ("pairs",), lambda: largest(plan["pairs"])),
        memoised(key + ("kicks", scale), lambda: largest(plan["kicks"])),
        largest(plan["own"]),
    )


class FullOrderTerms:
    """One full-order run with its system, mu and basis, and the parts of a
    bound that depend on it alone, for every model of one scheme to share:
    the full-order states as rows, which are the lead block of each model's
    two-block Lipschitz pool and are indexed there, not copied; their
    velocities from one block call; the horizon T and the largest
    projection defect e_o_inf, each computed on first use; and the
    `sample_lipschitz` memo, so that the models of a scheme share the pair
    draws and evaluate each perturbed full-order state once per scale."""

    def __init__(self, system, mu, fom: TrajectoryResult, basis: ReducedBasis):
        self.system = system
        self.mu = mu
        self.fom = fom
        self.basis = basis
        self.rows = np.ascontiguousarray(fom.states.T)
        self.horizon = float(fom.times[-1] - fom.times[0])
        self.lipschitz_memo = {}

    @cached_property
    def velocities(self) -> np.ndarray:
        return velocity_rows(self.system, self.mu, self.rows)

    @cached_property
    def e_o_inf(self) -> float:
        states = self.fom.states
        defect = states - self.basis.lift(self.basis.project(states))
        return float(np.max(np.linalg.norm(defect, axis=0)))


def bound_value(K: float, T: float, e_o_inf: float, e_i0: float, C: float) -> float:
    """exp(K T)(sup orthogonal error + initial error) + (C/K)(exp(K T) - 1),
    with the K -> 0 limit handled analytically."""
    with np.errstate(over="ignore"):
        if K == 0.0:
            return float(e_o_inf + e_i0 + C * T)
        growth = np.exp(K * T)
        return float(growth * e_o_inf + growth * e_i0 + (C / K) * (growth - 1.0))


def evaluate_bound(
    terms: FullOrderTerms,
    surrogate: TrajectoryResult,
    model,
    validation_inputs: Optional[np.ndarray] = None,
    validation_targets: Optional[np.ndarray] = None,
    seed: int = 0,
) -> BoundReport:
    """Instantiate the a-priori error bound for one surrogate run against
    the full-order run of `terms`.

    The Lipschitz constant is sampled from the pool [full-order states;
    lifted surrogate states], with the velocities of each half from one
    block call: the full-order half once per `terms`, so once per scheme
    when the models of a scheme share it. `terms` also keeps the pair
    draws and the quotients over full-order states alone, so each model
    evaluates only the draws that touch its own states. The regression
    constant is the largest validation-row error of the model (zero for
    the exact projected model), and the orthogonal term is the largest
    projection defect of the full trajectory. Sampled constants can
    undershoot the true suprema, so `holds` is diagnostic, not a guarantee.
    """
    fom, basis = terms.fom, terms.basis
    _require_shared_grid(surrogate, fom)
    lifted = basis.lift(surrogate.states)
    K = sample_lipschitz(terms.system, terms.mu, lifted.T, seed=seed, lead=terms)

    if validation_inputs is None:
        C = 0.0
    else:
        preds = model.predict_many(validation_inputs)
        C = float(np.max(np.linalg.norm(preds - validation_targets, axis=1)))

    e_i0 = float(
        np.linalg.norm(surrogate.states[:, 0] - basis.project(fom.states[:, 0]))
    )
    bound = bound_value(K, terms.horizon, terms.e_o_inf, e_i0, C)
    measured = float(np.max(np.linalg.norm(lifted - fom.states, axis=0)))
    return BoundReport(K, C, terms.e_o_inf, e_i0, bound, measured, bool(measured <= bound))
