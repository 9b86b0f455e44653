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
) -> ErrorSeries:
    """Relative errors of a reduced surrogate trajectory over time.

    e_fom(t) compares the lifted surrogate with the full-order states, and
    e_rom(t) compares it with the lifted Galerkin trajectory:
    ||x_tilde - x_hat|| / ||x_bar + V x_hat||. The denominator is the size
    of the Galerkin state, not its distance from the offset x_bar, so two
    bases that represent the same pair of full-space trajectories under
    different offsets give the same e_rom. All three trajectories must
    share one time grid.
    """
    _require_shared_grid(surrogate, fom, galerkin)
    lifted = basis.lift(surrogate.states)
    e_fom = relative_series(lifted, fom.states)
    e_rom = relative_series(lifted, basis.lift(galerkin.states))
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


def sample_lipschitz(
    system, mu, state_pool: np.ndarray, n_pairs: int = 1000, seed: int = 0
) -> float:
    """Max difference quotient of the velocity at t = 0 over sampled state pairs.

    Pairs mix draws from the pooled trajectory columns with small random
    perturbations of them, which probes both global and local slope.
    """
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


def bound_value(K: float, T: float, e_o_inf: float, e_i0: float, C: float) -> float:
    """exp(K T)(sup orthogonal error + initial error) + (C/K)(exp(K T) - 1),
    with the K -> 0 limit handled analytically."""
    with np.errstate(over="ignore"):
        if K == 0.0:
            return float(e_o_inf + e_i0 + C * T)
        growth = np.exp(K * T)
        return float(growth * e_o_inf + growth * e_i0 + (C / K) * (growth - 1.0))


def evaluate_bound(
    system,
    mu,
    fom: TrajectoryResult,
    surrogate: TrajectoryResult,
    basis: ReducedBasis,
    model,
    validation_inputs: Optional[np.ndarray] = None,
    validation_targets: Optional[np.ndarray] = None,
    seed: int = 0,
) -> BoundReport:
    """Instantiate the a-priori error bound for one surrogate run.

    The Lipschitz constant is sampled from trajectory states, the
    regression constant is the largest validation-row error of the model
    (zero for the exact projected model), and the orthogonal term is the
    largest projection defect of the full trajectory. Sampled constants
    can undershoot the true suprema, so `holds` is diagnostic, not a
    guarantee.
    """
    _require_shared_grid(surrogate, fom)
    lifted = basis.lift(surrogate.states)
    pool = np.hstack([fom.states, lifted])
    K = sample_lipschitz(system, mu, pool, seed=seed)

    if validation_inputs is None:
        C = 0.0
    else:
        preds = model.predict_many(validation_inputs)
        C = float(np.max(np.linalg.norm(preds - validation_targets, axis=1)))

    defect = fom.states - basis.lift(basis.project(fom.states))
    e_o_inf = float(np.max(np.linalg.norm(defect, axis=0)))
    e_i0 = float(
        np.linalg.norm(surrogate.states[:, 0] - basis.project(fom.states[:, 0]))
    )
    T = float(fom.times[-1] - fom.times[0])
    bound = bound_value(K, T, e_o_inf, e_i0, C)
    measured = float(np.max(np.linalg.norm(lifted - fom.states, axis=0)))
    return BoundReport(K, C, e_o_inf, e_i0, bound, measured, bool(measured <= bound))
