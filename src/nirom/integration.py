"""Time integrators and the timestep-verification study.

``integrate`` advances any model with a velocity field, full-order or
reduced, by classical explicit RK4 or implicit backward Euler (chord
Newton or fixed-point inner solves). Chord Newton keeps one LU factor of
I - h*J, sparse (``splu``) for the full-order systems and dense
(``lu_factor``) for the reduced ones, across iterations and steps, and
rebuilds it only when the iteration contracts slower than
``REFACTOR_RATE``, diverges or stalls. Every scheme is one step function
driven by the same time loop. Wall times cover that loop only, so that
online-cost comparisons exclude setup. ``verify_timestep`` runs a
self-convergence study over a ladder of step counts and picks the
coarsest step that already shows the scheme's nominal order.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (
    CapabilityError,
    ConvergenceError,
    DivergenceError,
    EvaluationError,
    TimeGrid,
    relative_error,
)

DEFAULT_STEP_COUNTS = (25, 50, 100, 200, 400, 800, 1600, 3200, 6400)
NOMINAL_ORDER = {"rk4": 4.0, "backward_euler": 1.0}
# Chord Newton rebuilds its LU factor once an iteration shrinks the update
# by less than this factor (theta_k = ||d_k|| / ||d_{k-1}|| above it). On
# both benchmark problems 0.2 is the smallest rate at which each full-order
# trajectory needs one factor; at 0.5 reduced solves contract so slowly
# that they take up to 1.7 times the inner iterations.
REFACTOR_RATE = 0.2


@dataclass(frozen=True)
class IntegratorSpec:
    """Scheme selection plus inner-solver settings for the implicit branch.

    ``rk4`` carries no inner solver; ``backward_euler`` carries exactly one
    of ``newton`` or ``fixed_point``.
    """

    scheme: str = "rk4"
    inner: Optional[str] = None
    tol: float = 1e-10
    max_inner: int = 50

    def __post_init__(self):
        if self.scheme not in ("rk4", "backward_euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "rk4" and self.inner is not None:
            raise ValueError("rk4 takes no inner solver")
        if self.scheme == "backward_euler":
            if self.inner not in ("newton", "fixed_point"):
                raise ValueError("backward_euler needs inner newton or fixed_point")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass
class TrajectoryResult:
    """States of one integrated trajectory, one column per time point.

    ``n_inner_total`` counts the inner iterations of the implicit steps and
    ``n_factorizations`` chord Newton's LU factorizations (both 0 for RK4).
    """

    times: np.ndarray
    states: np.ndarray
    wall_time: float
    scheme: str
    inner: Optional[str] = None
    n_inner_total: int = 0
    n_factorizations: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[:, -1]


def _rk4_step(velocity, x, t, h, mu):
    k1 = velocity(x, t, mu)
    k2 = velocity(x + 0.5 * h * k1, t + 0.5 * h, mu)
    k3 = velocity(x + 0.5 * h * k2, t + 0.5 * h, mu)
    k4 = velocity(x + h * k3, t + h, mu)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0


class _ChordNewton:
    """Backward-Euler step by chord (simplified) Newton, keeping one LU factor.

    The factor of I - h*J is built at the first step and reused across
    iterations and steps (Hairer & Wanner, Solving ODEs II, §IV.8), while
    theta_k = ||d_k|| / ||d_{k-1}||, measured on the updates of one factor,
    stays at or below REFACTOR_RATE. A slow iteration (REFACTOR_RATE <
    theta_k < 1) rebuilds the factor at the current iterate. A factor from
    an earlier step that diverges (theta_k >= 1), turns non-finite or runs
    ``max_inner`` iterations is rebuilt at the step's start and the step
    restarts. A factor built in this step is kept while theta_k >= 1:
    near the tolerance that is round-off in the velocity, and a factor
    rebuilt at a diverging iterate is no better. The step raises
    ConvergenceError once an iterate turns non-finite, a factor built in
    this step has run ``max_inner`` iterations, or it would build more
    than ``max_inner`` factors.
    """

    def __init__(self, velocity, jacobian, h, mu, tol, max_inner):
        self.velocity, self.jacobian = velocity, jacobian
        self.h, self.mu, self.tol, self.max_inner = h, mu, tol, max_inner
        self.solve = None
        self.n_factorizations = 0

    def _factor(self, y, t):
        jac = self.jacobian(y, t, self.mu)
        if sp.issparse(jac):
            a = (sp.identity(y.size, format="csc") - self.h * jac).tocsc()
            self.solve = spla.splu(a).solve
        else:
            a = -self.h * np.asarray(jac, dtype=float)
            a[np.diag_indices(y.size)] += 1.0
            lu, piv = sla.lu_factor(a, check_finite=False)
            # lu_solve's LAPACK routine, called directly: lu_solve's own
            # per-call checks cost 13 us against a 1-2 us solve at n = 5-20
            getrs = sla.get_lapack_funcs("getrs", (lu,))
            self.solve = lambda r: getrs(lu, piv, r)[0]
        self.n_factorizations += 1

    def __call__(self, x, t, t_next):
        h, mu = self.h, self.mu
        y = x.copy()
        fresh = self.solve is None
        if fresh:
            self._factor(y, t_next)
        n_factors = int(fresh)
        its = k = 0
        prev = np.inf
        while True:
            delta = self.solve(y - x - h * np.asarray(self.velocity(y, t_next, mu)))
            y = y - delta
            its += 1
            k += 1
            norm, size = np.linalg.norm(delta), np.linalg.norm(y)
            if np.isfinite(size) and norm <= self.tol * (1.0 + size):
                return y, its
            rate, prev = norm / prev, norm
            if fresh and not (np.isfinite(size) and k < self.max_inner):
                raise ConvergenceError(
                    f"newton stalled, residual {norm:.3e}", residual=float(norm)
                )
            keep = rate <= REFACTOR_RATE or (fresh and rate >= 1.0)
            if keep and k < self.max_inner:
                continue
            if not rate < 1.0:
                y = x.copy()
            if n_factors >= self.max_inner:
                raise ConvergenceError(
                    f"newton stalled after {n_factors} factors, residual {norm:.3e}",
                    residual=float(norm),
                )
            self._factor(y, t_next)
            fresh = True
            n_factors += 1
            k = 0
            prev = np.inf


def _implicit_step_fixed_point(velocity, x_prev, t_next, h, mu, tol, max_inner):
    y = x_prev.copy()
    for it in range(1, max_inner + 1):
        y_new = x_prev + h * np.asarray(velocity(y, t_next, mu))
        delta = np.linalg.norm(y_new - y)
        y = y_new
        if delta <= tol * (1.0 + np.linalg.norm(y)):
            return y, it
    raise ConvergenceError(f"fixed point stalled, residual {delta:.3e}", residual=float(delta))


def _solve(step: Callable, x0, grid: TimeGrid):
    """Advance x0 over the grid with step(x, t_j, t_{j+1}) -> (x, inner its).

    Returns (times, states, wall time of the loop, total inner iterations).
    A non-finite stage or state raises DivergenceError and a stalled inner
    solve raises ConvergenceError, both carrying the step index.
    """
    times = grid.times()
    x = np.array(x0, dtype=float)
    states = np.empty((x.size, times.size))
    states[:, 0] = x
    n_inner = 0
    tic = time.perf_counter()
    for j in range(grid.num_steps):
        try:
            x, its = step(x, times[j], times[j + 1])
        except ConvergenceError as exc:
            raise ConvergenceError(f"step {j}: {exc}", step=j, residual=exc.residual)
        except EvaluationError as exc:
            raise DivergenceError(f"non-finite state at step {j}: {exc}", step=j)
        n_inner += its
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"non-finite state at step {j}", step=j)
        states[:, j + 1] = x
    return times, states, time.perf_counter() - tic, n_inner


def integrate(model, grid: TimeGrid, mu, spec: IntegratorSpec) -> TrajectoryResult:
    """Solve a model (anything with velocity/initial_state) per the spec.

    RK4 is the classical four-stage scheme. Backward Euler solves
    y - x_j - h*velocity(y, t_{j+1}, mu) = 0 per step, starting at x_j:
    chord Newton updates y <- y - (I - h*J)^{-1} r with one LU factor of
    I - h*J from the model's ``jacobian``, kept for the whole call and
    rebuilt only when an iteration contracts the update by less than
    ``REFACTOR_RATE``, diverges, turns non-finite or stalls (see
    ``_ChordNewton``); fixed point iterates y <- x_j + h*velocity(y). Both
    stop once the update satisfies ||dy|| <= tol*(1 + ||y||). A fixed
    point that exceeds ``max_inner`` iterations, or a factor built in the
    current step that fails, raises ConvergenceError with the step index
    and last residual. The result counts the inner iterations and the
    factorizations.
    """
    velocity, h = model.velocity, grid.dt
    if spec.scheme == "rk4":
        def step(x, t, t_next):
            return _rk4_step(velocity, x, t, h, mu)
    elif spec.inner == "newton":
        jacobian = getattr(model, "jacobian", None)
        if jacobian is None:
            raise CapabilityError("newton inner solve requires a jacobian")
        step = _ChordNewton(velocity, jacobian, h, mu, spec.tol, spec.max_inner)
    else:
        def step(x, t, t_next):
            return _implicit_step_fixed_point(
                velocity, x, t_next, h, mu, spec.tol, spec.max_inner
            )
    times, states, wall, n_inner = _solve(step, model.initial_state(mu), grid)
    factors = step.n_factorizations if spec.inner == "newton" else 0
    return TrajectoryResult(times, states, wall, spec.scheme, spec.inner, n_inner, factors)


@dataclass
class ConvergenceStudy:
    """Self-convergence ladder: errors vs the finest run, pairwise orders.

    ``errors[i]`` is the relative l2 final-time difference between the run
    at ``counts[i]`` and the reference run at ``counts[-1]`` (NaN for the
    reference itself, inf for runs that diverged or failed to converge).
    ``orders[i] = log2(errors[i]/errors[i+1])`` where both are finite and
    positive, NaN otherwise. ``selected_nt`` is the smallest count whose
    order meets 99% of the scheme's nominal order; ``reliable`` is False
    when the finite part of the error ladder is not strictly decreasing.
    """

    scheme: str
    counts: np.ndarray
    dts: np.ndarray
    errors: np.ndarray
    orders: np.ndarray
    nominal_order: float
    selected_nt: Optional[int]
    selected_order: float
    reliable: bool

    def to_csv(self, path):
        rows = []
        for i, nt in enumerate(self.counts):
            rows.append(
                f"{nt},{self.dts[i]:.12g},{self.errors[i]:.12g},"
                f"{self.orders[i]:.12g},{int(self.counts[i] == self.selected_nt)}"
            )
        text = "Nt,dt,error,observed_order,selected\n" + "\n".join(rows) + "\n"
        with open(path, "w") as fh:
            fh.write(text)


def verify_timestep(
    model,
    scheme: str,
    mu,
    counts: Sequence[int] = DEFAULT_STEP_COUNTS,
    tol: float = 1e-10,
    max_inner: int = 50,
) -> ConvergenceStudy:
    """Run the step ladder and select the coarsest count at nominal order.

    The finest count is the reference; every coarser run is compared to it
    by the relative l2 distance of the final state. Runs that blow up or
    whose implicit solves stall are kept in the ladder with infinite error
    so they can never be selected. Selection requires the local pairwise
    order to reach 99% of the nominal order (4 for rk4, 1 for backward
    Euler). Backward Euler solves by chord Newton, so needs a ``jacobian``.
    """
    counts = np.asarray(sorted(counts), dtype=int)
    if counts.size < 3:
        raise ValueError("need at least three step counts")
    spec = (
        IntegratorSpec("rk4")
        if scheme == "rk4"
        else IntegratorSpec("backward_euler", "newton", tol, max_inner)
    )
    t_final = model.t_final
    dts = t_final / counts.astype(float)

    finals = {}
    for nt in counts:
        grid = TimeGrid(0.0, t_final, int(nt))
        try:
            finals[int(nt)] = integrate(model, grid, mu, spec).final_state
        except (DivergenceError, ConvergenceError):
            finals[int(nt)] = None
    ref = finals[int(counts[-1])]
    if ref is None:
        raise ConvergenceError(f"reference run at Nt={counts[-1]} failed")

    errors = np.full(counts.size, np.nan)
    for i, nt in enumerate(counts[:-1]):
        x = finals[int(nt)]
        errors[i] = np.inf if x is None else relative_error(x, ref)

    orders = np.full(counts.size, np.nan)
    for i in range(counts.size - 2):
        e0, e1 = errors[i], errors[i + 1]
        if np.isfinite(e0) and np.isfinite(e1) and e0 > 0 and e1 > 0:
            orders[i] = np.log2(e0 / e1)

    nominal = NOMINAL_ORDER[scheme]
    selected_nt = None
    selected_order = float("nan")
    for i in range(counts.size - 2):
        if np.isfinite(orders[i]) and orders[i] >= 0.99 * nominal:
            selected_nt = int(counts[i])
            selected_order = float(orders[i])
            break

    finite = errors[np.isfinite(errors)]
    reliable = bool(finite.size >= 2 and np.all(np.diff(finite) < 0))

    return ConvergenceStudy(
        scheme, counts, dts, errors, orders, nominal, selected_nt, selected_order, reliable
    )
