"""Time integrators and the timestep-verification study.

``integrate`` advances any model with a velocity field, full-order or
reduced, by classical explicit RK4 or implicit backward Euler (Newton or
fixed-point inner solves). Every scheme is one step function driven by
the same time loop. Wall times cover that loop only, so that online-cost
comparisons exclude setup. ``verify_timestep`` runs a self-convergence
study over a ladder of step counts and picks the coarsest step that
already shows the scheme's nominal order.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, Optional, Sequence

import numpy as np
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


@dataclass
class TrajectoryResult:
    """States of one integrated trajectory, one column per time point."""

    times: np.ndarray
    states: np.ndarray
    wall_time: float
    scheme: str
    inner: Optional[str] = None
    n_inner_total: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[:, -1]


def _rk4_step(velocity, x, t, h, mu):
    k1 = velocity(x, t, mu)
    k2 = velocity(x + 0.5 * h * k1, t + 0.5 * h, mu)
    k3 = velocity(x + 0.5 * h * k2, t + 0.5 * h, mu)
    k4 = velocity(x + h * k3, t + h, mu)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0


def _implicit_step_newton(velocity, jacobian, x_prev, t_next, h, mu, tol, max_inner):
    y = x_prev.copy()
    for it in range(1, max_inner + 1):
        r = y - x_prev - h * np.asarray(velocity(y, t_next, mu))
        jac = jacobian(y, t_next, mu)
        if sp.issparse(jac):
            a = (sp.identity(y.size, format="csc") - h * jac).tocsc()
            delta = spla.splu(a).solve(r)
        else:
            delta = np.linalg.solve(np.eye(y.size) - h * np.asarray(jac), r)
        y = y - delta
        if np.linalg.norm(delta) <= tol * (1.0 + np.linalg.norm(y)):
            return y, it
    raise ConvergenceError(
        f"newton stalled, residual {np.linalg.norm(delta):.3e}",
        residual=float(np.linalg.norm(delta)),
    )


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
    Newton updates y <- y - (I - h*J)^{-1} r with the model's ``jacobian``;
    fixed point iterates y <- x_j + h*velocity(y). Both stop once the
    update satisfies ||dy|| <= tol*(1 + ||y||); exceeding ``max_inner``
    raises ConvergenceError with the step index and last residual.
    """
    velocity, h = model.velocity, grid.dt
    if spec.scheme == "rk4":
        def step(x, t, t_next):
            return _rk4_step(velocity, x, t, h, mu)
    elif spec.inner == "newton":
        jacobian = getattr(model, "jacobian", None)
        if jacobian is None:
            raise CapabilityError("newton inner solve requires a jacobian")

        def step(x, t, t_next):
            return _implicit_step_newton(
                velocity, jacobian, x, t_next, h, mu, spec.tol, spec.max_inner
            )
    else:
        def step(x, t, t_next):
            return _implicit_step_fixed_point(
                velocity, x, t_next, h, mu, spec.tol, spec.max_inner
            )
    times, states, wall, n_inner = _solve(step, model.initial_state(mu), grid)
    return TrajectoryResult(times, states, wall, spec.scheme, spec.inner, n_inner)


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
    inner: str = "newton",
    tol: float = 1e-10,
    max_inner: int = 50,
) -> ConvergenceStudy:
    """Run the step ladder and select the coarsest count at nominal order.

    The finest count is the reference; every coarser run is compared to it
    by the relative l2 distance of the final state. Runs that blow up or
    whose implicit solves stall are kept in the ladder with infinite error
    so they can never be selected. Selection requires the local pairwise
    order to reach 99% of the nominal order (4 for rk4, 1 for backward
    Euler).
    """
    counts = np.asarray(sorted(counts), dtype=int)
    if counts.size < 3:
        raise ValueError("need at least three step counts")
    spec = (
        IntegratorSpec("rk4")
        if scheme == "rk4"
        else IntegratorSpec("backward_euler", inner, tol, max_inner)
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
