"""Shared primitives: parameter domains, time grids, dynamical systems."""

from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np


class DomainError(ValueError):
    """Parameter vector lies outside the admissible box."""


class EvaluationError(RuntimeError):
    """A model evaluation produced non-finite or ill-shaped output."""


class CapabilityError(RuntimeError):
    """The requested operation is not supported by this object (e.g. no Jacobian)."""


class ConvergenceError(RuntimeError):
    """An iterative solve exhausted its iteration budget without converging."""

    def __init__(self, message: str, step: int = -1, residual: float = float("nan")):
        super().__init__(message)
        self.step = step
        self.residual = residual


class DivergenceError(EvaluationError):
    """A trajectory left the finite range; carries the offending step index."""

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step


class StageError(RuntimeError):
    """A pipeline stage cannot run because a prerequisite artifact is missing."""


@dataclass(frozen=True)
class ParameterDomain:
    """Axis-aligned box of admissible parameters.

    Parameters
    ----------
    lows, highs : array_like
        Lower/upper bounds per coordinate, same length, lows < highs
        componentwise.
    """

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lows, dtype=float))
        hi = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("need lows < highs componentwise")
        object.__setattr__(self, "lows", lo)
        object.__setattr__(self, "highs", hi)

    @property
    def dim(self) -> int:
        return self.lows.size

    def check(self, mu) -> np.ndarray:
        """Validate and return mu as a float array, raising DomainError if outside."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu.shape != self.lows.shape:
            raise DomainError(
                f"parameter has shape {mu.shape}, expected {self.lows.shape}"
            )
        if not (np.all(mu >= self.lows) and np.all(mu <= self.highs)):
            raise DomainError(f"parameter {mu} outside box [{self.lows}, {self.highs}]")
        return mu

    def corners(self) -> np.ndarray:
        """All 2**dim corner points, lexicographic in (low, high) per axis."""
        axes = [(lo, hi) for lo, hi in zip(self.lows, self.highs)]
        return np.array(list(itertools.product(*axes)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of num_steps steps on [t0, t_final]."""

    t0: float
    t_final: float
    num_steps: int

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("need at least one step")
        if not self.t_final > self.t0:
            raise ValueError("need t_final > t0")

    @property
    def dt(self) -> float:
        return (self.t_final - self.t0) / self.num_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_final, self.num_steps + 1)


class DynamicalSystem:
    """Base class for parameterized ODE systems dx/dt = f(x, t; mu).

    Subclasses set ``dim``, ``domain`` and ``t_final`` and implement
    ``velocity`` and ``initial_state``. A backward Euler step with a Newton
    inner solve also needs ``jacobian(x, t, mu)``, the matrix df/dx (dense
    or sparse); without it ``integrate`` raises CapabilityError.
    """

    dim: int
    domain: ParameterDomain
    t_final: float

    def velocity(self, x: np.ndarray, t: float, mu: np.ndarray) -> np.ndarray:
        """f(x, t; mu) for one state (dim,). A full-order system that the
        a-priori bound of `nirom.analysis` is evaluated for also takes a
        block (dim, B) of state columns at one t and one mu: column j of the
        result equals the single-state call on column j bit for bit."""
        raise NotImplementedError

    def initial_state(self, mu: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def time_grid(self, num_steps: int) -> TimeGrid:
        return TimeGrid(0.0, self.t_final, num_steps)


def require_finite(arr: np.ndarray, what: str = "array") -> np.ndarray:
    """Raise EvaluationError if arr contains NaN or inf."""
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"{what} contains non-finite entries")
    return arr


def relative_error(x, ref) -> float:
    """||x - ref|| / ||ref|| (Frobenius for arrays), or ||x|| when ref is zero."""
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x - ref) / denom)
