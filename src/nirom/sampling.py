"""Latin-hypercube maximin sampling and regression-dataset assembly.

Everything here takes and returns plain arrays. Training inputs live in
the joint (xhat, t, mu) box: ``reduced_state_box`` bounds the projected
corner-run snapshot array (inflated 10% per side), time spans [0, T] and
the parameter block is the problem's admissible box; ``joint_box`` joins
the three blocks into (lows, highs). ``lhs_maximin(count, lows, highs,
candidate_rounds, seed)`` draws the design as rows, and
``build_training_set`` records the projected model's reduced velocity at
each row as its target.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import io
from .core import ParameterDomain
from .reduction import GalerkinROM, ReducedBasis

DEFAULT_N_TRAINING = 1000
DEFAULT_N_VALIDATION = 500
DEFAULT_CANDIDATE_ROUNDS = 64


# Former argument bundle of ``lhs_maximin``, kept only because
# bench/test_bench_checks.py still passes one; new code passes the fields.
LhsConfig = namedtuple("LhsConfig", "count lows highs candidate_rounds seed")


def latin_design(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """One random Latin design on the unit cube: per coordinate, one point
    in each of `count` equal strata, positioned uniformly inside it."""
    u = np.empty((count, dim))
    for j in range(dim):
        perm = rng.permutation(count)
        u[:, j] = (perm + rng.uniform(size=count)) / count
    return u


def min_pairwise_distance(u: np.ndarray) -> float:
    if u.shape[0] < 2:
        return float("inf")
    return float(pdist(u).min())


def lhs_maximin(
    count: int,
    lows=None,
    highs=None,
    candidate_rounds: int = DEFAULT_CANDIDATE_ROUNDS,
    seed: int = 0,
) -> np.ndarray:
    """Best-of-`candidate_rounds` Latin design of `count` points in the box
    [lows, highs] under the maximin criterion.

    Distances are measured on the unit cube (every coordinate scaled to
    [0, 1]); the winner is mapped onto the box. Ties keep the earliest
    candidate, so the result is deterministic given the seed.
    """
    if isinstance(count, LhsConfig):
        return lhs_maximin(*count)
    if count < 1:
        raise ValueError("need count >= 1")
    if candidate_rounds < 1:
        raise ValueError("need at least one candidate round")
    box = ParameterDomain(lows, highs)  # 1d bounds of equal length, lows < highs
    rng = np.random.default_rng(seed)
    best = None
    best_score = -np.inf
    for _ in range(candidate_rounds):
        u = latin_design(rng, count, box.dim)
        score = min_pairwise_distance(u)
        if score > best_score:
            best, best_score = u, score
    return box.lows + best * (box.highs - box.lows)


def reduced_state_box(basis: ReducedBasis, snapshots, inflate: float = 0.1):
    """Componentwise bounds of projected snapshots, widened per side.

    `snapshots` is a full-order state matrix (columns are states). The
    returned (lows, highs) pad each coordinate range by `inflate` times
    its width so that trajectories straying slightly beyond the sampled
    corners stay inside the training support.
    """
    z = basis.project(np.asarray(snapshots, dtype=float))
    lo = z.min(axis=1)
    hi = z.max(axis=1)
    width = hi - lo
    return lo - inflate * width, hi + inflate * width


def joint_box(state_lows, state_highs, t_final: float, domain: ParameterDomain):
    """Concatenate the (xhat, t, mu) blocks into one sampling box."""
    lows = np.concatenate([state_lows, [0.0], domain.lows])
    highs = np.concatenate([state_highs, [t_final], domain.highs])
    return lows, highs


@dataclass
class TrainingSet:
    """Input rows (xhat, t, mu) with regression targets and the source box."""

    inputs: np.ndarray
    targets: np.ndarray
    n_state: int
    n_params: int
    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets need equal row counts")
        if self.inputs.shape[1] != self.n_state + 1 + self.n_params:
            raise ValueError("input width must be n_state + 1 + n_params")
        inside = (self.inputs >= self.lows - 1e-12) & (self.inputs <= self.highs + 1e-12)
        if not np.all(inside):
            raise ValueError("some inputs fall outside the declared box")

    def column_names(self):
        names = [f"xhat_{i}" for i in range(self.n_state)]
        names.append("t")
        names += [f"mu_{i}" for i in range(self.n_params)]
        names += [f"target_{i}" for i in range(self.targets.shape[1])]
        return names

    def to_csv(self, path):
        rows = (
            [io.format_double(v) for v in np.concatenate([zin, zout])]
            for zin, zout in zip(self.inputs, self.targets)
        )
        io.write_csv(path, self.column_names(), rows)

    def save(self, csv_path, meta_path):
        self.to_csv(csv_path)
        io.write_keyvalues(
            meta_path,
            {
                "n_state": self.n_state,
                "n_params": self.n_params,
                "lows": " ".join(io.format_double(v) for v in self.lows),
                "highs": " ".join(io.format_double(v) for v in self.highs),
            },
        )

    @classmethod
    def load(cls, csv_path, meta_path):
        meta = io.read_keyvalues(meta_path)
        n_state = int(meta["n_state"])
        n_params = int(meta["n_params"])
        _, rows = io.read_csv(csv_path)
        table = np.array(rows, dtype=float)
        d = n_state + 1 + n_params
        return cls(
            table[:, :d],
            table[:, d:],
            n_state,
            n_params,
            np.array(meta["lows"].split(), dtype=float),
            np.array(meta["highs"].split(), dtype=float),
        )


def split_input(z, n_state: int):
    """One joint row -> (xhat, t, mu)."""
    z = np.asarray(z, dtype=float)
    return z[:n_state], float(z[n_state]), z[n_state + 1 :]


def build_training_set(
    rom: GalerkinROM,
    points: np.ndarray,
    lows,
    highs,
) -> TrainingSet:
    """Record the projected velocity at each joint (xhat, t, mu) input row."""
    points = np.asarray(points, dtype=float)
    n = rom.dim
    p = rom.domain.dim
    if points.ndim != 2 or points.shape[1] != n + 1 + p:
        raise ValueError("points must be rows over the joint (xhat, t, mu) box")
    targets = np.empty((points.shape[0], n))
    for i, row in enumerate(points):
        xhat, t, mu = split_input(row, n)
        targets[i] = rom.velocity(xhat, t, mu)
    return TrainingSet(points, targets, n, p, np.asarray(lows), np.asarray(highs))
