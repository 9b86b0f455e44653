"""Shared regressor contract: specs, input scaling, persistence.

Every family maps a joint input z = (xhat, t, mu) to an output in R^n and
scales inputs coordinatewise to [0, 1] with the training box before any
distance, kernel or library evaluation, since the coordinates carry
incommensurate units. Jacobians, where a family has them, are returned
with the chain-rule factor of that scaling already applied, so they are
derivatives with respect to the raw inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import io
from ..core import CapabilityError

FAMILY_DEFAULTS = {
    "knn": {"n_neighbors": 6},
    "sindy": {"degree": 2, "threshold": 1e-3},
    "vkoga": {"gamma": 1.0, "max_centers": 500},
    "forest": {"n_trees": 15, "max_depth": 0, "min_leaf": 1, "n_split_features": 0},
    "boosting": {"n_learners": 40, "learning_rate": 0.1, "max_depth": 3},
    "svr": {"kernel": "rbf", "epsilon": 1e-3, "c_box": 1e3, "gamma": 1.0},
}

_COUNT_PARAMS = {
    "n_neighbors", "degree", "max_centers", "n_trees", "min_leaf",
    "n_learners", "max_depth",
}
_POSITIVE_PARAMS = {"gamma", "learning_rate", "c_box"}

_DISPLAY = {
    "knn": "kNN",
    "sindy": "SINDy",
    "vkoga": "VKOGA",
    "forest": "Random forest",
    "boosting": "Boosting",
}


@dataclass(frozen=True)
class RegressorSpec:
    """Family tag plus hyperparameters (missing ones take family defaults)."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_DEFAULTS:
            raise ValueError(f"unknown family {self.family!r}")
        merged = dict(FAMILY_DEFAULTS[self.family])
        for key, val in self.params.items():
            if key not in merged:
                raise ValueError(f"{self.family} has no hyperparameter {key!r}")
            merged[key] = val
        for key, val in merged.items():
            if key in _COUNT_PARAMS and not (key == "max_depth" and val == 0):
                if int(val) < 1:
                    raise ValueError(f"{key} must be >= 1")
            if key in _POSITIVE_PARAMS and not val > 0:
                raise ValueError(f"{key} must be > 0")
        if self.family == "svr" and merged["kernel"] not in ("poly2", "poly3", "rbf"):
            raise ValueError(f"unknown svr kernel {merged['kernel']!r}")
        if self.family == "sindy" and int(merged["degree"]) not in (1, 2):
            raise ValueError("sindy library degree must be 1 or 2")
        object.__setattr__(self, "params", merged)

    def __getitem__(self, key):
        return self.params[key]

    @property
    def label(self) -> str:
        if self.family == "svr":
            return {"poly2": "SVR2", "poly3": "SVR3", "rbf": "SVRrbf"}[
                self.params["kernel"]
            ]
        return _DISPLAY[self.family]


def scale_to_box(X, lows, highs) -> np.ndarray:
    """Map raw inputs onto the unit cube of the given box (rows or single)."""
    lows = np.asarray(lows, dtype=float)
    width = np.asarray(highs, dtype=float) - lows
    width = np.where(width > 0, width, 1.0)
    return (np.asarray(X, dtype=float) - lows) / width


class FittedRegressor:
    """Base for fitted models: input scaling, box diagnostics, persistence."""

    differentiable = False

    def __init__(self, spec: RegressorSpec, input_lows, input_highs, output_dim: int):
        self.spec = spec
        self.input_lows = np.asarray(input_lows, dtype=float)
        self.input_highs = np.asarray(input_highs, dtype=float)
        width = self.input_highs - self.input_lows
        self._width = np.where(width > 0, width, 1.0)
        self.input_dim = self.input_lows.size
        self.output_dim = int(output_dim)

    def scale(self, z) -> np.ndarray:
        return (np.asarray(z, dtype=float) - self.input_lows) / self._width

    def in_box(self, Z) -> np.ndarray:
        """Whether each row of Z (or the single point Z) lies in the box."""
        Z = np.asarray(Z, dtype=float)
        return np.all((Z >= self.input_lows) & (Z <= self.input_highs), axis=-1)

    def _check_dim(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.input_dim:
            raise ValueError(f"input width {z.shape[-1]}, expected {self.input_dim}")
        return z

    def predict(self, z) -> np.ndarray:
        z = self._check_dim(z)
        return self._predict_scaled(self.scale(z)[None, :])[0]

    def predict_many(self, Z) -> np.ndarray:
        Z = np.atleast_2d(self._check_dim(np.asarray(Z, dtype=float)))
        return self._predict_scaled(self.scale(Z))

    def jacobian(self, z) -> np.ndarray:
        if not self.differentiable:
            raise CapabilityError(
                f"{self.spec.label} is not differentiable; use fixed_point"
            )
        z = self._check_dim(z)
        return self._jacobian_scaled(self.scale(z)) / self._width[None, :]

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # persistence -----------------------------------------------------

    def payload(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, spec, lows, highs, payload) -> "FittedRegressor":
        raise NotImplementedError


def _format_param(v):
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return io.format_double(v)
    return str(v)


def _parse_param(s: str):
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def parse_model_line(line: str) -> RegressorSpec:
    """'family key=value ... seed=N' -> RegressorSpec (seed is a key like any
    other); values parse as int, else float, else text."""
    family, *tokens = line.split()
    params = {}
    seed = 0
    for tok in tokens:
        key, _, val = tok.partition("=")
        if key == "seed":
            seed = int(val)
        else:
            params[key] = _parse_param(val)
    return RegressorSpec(family, params, seed=seed)


def save_model(model: FittedRegressor, path) -> None:
    """Family-tagged plain text: model line, dimension line, payload blocks."""
    spec = model.spec
    params = " ".join(
        f"{k}={_format_param(v)}" for k, v in sorted(spec.params.items())
    )
    with open(path, "w") as fh:
        fh.write(f"family {spec.family} seed={spec.seed} {params}\n")
        fh.write(f"dims {model.input_dim} {model.output_dim}\n")
        blocks = {"box": np.vstack([model.input_lows, model.input_highs])}
        blocks.update(model.payload())
        for name, mat in blocks.items():
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            io.write_block(fh, mat, f"@{name} ")


def load_model(path) -> FittedRegressor:
    from . import family_class  # local import to avoid a cycle

    with open(path) as fh:
        head = fh.readline().split(None, 1)
        if len(head) != 2 or head[0] != "family":
            raise ValueError(f"{path}: not a model file")
        spec = parse_model_line(head[1])
        dims = fh.readline().split()
        input_dim, output_dim = int(dims[1]), int(dims[2])
        payload = {}
        line = fh.readline()
        while line:
            tag, rows, cols = line.split()
            payload[tag[1:]] = io.read_block(fh, int(rows), int(cols), path)
            line = fh.readline()
    box = payload.pop("box")
    model = family_class(spec.family).from_payload(spec, box[0], box[1], payload)
    if (model.input_dim, model.output_dim) != (input_dim, output_dim):
        raise ValueError(f"{path}: dimension line disagrees with the model blocks")
    return model
