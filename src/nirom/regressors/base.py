"""Shared regressor contract: specs, input scaling, persistence.

Every family maps a joint input z = (xhat, t, mu) to an output in R^n and
scales inputs coordinatewise to [0, 1] with the training box before any
distance, kernel or library evaluation, since the coordinates carry
incommensurate units. Jacobians, where a family has them, are returned
with the chain-rule factor of that scaling already applied, so they are
derivatives with respect to the raw inputs. ``fit_arrays`` scales the
training inputs once and hands each family's ``fit`` the scaled rows.
``RegressorSpec`` gives each hyperparameter the type of its default.

A family names its saved constructor arrays in ``_saved`` for the shared
``payload``/``from_payload``; a loaded model holds them C-ordered, as the
fitted one does, so it predicts bit for bit like the model that was fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

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

# an int is a whole number >= 1, or >= 0 for these: max_depth=0 means
# unlimited depth, n_split_features=0 the automatic count; seeds start at 0
_ZERO_ALLOWED = {"max_depth", "n_split_features", "seed"}
# a float is finite and >= 0, or > 0 for these: threshold=0 means no
# sparsification and epsilon=0 no tube
_POSITIVE_PARAMS = {"gamma", "learning_rate", "c_box"}

# display labels by family, and by kernel for svr
_DISPLAY = {
    "knn": "kNN",
    "sindy": "SINDy",
    "vkoga": "VKOGA",
    "forest": "Random forest",
    "boosting": "Boosting",
    "poly2": "SVR2",
    "poly3": "SVR3",
    "rbf": "SVRrbf",
}


def _typed(key: str, default, val):
    """``val``, a number or its text, as the type of ``default``, range-checked."""
    if isinstance(default, str):
        return str(val)
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise ValueError(f"{key}={val!r}: not a number") from None
    if isinstance(default, float):
        positive = key in _POSITIVE_PARAMS
        if not (math.isfinite(num) and (num > 0 if positive else num >= 0)):
            bound = "> 0" if positive else ">= 0"
            raise ValueError(f"{key}={val!r}: must be finite and {bound}")
        return num
    least = 0 if key in _ZERO_ALLOWED else 1
    if not (num.is_integer() and num >= least):
        raise ValueError(f"{key}={val!r}: must be a whole number >= {least}")
    try:
        return int(val)  # exact for ints and digit text
    except ValueError:
        return int(num)  # integral text such as 1e1


@dataclass(frozen=True)
class RegressorSpec:
    """Family tag plus hyperparameters (missing ones take family defaults).
    Each value, a number or its text, takes the type of its default; one of
    the wrong kind or out of range raises a ValueError naming the key."""

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
            merged[key] = _typed(key, merged[key], val)
        if self.family == "svr" and merged["kernel"] not in ("poly2", "poly3", "rbf"):
            raise ValueError(f"unknown svr kernel {merged['kernel']!r}")
        if self.family == "sindy" and merged["degree"] not in (1, 2):
            raise ValueError("sindy library degree must be 1 or 2")
        object.__setattr__(self, "params", merged)
        object.__setattr__(self, "seed", _typed("seed", 0, self.seed))

    def __getitem__(self, key):
        return self.params[key]

    @property
    def label(self) -> str:
        return _DISPLAY[self.params["kernel"] if self.family == "svr" else self.family]


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
        Z = np.atleast_2d(self._check_dim(Z))
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

    # (block name, whether the file holds the transpose) for each array the
    # constructor takes after (spec, lows, highs), in argument order
    _saved = ()

    def payload(self) -> dict:
        return {
            n: getattr(self, n).T if t else getattr(self, n) for n, t in self._saved
        }

    @classmethod
    def from_payload(cls, spec, lows, highs, payload) -> "FittedRegressor":
        # C-ordered, as a fit passes them: matrix products sum in an order
        # that follows the layout, so another layout changes the last bits
        arrays = (payload[n].T if t else payload[n] for n, t in cls._saved)
        return cls(spec, lows, highs, *map(np.ascontiguousarray, arrays))


def parse_model_line(line: str) -> RegressorSpec:
    """'family key=value ... seed=N' -> RegressorSpec. ``seed`` is a key like
    any other; the values pass as text, and the spec types them."""
    family, *tokens = line.split()
    params = dict(tok.partition("=")[::2] for tok in tokens)
    seed = params.pop("seed", 0)
    return RegressorSpec(family, params, seed=seed)


def save_model(model: FittedRegressor, path) -> None:
    """Family-tagged plain text: model line, dimension line, payload blocks."""
    spec = model.spec
    params = " ".join(
        f"{k}={io.format_double(v) if isinstance(v, float) else v}"
        for k, v in sorted(spec.params.items())
    )
    with open(path, "w") as fh:
        fh.write(f"family {spec.family} seed={spec.seed} {params}\n")
        fh.write(f"dims {model.input_dim} {model.output_dim}\n")
        blocks = {"box": np.vstack([model.input_lows, model.input_highs])}
        blocks.update(model.payload())
        for name, mat in blocks.items():
            io.write_block(fh, np.atleast_2d(mat), f"@{name} ")


def _block_header(line: str, path):
    """(name, (rows, cols)) of an "@<name> <rows> <cols>" block header."""
    fields = line.split()
    if len(fields) == 3 and fields[0].startswith("@"):
        try:
            return fields[0][1:], (int(fields[1]), int(fields[2]))
        except ValueError:
            pass
    raise ValueError(
        f"{path}: bad block header {line.strip()!r}, want '@<name> <rows> <cols>'"
    )


def load_model(path) -> FittedRegressor:
    from . import _FAMILY_CLASSES  # local import to avoid a cycle

    with open(path) as fh:
        head = fh.readline().split(None, 1)
        if len(head) != 2 or head[0] != "family":
            raise ValueError(f"{path}: not a model file")
        try:
            spec = parse_model_line(head[1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        dims = fh.readline().split()
        payload = {}
        while (line := fh.readline()).strip():
            tag, shape = _block_header(line, path)
            if tag in payload:
                raise ValueError(f"{path}: block @{tag} written twice")
            payload[tag] = io.read_block(fh, *shape, f"{path}: block @{tag}")
        if fh.read().strip():
            raise ValueError(f"{path}: data after the last block")
    try:
        box = payload.pop("box")
        model = _FAMILY_CLASSES[spec.family].from_payload(spec, box[0], box[1], payload)
    except KeyError as exc:
        raise ValueError(f"{path}: no @{exc.args[0]} block") from None
    # from_payload may pop what it reads; what is left must be saved blocks
    unknown = sorted(payload.keys() - model.payload().keys())
    if unknown:
        raise ValueError(f"{path}: unknown block @{unknown[0]}")
    if dims != ["dims", str(model.input_dim), str(model.output_dim)]:
        raise ValueError(f"{path}: {' '.join(dims)!r} disagrees with the model blocks")
    return model
