"""Regression families for the reduced velocity, behind one fit/predict API."""

from __future__ import annotations

import numpy as np

from ..sampling import TrainingSet
from .base import (
    FAMILY_DEFAULTS,
    FittedRegressor,
    RegressorSpec,
    load_model,
    parse_model_line,
    save_model,
    scale_to_box,
)
from .knn import KNNRegressor
from .sindy import SINDyRegressor
from .svr import SVRRegressor
from .trees import BoostingRegressor, ForestRegressor
from .vkoga import VKOGARegressor

_FAMILY_CLASSES = {
    "knn": KNNRegressor,
    "sindy": SINDyRegressor,
    "vkoga": VKOGARegressor,
    "forest": ForestRegressor,
    "boosting": BoostingRegressor,
    "svr": SVRRegressor,
}


def fit(spec: RegressorSpec, data: TrainingSet) -> FittedRegressor:
    """Train one regressor on a dataset, scaling by the dataset's box."""
    return fit_arrays(spec, data.inputs, data.targets, data.lows, data.highs)


def fit_arrays(spec: RegressorSpec, X, Y, lows=None, highs=None) -> FittedRegressor:
    """Train from raw arrays; the box defaults to the empirical input range.
    The family fits on the inputs scaled to the unit cube of that box. A
    non-finite input or target raises a ValueError naming its row and column."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("empty training set")
    for name, arr in (("input", X), ("target", Y)):
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"{spec.family} fit: {name} row {row}, column {col} "
                             f"is {arr[row, col]}, not finite")
    if lows is None:
        lows = X.min(axis=0)
    if highs is None:
        highs = X.max(axis=0)
    U = scale_to_box(X, lows, highs)
    return _FAMILY_CLASSES[spec.family].fit(spec, U, Y, lows, highs)


__all__ = [
    "FAMILY_DEFAULTS",
    "FittedRegressor",
    "RegressorSpec",
    "BoostingRegressor",
    "ForestRegressor",
    "KNNRegressor",
    "SINDyRegressor",
    "SVRRegressor",
    "VKOGARegressor",
    "fit",
    "fit_arrays",
    "load_model",
    "parse_model_line",
    "save_model",
]
