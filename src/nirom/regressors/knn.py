"""k-nearest-neighbor regression: mean of the K closest training targets.

Distances are Euclidean on box-scaled inputs. Ties at the K-th distance
keep the lowest training-row index, via a stable argsort, so predictions
are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .base import FittedRegressor, RegressorSpec


class KNNRegressor(FittedRegressor):
    _saved = (("inputs_scaled", True), ("targets", True))

    def __init__(self, spec, lows, highs, inputs_scaled, targets):
        super().__init__(spec, lows, highs, targets.shape[1])
        self.k = spec["n_neighbors"]
        if self.k > inputs_scaled.shape[0]:
            raise ValueError(f"K={self.k} exceeds the {inputs_scaled.shape[0]} rows")
        self.inputs_scaled = inputs_scaled
        self.targets = targets

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "KNNRegressor":
        return cls(spec, lows, highs, U, Y)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        d = cdist(U, self.inputs_scaled)
        idx = np.argsort(d, axis=1, kind="stable")[:, : self.k]
        return self.targets[idx].mean(axis=1)
