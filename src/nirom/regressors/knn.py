"""k-nearest-neighbor regression: mean of the K closest training targets.

Distances are Euclidean on box-scaled inputs. Ties at the K-th distance
keep the lowest training-row index, via a stable argsort, so predictions
are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .base import FittedRegressor, RegressorSpec, scale_to_box


class KNNRegressor(FittedRegressor):
    differentiable = False

    def __init__(self, spec, lows, highs, inputs_scaled, targets):
        targets = np.asarray(targets, dtype=float)
        super().__init__(spec, lows, highs, targets.shape[1])
        self.k = int(spec["n_neighbors"])
        if self.k > inputs_scaled.shape[0]:
            raise ValueError(f"K={self.k} exceeds the {inputs_scaled.shape[0]} rows")
        self.inputs_scaled = np.asarray(inputs_scaled, dtype=float)
        self.targets = targets

    @classmethod
    def fit(cls, spec: RegressorSpec, X, Y, lows, highs) -> "KNNRegressor":
        return cls(spec, lows, highs, scale_to_box(X, lows, highs), Y)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        d = cdist(U, self.inputs_scaled)
        idx = np.argsort(d, axis=1, kind="stable")[:, : self.k]
        return self.targets[idx].mean(axis=1)

    def payload(self) -> dict:
        return {"inputs_scaled": self.inputs_scaled.T, "targets": self.targets.T}

    @classmethod
    def from_payload(cls, spec, lows, highs, payload):
        return cls(spec, lows, highs, payload["inputs_scaled"].T, payload["targets"].T)
