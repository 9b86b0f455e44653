"""Hyperparameter sweeps over fixed train/validation sets.

The error measure is the relative Frobenius norm of the stacked residual,
||prediction - target||_F / ||target||_F, computed on whole datasets. The
sweep picks the validation-error minimizer; exact ties go to the smaller
model, then to sweep order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core import relative_error
from ..sampling import TrainingSet
from .base import FittedRegressor, RegressorSpec

_SIZE_KEYS = {
    "knn": "n_neighbors",
    "sindy": "degree",
    "vkoga": "max_centers",
    "forest": "n_trees",
    "boosting": "n_learners",
}


def dataset_error(model: FittedRegressor, data: TrainingSet) -> float:
    return relative_error(model.predict_many(data.inputs), data.targets)


def model_size(spec: RegressorSpec) -> float:
    key = _SIZE_KEYS.get(spec.family)
    return spec[key] if key else float("inf")


@dataclass
class SweepEntry:
    spec: RegressorSpec
    train_error: float
    valid_error: float
    note: str = ""


@dataclass
class ValidationReport:
    entries: List[SweepEntry]
    chosen_index: int

    @property
    def chosen(self) -> SweepEntry:
        return self.entries[self.chosen_index]


def cross_validate(
    specs: List[RegressorSpec],
    train: TrainingSet,
    valid: TrainingSet,
    fit=None,
) -> ValidationReport:
    """Fit every spec on `train`, score on both sets, pick the best.

    A failing fit is recorded with infinite errors and its message; the
    sweep continues. The chosen entry minimizes validation error, with
    ties resolved toward the smaller model so that equal-quality settings
    do not drift upward in cost.
    """
    if fit is None:
        from . import fit
    entries = []
    for spec in specs:
        try:
            model = fit(spec, train)
            entries.append(
                SweepEntry(spec, dataset_error(model, train), dataset_error(model, valid))
            )
        except Exception as exc:
            entries.append(SweepEntry(spec, np.inf, np.inf, note=str(exc)))
    order = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].valid_error, model_size(entries[i].spec), i),
    )
    return ValidationReport(entries, order[0])
