"""Sweep selection, tie-breaking, failure capture, and the error measure."""

import numpy as np
import pytest

from nirom.regressors import RegressorSpec
from nirom.regressors.validation import (
    cross_validate,
    dataset_error,
    model_size,
    relative_error,
)
from nirom.sampling import TrainingSet


def make_set(m, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    inputs = np.column_stack([X[:, :1], np.full(m, 0.5), X[:, 1:]])
    targets = np.sin(3.0 * inputs[:, :1]) + inputs[:, 2:] ** 2
    if noise:
        targets = targets + noise * rng.standard_normal(targets.shape)
    return TrainingSet(inputs, targets, 1, 1,
                       np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))


class TestErrorMeasure:
    def test_relative_error_hand_value(self):
        pred = np.array([[3.0, 0.0]])
        target = np.array([[0.0, 4.0]])
        assert relative_error(pred, target) == pytest.approx(5.0 / 4.0, abs=1e-15)

    def test_zero_target_falls_back_to_absolute(self):
        assert relative_error(np.array([[3.0]]), np.zeros((1, 1))) == 3.0

    def test_dataset_error_uses_the_model_batch_path(self):
        data = make_set(30, 0)
        from nirom.regressors import fit

        model = fit(RegressorSpec("knn", {"n_neighbors": 1}), data)
        assert dataset_error(model, data) == pytest.approx(0.0, abs=1e-14)

    def test_model_size_keys(self):
        assert model_size(RegressorSpec("knn", {"n_neighbors": 4})) == 4.0
        assert model_size(RegressorSpec("forest", {"n_trees": 15})) == 15.0
        assert model_size(RegressorSpec("svr")) == float("inf")


class TestCrossValidate:
    def test_picks_the_validation_minimizer(self):
        train = make_set(200, 1, noise=0.15)
        valid = make_set(60, 2)
        specs = [RegressorSpec("knn", {"n_neighbors": k}) for k in (1, 4, 100)]
        report = cross_validate(specs, train, valid)
        errors = [e.valid_error for e in report.entries]
        assert report.chosen_index == int(np.argmin(errors))
        # K = 1 memorizes noisy training data, K = 100 underfits badly
        assert report.entries[0].train_error < 1e-12
        assert report.chosen.spec["n_neighbors"] == 4

    def test_ties_prefer_the_smaller_model(self):
        train = make_set(20, 3)
        valid = make_set(10, 4)

        def flat_fit(spec, data):
            class Constant:
                def predict_many(self, Z):
                    return np.zeros((Z.shape[0], 1))

            return Constant()

        specs = [RegressorSpec("forest", {"n_trees": n}) for n in (20, 5, 10)]
        report = cross_validate(specs, train, valid, fit=flat_fit)
        assert report.chosen.spec["n_trees"] == 5

    def test_failed_fits_are_recorded_not_raised(self):
        train = make_set(10, 5)
        valid = make_set(5, 6)
        specs = [
            RegressorSpec("knn", {"n_neighbors": 50}),  # more neighbors than rows
            RegressorSpec("knn", {"n_neighbors": 2}),
        ]
        report = cross_validate(specs, train, valid)
        assert np.isinf(report.entries[0].valid_error)
        assert "exceeds" in report.entries[0].note
        assert report.chosen_index == 1
