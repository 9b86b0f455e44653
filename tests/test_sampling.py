"""Latin-hypercube designs, box construction, and dataset assembly."""

import numpy as np
import pytest

from nirom.core import ParameterDomain
from nirom.reduction import GalerkinROM, ReducedBasis
from nirom.sampling import (
    LhsConfig,
    TrainingSet,
    build_training_set,
    joint_box,
    latin_design,
    lhs_maximin,
    min_pairwise_distance,
    reduced_state_box,
    split_input,
)

from conftest import DiagonalDecay


def unit_cfg(count, dim, rounds=4, seed=0):
    return LhsConfig(count, np.zeros(dim), np.ones(dim), rounds, seed)


class TestLhsConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            unit_cfg(0, 2)
        with pytest.raises(ValueError, match="candidate round"):
            LhsConfig(5, np.zeros(2), np.ones(2), candidate_rounds=0)
        with pytest.raises(ValueError, match="equal length"):
            LhsConfig(5, np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="lows < highs"):
            LhsConfig(5, np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_dim_property(self):
        assert unit_cfg(5, 3).dim == 3


class TestLatinDesign:
    def test_each_stratum_holds_exactly_one_point(self):
        rng = np.random.default_rng(0)
        count, dim = 17, 4
        u = latin_design(rng, count, dim)
        assert u.shape == (count, dim)
        assert np.all((u >= 0.0) & (u < 1.0))
        for j in range(dim):
            strata = np.floor(u[:, j] * count).astype(int)
            assert np.array_equal(np.sort(strata), np.arange(count))

    def test_single_point_design(self):
        u = latin_design(np.random.default_rng(1), 1, 3)
        assert u.shape == (1, 3)
        assert np.all((u >= 0.0) & (u < 1.0))


class TestMaximin:
    def test_min_pairwise_distance_hand_value(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert min_pairwise_distance(pts) == pytest.approx(1.0, abs=0.0)
        assert min_pairwise_distance(pts[:1]) == float("inf")

    def test_same_seed_reproduces_the_design_exactly(self):
        cfg = LhsConfig(20, np.array([-1.0, 2.0]), np.array([1.0, 5.0]),
                        candidate_rounds=8, seed=42)
        a = lhs_maximin(cfg)
        b = lhs_maximin(cfg)
        assert np.array_equal(a, b)

    def test_result_lies_in_the_box_and_stays_latin(self):
        lows = np.array([-2.0, 10.0])
        highs = np.array([2.0, 30.0])
        count = 12
        pts = lhs_maximin(LhsConfig(count, lows, highs, candidate_rounds=4, seed=3))
        assert np.all(pts >= lows) and np.all(pts <= highs)
        unit = (pts - lows) / (highs - lows)
        for j in range(2):
            strata = np.floor(unit[:, j] * count).astype(int)
            assert np.array_equal(np.sort(strata), np.arange(count))

    def test_more_rounds_never_reduce_the_maximin_score(self):
        # the first candidate of every run is the same draw, so the
        # best-of-n score is bounded below by the single-round score
        lows, highs = np.zeros(3), np.ones(3)
        one = lhs_maximin(LhsConfig(15, lows, highs, candidate_rounds=1, seed=7))
        many = lhs_maximin(LhsConfig(15, lows, highs, candidate_rounds=32, seed=7))
        assert min_pairwise_distance(many) >= min_pairwise_distance(one)


class TestBoxes:
    def test_reduced_state_box_hand_oracle(self):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        snaps = np.array([[0.0, 2.0, 1.0], [-1.0, 3.0, 0.0]])
        lo, hi = reduced_state_box(basis, snaps)
        # ranges [0, 2] and [-1, 3] widen by 10% of their widths
        assert np.allclose(lo, [-0.2, -1.4], atol=1e-15)
        assert np.allclose(hi, [2.2, 3.4], atol=1e-15)

    def test_reduced_state_box_without_inflation(self):
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        snaps = np.array([[0.0, 2.0], [5.0, -5.0]])
        lo, hi = reduced_state_box(basis, snaps, inflate=0.0)
        assert np.allclose(lo, [0.0, -5.0]) and np.allclose(hi, [2.0, 5.0])

    def test_joint_box_concatenates_state_time_and_parameters(self):
        domain = ParameterDomain(np.array([0.5, 0.01]), np.array([2.0, 0.05]))
        lows, highs = joint_box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]),
                                t_final=25.0, domain=domain)
        assert np.array_equal(lows, [-1.0, -2.0, 0.0, 0.5, 0.01])
        assert np.array_equal(highs, [1.0, 2.0, 25.0, 2.0, 0.05])


class TestTrainingSet:
    def make(self, **over):
        kw = dict(
            inputs=np.array([[0.0, 0.5, 1.0], [1.0, 0.2, 1.5]]),
            targets=np.array([[1.0], [2.0]]),
            n_state=1,
            n_params=1,
            lows=np.array([-1.0, 0.0, 0.5]),
            highs=np.array([2.0, 1.0, 2.0]),
        )
        kw.update(over)
        return TrainingSet(**kw)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            self.make(targets=np.array([[1.0]]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            self.make(n_state=2, lows=np.zeros(4), highs=np.ones(4))

    def test_points_outside_the_box_are_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self.make(lows=np.array([0.5, 0.0, 0.5]))

    def test_subset_keeps_leading_rows(self):
        ts = self.make()
        sub = ts.subset(1)
        assert sub.n_rows == 1
        assert np.array_equal(sub.inputs, ts.inputs[:1])
        assert np.array_equal(sub.targets, ts.targets[:1])

    def test_column_names(self):
        assert self.make().column_names() == ["xhat_0", "t", "mu_0", "target_0"]

    def test_save_load_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1.0, 1.0, size=(9, 4))
        targets = rng.standard_normal((9, 2))
        ts = TrainingSet(inputs, targets, 2, 1, -np.ones(4), np.ones(4))
        ts.save(tmp_path / "d.csv", tmp_path / "d.meta")
        back = TrainingSet.load(tmp_path / "d.csv", tmp_path / "d.meta")
        assert np.array_equal(back.inputs, ts.inputs)
        assert np.array_equal(back.targets, ts.targets)
        assert back.n_state == 2 and back.n_params == 1
        assert np.array_equal(back.lows, ts.lows)
        assert np.array_equal(back.highs, ts.highs)

    def test_split_input(self):
        xhat, t, mu = split_input(np.array([0.1, 0.2, 7.0, 1.5, 2.5]), 2)
        assert np.array_equal(xhat, [0.1, 0.2])
        assert t == 7.0
        assert np.array_equal(mu, [1.5, 2.5])


class TestBuildTrainingSet:
    def setup_method(self):
        self.sys = DiagonalDecay(rates=(1.0, 2.0))
        basis = ReducedBasis(np.eye(2), np.zeros(2), np.ones(2))
        self.rom = GalerkinROM(self.sys, basis)
        self.lows = np.array([-1.0, -1.0, 0.0, 0.5])
        self.highs = np.array([1.0, 1.0, 1.0, 2.0])

    def test_velocity_targets_match_the_projected_model(self):
        points = np.array([
            [0.5, -0.3, 0.2, 1.0],
            [0.1, 0.4, 0.9, 2.0],
        ])
        ts = build_training_set(self.rom, points, self.lows, self.highs)
        assert np.allclose(ts.targets[0], [-0.5, 0.6], atol=1e-15)
        assert np.allclose(ts.targets[1], [-0.2, -1.6], atol=1e-15)

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ValueError, match="joint"):
            build_training_set(self.rom, np.zeros((3, 3)), self.lows, self.highs)
