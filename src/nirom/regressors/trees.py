"""Regression-tree ensembles: bootstrap random forest and gradient boosting.

Trees are grown by exhaustive variance-reduction splits (sum of squared
errors across all output components). Leaves store the mean target of
the rows they received. The forest averages deep trees built on
bootstrap samples with a random feature subset per split; boosting fits
shallow trees to the running residual of a squared-loss stage-wise model.
A ``max_depth`` of 0 means unlimited depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FittedRegressor, RegressorSpec, scale_to_box

_NO_SPLIT = -1


@dataclass
class Tree:
    """Flat arrays: feature < 0 marks a leaf; children index into the arrays."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict_many(self, U: np.ndarray) -> np.ndarray:
        out = np.empty((U.shape[0], self.value.shape[1]))
        active = {0: np.arange(U.shape[0])}
        while active:
            node, rows = active.popitem()
            if self.feature[node] < 0:
                out[rows] = self.value[node]
                continue
            go_left = U[rows, self.feature[node]] <= self.threshold[node]
            if go_left.any():
                active[self.left[node]] = rows[go_left]
            if not go_left.all():
                active[self.right[node]] = rows[~go_left]
        return out

    def to_payload(self, tag: str) -> dict:
        nodes = np.column_stack(
            [self.feature, self.threshold, self.left, self.right]
        ).astype(float)
        return {f"{tag}_nodes": nodes, f"{tag}_values": self.value}

    @classmethod
    def from_payload(cls, tag: str, payload: dict) -> "Tree":
        nodes = payload[f"{tag}_nodes"]
        return cls(
            nodes[:, 0].astype(int),
            nodes[:, 1].copy(),
            nodes[:, 2].astype(int),
            nodes[:, 3].astype(int),
            payload[f"{tag}_values"],
        )


def _best_split(U, Y, rows, features, min_leaf):
    """Maximum SSE reduction over candidate (feature, threshold) pairs.

    Returns (feature, threshold, rows_left, rows_right) or None when no
    admissible split improves on the parent node.
    """
    y = Y[rows]
    m = rows.size
    sum_all = y.sum(axis=0)
    sq_all = float(np.sum(y * y))
    sse_parent = sq_all - float(np.dot(sum_all, sum_all)) / m
    best = None
    best_sse = sse_parent - 1e-12
    for f in features:
        order = np.argsort(U[rows, f], kind="stable")
        vals = U[rows[order], f]
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csq = np.cumsum(np.sum(ys * ys, axis=1))
        counts = np.arange(1, m)
        boundary = vals[:-1] < vals[1:]
        ok = boundary & (counts >= min_leaf) & (m - counts >= min_leaf)
        if not ok.any():
            continue
        left_sq = csq[:-1]
        left_lin = np.sum(csum[:-1] ** 2, axis=1) / counts
        right_sq = sq_all - left_sq
        right_lin = np.sum((sum_all - csum[:-1]) ** 2, axis=1) / (m - counts)
        sse = (left_sq - left_lin) + (right_sq - right_lin)
        sse = np.where(ok, sse, np.inf)
        i = int(np.argmin(sse))
        if sse[i] < best_sse:
            best_sse = float(sse[i])
            thr = 0.5 * (vals[i] + vals[i + 1])
            best = (f, thr, rows[order[: i + 1]], rows[order[i + 1 :]])
    return best


def build_tree(U, Y, rows, rng, max_depth, min_leaf, n_split_features) -> Tree:
    feature, threshold, left, right, value = [], [], [], [], []
    depth_cap = max_depth if max_depth > 0 else np.inf
    d = U.shape[1]
    mtry = n_split_features if n_split_features > 0 else max(1, d // 3)
    mtry = min(mtry, d)

    def grow(node_rows, depth):
        idx = len(feature)
        feature.append(_NO_SPLIT)
        threshold.append(0.0)
        left.append(_NO_SPLIT)
        right.append(_NO_SPLIT)
        value.append(Y[node_rows].mean(axis=0))
        if depth >= depth_cap or node_rows.size < 2 * min_leaf:
            return idx
        if rng is None:
            feats = np.arange(d)
        else:
            feats = np.sort(rng.choice(d, size=mtry, replace=False))
        split = _best_split(U, Y, node_rows, feats, min_leaf)
        if split is None:
            return idx
        f, thr, rows_l, rows_r = split
        feature[idx] = f
        threshold[idx] = thr
        left[idx] = grow(rows_l, depth + 1)
        right[idx] = grow(rows_r, depth + 1)
        return idx

    grow(rows, 0)
    return Tree(
        np.asarray(feature), np.asarray(threshold),
        np.asarray(left), np.asarray(right), np.vstack(value),
    )


class ForestRegressor(FittedRegressor):
    differentiable = False

    def __init__(self, spec, lows, highs, trees):
        super().__init__(spec, lows, highs, trees[0].value.shape[1])
        self.trees = list(trees)

    @classmethod
    def fit(cls, spec: RegressorSpec, X, Y, lows, highs) -> "ForestRegressor":
        U = scale_to_box(X, lows, highs)
        Y = np.asarray(Y, dtype=float)
        m = U.shape[0]
        seeds = np.random.SeedSequence(spec.seed).spawn(int(spec["n_trees"]))
        trees = []
        for seq in seeds:
            rng = np.random.default_rng(seq)
            rows = rng.integers(0, m, size=m)
            trees.append(
                build_tree(
                    U, Y, rows, rng,
                    int(spec["max_depth"]), int(spec["min_leaf"]),
                    int(spec["n_split_features"]),
                )
            )
        return cls(spec, lows, highs, trees)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        acc = self.trees[0].predict_many(U).copy()
        for tree in self.trees[1:]:
            acc += tree.predict_many(U)
        return acc / len(self.trees)

    def payload(self) -> dict:
        out = {"n_trees": np.array([[float(len(self.trees))]])}
        for i, tree in enumerate(self.trees):
            out.update(tree.to_payload(f"tree{i}"))
        return out

    @classmethod
    def from_payload(cls, spec, lows, highs, output_dim, payload):
        count = int(payload["n_trees"][0, 0])
        trees = [Tree.from_payload(f"tree{i}", payload) for i in range(count)]
        return cls(spec, lows, highs, trees)


class BoostingRegressor(FittedRegressor):
    differentiable = False

    def __init__(self, spec, lows, highs, base_value, trees):
        base_value = np.asarray(base_value, dtype=float)
        super().__init__(spec, lows, highs, base_value.size)
        self.base_value = base_value
        self.trees = list(trees)
        self.learning_rate = float(spec["learning_rate"])

    @classmethod
    def fit(cls, spec: RegressorSpec, X, Y, lows, highs) -> "BoostingRegressor":
        U = scale_to_box(X, lows, highs)
        Y = np.asarray(Y, dtype=float)
        rows = np.arange(U.shape[0])
        base = Y.mean(axis=0)
        current = np.tile(base, (U.shape[0], 1))
        lr = float(spec["learning_rate"])
        trees = []
        for _ in range(int(spec["n_learners"])):
            tree = build_tree(
                U, Y - current, rows, None, int(spec["max_depth"]), 1, 0
            )
            current += lr * tree.predict_many(U)
            trees.append(tree)
        return cls(spec, lows, highs, base, trees)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        acc = np.tile(self.base_value, (U.shape[0], 1))
        for tree in self.trees:
            acc += self.learning_rate * tree.predict_many(U)
        return acc

    def payload(self) -> dict:
        out = {
            "n_trees": np.array([[float(len(self.trees))]]),
            "base_value": self.base_value[None, :],
        }
        for i, tree in enumerate(self.trees):
            out.update(tree.to_payload(f"tree{i}"))
        return out

    @classmethod
    def from_payload(cls, spec, lows, highs, output_dim, payload):
        count = int(payload["n_trees"][0, 0])
        trees = [Tree.from_payload(f"tree{i}", payload) for i in range(count)]
        return cls(spec, lows, highs, payload["base_value"][0], trees)
