"""Regression-tree ensembles: bootstrap random forest and gradient boosting.

Trees are grown by exhaustive variance-reduction splits (sum of squared
errors across all output components). Leaves store the mean target of
the rows they received. The forest averages deep trees built on
bootstrap samples with a random feature subset per split; boosting fits
shallow trees to the running residual of a squared-loss stage-wise model.
A ``max_depth`` of 0 means unlimited depth.

An ensemble packs its trees into one node array: the trees' nodes are
concatenated, each tree starts at its root offset and every leaf is its
own left and right child. A prediction moves every (row, tree) pair down
one level per vectorized step (``<=`` the threshold goes left) until none
moves, as in QuickScorer (Lucchese et al., SIGIR 2015), then adds the
leaf values tree by tree in tree order. Saved models keep per-tree
(feature, threshold, left, right) node blocks, with -1 at leaves, and
value blocks; self-pointing leaves exist only in memory.
"""

from __future__ import annotations

import numpy as np

from .base import FittedRegressor, RegressorSpec, scale_to_box

_NO_SPLIT = -1


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


def build_tree(U, Y, rows, rng, max_depth, min_leaf, n_split_features):
    """Grow one tree on ``rows``; returns its (nodes, values) saved blocks."""
    nodes, values = [], []
    depth_cap = max_depth if max_depth > 0 else np.inf
    d = U.shape[1]
    mtry = n_split_features if n_split_features > 0 else max(1, d // 3)
    mtry = min(mtry, d)

    def grow(node_rows, depth):
        idx = len(nodes)
        nodes.append([_NO_SPLIT, 0.0, _NO_SPLIT, _NO_SPLIT])
        values.append(Y[node_rows].mean(axis=0))
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
        # left to right: the left subtree takes the lower (preorder) indices
        nodes[idx] = [f, thr, grow(rows_l, depth + 1), grow(rows_r, depth + 1)]
        return idx

    grow(rows, 0)
    return np.array(nodes, dtype=float), np.vstack(values)


class _TreeEnsemble(FittedRegressor):
    """Packing, the walk and persistence shared by both ensembles.

    ``trees`` holds one (nodes, values) pair per tree in the saved layout.
    Subclasses add ``fit`` and combine the leaf values in ``_predict_scaled``;
    ``_head`` names the (1, n) blocks a subclass saves after ``n_trees``.
    """

    differentiable = False
    _head = ()

    def __init__(self, spec, lows, highs, trees):
        sizes = [len(nodes) for nodes, _ in trees]
        self.nodes, self.values = map(np.vstack, zip(*trees))
        super().__init__(spec, lows, highs, self.values.shape[1])
        self.roots = np.cumsum([0] + sizes[:-1])
        leaf = self.nodes[:, :1] < 0
        self.feature = np.where(leaf[:, 0], 0, self.nodes[:, 0]).astype(np.intp)
        self.threshold = self.nodes[:, 1]
        # node i moves to step[2 i + (goes left)]; a leaf moves to itself
        children = self.nodes[:, [3, 2]] + np.repeat(self.roots, sizes)[:, None]
        here = np.arange(len(self.nodes))[:, None]
        self.step = np.where(leaf, here, children).astype(np.intp).ravel()

    def _leaf_values(self, U) -> np.ndarray:
        """The leaf value each row reaches in each tree, (rows, trees, outputs)."""
        rows = np.arange(U.shape[0])[:, None]
        at = np.broadcast_to(self.roots, (U.shape[0], self.roots.size))
        while True:
            goes_left = U[rows, self.feature[at]] <= self.threshold[at]
            moved = self.step[2 * at + goes_left]
            if (moved == at).all():
                return self.values[at]
            at = moved

    def payload(self) -> dict:
        out = {"n_trees": np.array([[float(self.roots.size)]])}
        out.update({name: getattr(self, name)[None, :] for name in self._head})
        ends = [*self.roots[1:], self.nodes.shape[0]]
        for i, (start, end) in enumerate(zip(self.roots, ends)):
            out[f"tree{i}_nodes"] = self.nodes[start:end]
            out[f"tree{i}_values"] = self.values[start:end]
        return out

    @classmethod
    def from_payload(cls, spec, lows, highs, output_dim, payload):
        count = int(payload["n_trees"][0, 0])
        trees = [
            (payload[f"tree{i}_nodes"], payload[f"tree{i}_values"])
            for i in range(count)
        ]
        return cls(spec, lows, highs, trees, *(payload[k][0] for k in cls._head))


class ForestRegressor(_TreeEnsemble):
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
        leaves = self._leaf_values(U)
        acc = leaves[:, 0].copy()
        for k in range(1, self.roots.size):
            acc += leaves[:, k]
        return acc / self.roots.size


class BoostingRegressor(_TreeEnsemble):
    _head = ("base_value",)

    def __init__(self, spec, lows, highs, trees, base_value):
        super().__init__(spec, lows, highs, trees)
        self.base_value = np.asarray(base_value, dtype=float)
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
            stage = _TreeEnsemble(spec, lows, highs, [tree])
            current += lr * stage._leaf_values(U)[:, 0]
            trees.append(tree)
        return cls(spec, lows, highs, trees, base)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        leaves = self.learning_rate * self._leaf_values(U)
        acc = np.tile(self.base_value, (U.shape[0], 1))
        for k in range(self.roots.size):
            acc += leaves[:, k]
        return acc
