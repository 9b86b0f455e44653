"""Regression-tree ensembles: bootstrap random forest and gradient boosting.

Trees are grown by exhaustive variance-reduction splits (sum of squared
errors across all output components). Leaves store the mean target of
the rows they received. The forest averages deep trees built on
bootstrap samples with a random feature subset per split; boosting fits
shallow trees to the running residual of a squared-loss stage-wise model.
A ``max_depth`` of 0 means unlimited depth.

Each tree keeps its saved (feature, threshold, left, right) node block,
with -1 at leaves, and its value block. The integrator predicts one row
per call, so a prediction walks each row down each tree from node 0
(``<=`` the threshold goes left) over Python lists made from those blocks,
a few list reads per level. It then adds the leaves' value rows in tree
order: the forest divides their sum by the tree count, and boosting adds
``learning_rate`` times each to its base value.
"""

from __future__ import annotations

import numpy as np

from .base import FittedRegressor, RegressorSpec

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
            if thr == vals[i + 1]:  # adjacent doubles: keep vals[i + 1] right
                thr = vals[i]
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


def _walks(trees):
    """Node blocks as (table row of node 0, feature, threshold, left, right)."""
    walks, start = [], 0
    for nodes, _ in trees:
        feature, left, right = nodes[:, [0, 2, 3]].astype(int).T.tolist()
        walks.append((start, feature, nodes[:, 1].tolist(), left, right))
        start += len(nodes)
    return walks


def _leaves(walks, u):
    """The table row of the leaf that the row ``u`` (a list) reaches in each tree."""
    out = []
    for start, feature, threshold, left, right in walks:
        i = 0
        while (f := feature[i]) >= 0:
            i = left[i] if u[f] <= threshold[i] else right[i]
        out.append(start + i)
    return out


class _TreeEnsemble(FittedRegressor):
    """The walk, the combine and persistence shared by both ensembles.

    ``trees`` holds one (nodes, values) pair per tree in the saved layout.
    A prediction adds the ``head`` rows, each walked as a one-leaf tree, and
    ``weight`` times each tree's leaf value, and divides by ``divisor``.
    ``_head`` names the (1, n) blocks a subclass saves after ``n_trees``.
    """

    _head = ()

    def __init__(self, spec, lows, highs, trees, head, weight, divisor):
        self.trees = trees
        self.table = np.vstack([*head, *(values for _, values in trees)])
        self.table[len(head) :] *= weight
        super().__init__(spec, lows, highs, self.table.shape[1])
        stump = np.array([[_NO_SPLIT, 0.0, _NO_SPLIT, _NO_SPLIT]])
        self.walks = _walks([(stump, None)] * len(head) + trees)
        self.divisor = divisor

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        rows = [_leaves(self.walks, u) for u in U.tolist()]
        at = np.array(rows, dtype=np.intp).reshape(-1, len(self.walks)).T
        # accumulate adds the terms in order; reduce pairs them up when n = 1
        return np.add.accumulate(self.table[at])[-1] / self.divisor

    def payload(self) -> dict:
        out = {"n_trees": np.array([[float(len(self.trees))]])}
        out.update({name: getattr(self, name)[None, :] for name in self._head})
        for i, (nodes, values) in enumerate(self.trees):
            out[f"tree{i}_nodes"] = nodes
            out[f"tree{i}_values"] = values
        return out

    @classmethod
    def from_payload(cls, spec, lows, highs, payload):
        # C-ordered copies, as a fit builds them; pop lets each read block go
        trees = [
            (np.ascontiguousarray(payload.pop(f"tree{i}_nodes")),
             np.ascontiguousarray(payload.pop(f"tree{i}_values")))
            for i in range(int(payload["n_trees"][0, 0]))
        ]
        return cls(spec, lows, highs, trees, *(payload[k][0] for k in cls._head))


class ForestRegressor(_TreeEnsemble):
    def __init__(self, spec, lows, highs, trees):
        super().__init__(spec, lows, highs, trees, (), 1.0, len(trees))
        # weight 1 keeps the table rows equal to the value blocks: save views
        ends = np.cumsum([len(v) for _, v in trees])
        self.trees = [(n, self.table[e - len(v) : e]) for (n, v), e in zip(trees, ends)]

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "ForestRegressor":
        m = U.shape[0]
        seeds = np.random.SeedSequence(spec.seed).spawn(spec["n_trees"])
        trees = []
        for seq in seeds:
            rng = np.random.default_rng(seq)
            rows = rng.integers(0, m, size=m)
            trees.append(
                build_tree(
                    U, Y, rows, rng, spec["max_depth"], spec["min_leaf"],
                    spec["n_split_features"],
                )
            )
        return cls(spec, lows, highs, trees)


class BoostingRegressor(_TreeEnsemble):
    _head = ("base_value",)

    def __init__(self, spec, lows, highs, trees, base_value):
        self.base_value = base_value
        self.learning_rate = lr = spec["learning_rate"]
        super().__init__(spec, lows, highs, trees, [self.base_value], lr, 1.0)

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "BoostingRegressor":
        base = Y.mean(axis=0)
        current = np.tile(base, (U.shape[0], 1))
        lr = spec["learning_rate"]
        trees = []
        for _ in range(spec["n_learners"]):
            nodes, values = build_tree(
                U, Y - current, np.arange(len(U)), None, spec["max_depth"], 1, 0
            )
            walk = _walks([(nodes, values)])
            current += lr * values[[_leaves(walk, u)[0] for u in U.tolist()]]
            trees.append((nodes, values))
        return cls(spec, lows, highs, trees, base)
