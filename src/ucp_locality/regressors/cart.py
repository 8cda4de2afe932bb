"""Regression tree with greedy SSE-minimizing binary splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import loo_folds, stacks, training_arrays

DEFAULT_MIN_SPLIT = 8
DEFAULT_MIN_LEAF = 4
DEFAULT_MAX_DEPTH = 6


@dataclass(frozen=True)
class CartNode:
    """Internal node (feature, threshold, children) or leaf (children None).
    Every node keeps the mean and count of its training members."""

    prediction: float
    count: int
    feature: int | None = None
    threshold: float | None = None
    left: "CartNode | None" = None
    right: "CartNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"prediction": self.prediction, "count": self.count}
        return {
            "prediction": self.prediction,
            "count": self.count,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CartNode":
        if "feature" not in data:
            return cls(prediction=data["prediction"], count=data["count"])
        return cls(
            prediction=data["prediction"],
            count=data["count"],
            feature=data["feature"],
            threshold=data["threshold"],
            left=cls.from_dict(data["left"]),
            right=cls.from_dict(data["right"]),
        )


@dataclass(frozen=True)
class CartModel:
    root: CartNode
    n_train: int
    min_split: int
    min_leaf: int
    max_depth: int

    def predict(self, x) -> float:
        return cart_predict(self, x)

    def to_dict(self) -> dict:
        return {
            "kind": "cart",
            "params": {"root": self.root.to_dict()},
            "metadata": {
                "n_train": self.n_train,
                "min_split": self.min_split,
                "min_leaf": self.min_leaf,
                "max_depth": self.max_depth,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CartModel":
        meta = data["metadata"]
        return cls(
            root=CartNode.from_dict(data["params"]["root"]),
            n_train=meta["n_train"],
            min_split=meta["min_split"],
            min_leaf=meta["min_leaf"],
            max_depth=meta["max_depth"],
        )


def _best_split(X: np.ndarray, y: np.ndarray, mean: np.ndarray,
                min_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split search for a stack of nodes of equal size n: X is
    (nodes, n, f), y is (nodes, n) and mean holds each node's target mean.

    Per node, the lowest total child SSE over all (feature,
    midpoint-threshold) candidates leaving both children >= min_leaf.  Ties
    go to the lowest feature, then to the first split position within it.
    Returns each node's feature, threshold and SSE; the feature is -1 where
    no candidate is valid."""
    nodes, n, n_features = X.shape
    # centering keeps the prefix-sum SSE numerically tight
    yc = y - mean[:, None]
    # all features at once: [p, :, f] holds node p's feature f in sorted order
    order = np.argsort(X, axis=1, kind="stable")
    r = np.arange(nodes)
    xs = X[r[:, None, None], order, np.arange(n_features)]
    ys = yc[r[:, None, None], order]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    total_sum = csum[:, -1:]
    total_sq = csq[:, -1:]

    # split after position i puts i+1 points left
    counts_left = np.arange(1, n)
    valid = xs[:, :-1] < xs[:, 1:]
    valid &= ((counts_left >= min_leaf) & (n - counts_left >= min_leaf))[:, None]
    nl = counts_left.astype(float)[:, None]
    nr = n - nl
    sum_l = csum[:, :-1]
    sq_l = csq[:, :-1]
    sse = (sq_l - sum_l * sum_l / nl) \
        + ((total_sq - sq_l) - (total_sum - sum_l) ** 2 / nr)
    sse[~valid] = np.inf
    # feature-major flat index: the first minimum is the lowest feature's
    # first position
    flat = sse.transpose(0, 2, 1).reshape(nodes, -1)
    best = np.argmin(flat, axis=1)
    feature, i = np.divmod(best, n - 1)
    threshold = (xs[r, i, feature] + xs[r, i + 1, feature]) / 2.0
    feature[~valid.any(axis=(1, 2))] = -1
    return feature, threshold, flat[r, best]


def _grow(X: np.ndarray, y: np.ndarray, depth: int, min_split: int,
          min_leaf: int, max_depth: int) -> CartNode:
    prediction = float(y.mean())
    count = y.size
    if count < min_split or depth >= max_depth or np.all(y == y[0]):
        return CartNode(prediction=prediction, count=count)
    feature, threshold, _ = _best_split(X[None], y[None],
                                        np.array([prediction]), min_leaf)
    if feature[0] < 0:
        return CartNode(prediction=prediction, count=count)
    feature, threshold = int(feature[0]), float(threshold[0])
    mask = X[:, feature] <= threshold
    return CartNode(
        prediction=prediction,
        count=count,
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, min_split, min_leaf, max_depth),
        right=_grow(X[~mask], y[~mask], depth + 1, min_split, min_leaf, max_depth),
    )


def _check_limits(min_split: int, min_leaf: int, max_depth: int) -> None:
    if min_leaf < 1 or min_split < 2 or max_depth < 0:
        raise ValueError("invalid tree limits")


def cart_fit(X, y, min_split: int = DEFAULT_MIN_SPLIT,
             min_leaf: int = DEFAULT_MIN_LEAF,
             max_depth: int = DEFAULT_MAX_DEPTH) -> CartModel:
    """Grow a regression tree; leaves predict their members' mean target."""
    X, y = training_arrays(X, y)
    _check_limits(min_split, min_leaf, max_depth)
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    root = _grow(X, y, 0, min_split, min_leaf, max_depth)
    return CartModel(root=root, n_train=y.size, min_split=min_split,
                     min_leaf=min_leaf, max_depth=max_depth)


def cart_fit_loo(X, y, folds, sets=None, points=None, at=None,
                 min_split: int = DEFAULT_MIN_SPLIT,
                 min_leaf: int = DEFAULT_MIN_LEAF,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """For each row index i in `folds`, the prediction that `cart_fit` on
    X and y without row i, with the same limits, makes at X[i].  With
    `sets`, X (sets, n, f) and y (sets, n) stack equal-size training sets,
    and fold k leaves row folds[k] out of set sets[k].  With `points`, the
    predictions are at points[j] instead, each by the tree of fold at[j].

    The folds' trees grow together, level by level, and only along the
    nodes those points reach, in `stacks` of folds (about eight (nodes, n)
    level arrays of 8 bytes).  At each level the nodes that need a split
    search are stacked by row count, and each count's nodes are searched
    in stacks of a quarter of that budget (about ten (nodes, m, f) float
    arrays), which also keeps them in cache.  A node's rows keep their
    order in its set, so every mean, split and prediction equals
    `cart_fit`'s bit for bit.
    """
    X, y, sets, folds, points, at = loo_folds(X, y, folds, sets, points, at)
    _check_limits(min_split, min_leaf, max_depth)
    n = y.shape[1]
    if folds.size and n < 2:
        raise ValueError("cannot fit a tree on an empty training set")
    out = np.empty(at.size)
    for part in stacks(folds.size, 64 * n):
        ask = np.flatnonzero((at >= part.start) & (at < part.stop))
        out[ask] = _grow_together(X, y, sets[part], folds[part], points[ask],
                                  at[ask] - part.start, min_split, min_leaf,
                                  max_depth)
    return out


def _grow_together(X, y, node_set, folds, points, at, min_split: int,
                   min_leaf: int, max_depth: int) -> np.ndarray:
    """`cart_fit_loo`'s level-by-level growth for one stack of folds: the
    prediction at points[j] of the tree of fold at[j], which leaves row
    folds[k] out of set node_set[k]."""
    n, n_features = X.shape[1:]
    # one row-membership mask and set per node of the current level, and
    # the node each unresolved point has reached; fold f's points start at
    # its root
    mask = np.ones((folds.size, n), dtype=bool)
    mask[np.arange(folds.size), folds] = False
    out = np.empty(at.size)
    pending = np.arange(at.size)
    for depth in range(max_depth + 1):
        counts = mask.sum(axis=1)
        prediction = np.empty(counts.size)
        feature = np.full(counts.size, -1)
        threshold = np.empty(counts.size)
        for m in np.unique(counts):
            group = np.nonzero(counts == m)[0]
            rows = np.nonzero(mask[group])[1].reshape(group.size, m)
            of = node_set[group, None]
            y_g = y[of, rows]
            mean = y_g.mean(axis=1)
            prediction[group] = mean
            if m < min_split or depth >= max_depth:
                continue
            split = np.flatnonzero(~np.all(y_g == y_g[:, :1], axis=1))
            for part in stacks(split.size, 320 * m * n_features):
                s = split[part]
                found = _best_split(X[of[s], rows[s]], y_g[s], mean[s],
                                    min_leaf)
                feature[group[s]], threshold[group[s]], _ = found

        leaf = feature[at] < 0
        out[pending[leaf]] = prediction[at[leaf]]
        pending, at = pending[~leaf], at[~leaf]
        if not pending.size:
            break
        # values equal to a threshold go left, as in `cart_predict`
        right = ~(points[pending, feature[at]] <= threshold[at])
        child, at = np.unique(2 * at + right, return_inverse=True)
        parent, side = np.divmod(child, 2)
        node_set = node_set[parent]
        left_rows = X[node_set, :, feature[parent]] <= threshold[parent][:, None]
        mask = mask[parent] & (left_rows != side.astype(bool)[:, None])

    return out


def cart_predict(model: CartModel, x) -> float:
    """Route x to its leaf; values equal to a threshold go left."""
    x = np.asarray(x, dtype=float)
    node = model.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.prediction
