"""Shared model serialization and leave-one-out folds.  Every fitted
model serializes to a JSON document {"kind": ..., "params": ...,
"metadata": ...} and deserializes through model_from_dict."""

from __future__ import annotations

import numpy as np

# bytes of a lockstep solver's working arrays: each `*_fit_loo` and
# `locality.kmeans` solve their problems in stacks of about this size, so
# their memory stays flat however many problems they are given
STACK_BYTES = 1 << 21


def stacks(count: int, problem_bytes: int) -> list[slice]:
    """`count` problems, each with `problem_bytes` of working arrays, cut
    into consecutive stacks of near-equal width: at most `STACK_BYTES //
    problem_bytes` problems (and at least one) each."""
    parts = -(-count // max(1, STACK_BYTES // problem_bytes))
    return [slice(k * count // parts, (k + 1) * count // parts)
            for k in range(parts)]


def loo_train_rows(n: int, folds) -> np.ndarray:
    """Each fold's training rows, one row of the (folds, n - 1) result per
    index i in `folds`: 0..n-1 without i, in order."""
    rows = np.arange(n - 1)
    return rows + (rows >= np.asarray(folds, dtype=int).reshape(-1, 1))


def training_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X (n, f) and y (n,) as float arrays; other shapes raise."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, f) with one target per row")
    return X, y


def loo_folds(X, y, folds, sets=None, points=None, at=None):
    """Leave-one-out folds over a stack of equal-size training sets, as
    (X, y, sets, rows, points, at): X (sets, n, f) and y (sets, n) as float
    arrays, per fold k the set sets[k] it trains on without row rows[k],
    and the (m, f) points to predict at, each by the fold at[j].  Without
    `sets`, X (n, f) and y (n,) are one set and `folds` are its row
    indices.  Without `points`, each fold predicts at its held-out row."""
    rows = np.array([int(i) for i in folds], dtype=int)
    if sets is None:
        X, y = training_arrays(X, y)
        X, y, sets = X[None], y[None], np.zeros(rows.size, dtype=int)
    else:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        sets = np.asarray(sets, dtype=int)
        if X.ndim != 3 or X.shape[:2] != y.shape or sets.shape != rows.shape:
            raise ValueError("X must be (sets, n, f) with one target per row "
                             "and one set per fold")
        if np.any((sets < 0) | (sets >= X.shape[0])):
            raise ValueError(f"set indices must be within 0..{X.shape[0] - 1}")
    n = y.shape[1]
    if np.any((rows < 0) | (rows >= n)):
        raise ValueError(f"fold indices must be within 0..{n - 1}")
    if points is None:
        return X, y, sets, rows, X[sets, rows], np.arange(rows.size)
    return (X, y, sets, rows,
            np.asarray(points, dtype=float).reshape(-1, X.shape[2]),
            np.asarray(at, dtype=int))


def model_from_dict(data: dict):
    """Rebuild any fitted model from its dictionary form."""
    kind = data.get("kind")
    # imported lazily so base stays import-cycle free
    from . import cart, stepwise, svr
    from .. import ensemble

    table = {
        "cart": cart.CartModel,
        "svr": svr.SvrModel,
        "stepwise": stepwise.StepwiseModel,
        "ensemble": ensemble.EnsembleModel,
    }
    if kind not in table:
        raise ValueError(f"unknown model kind {kind!r}")
    return table[kind].from_dict(data)
