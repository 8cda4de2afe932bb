"""Shared model serialization and leave-one-out fold rows.  Every fitted
model serializes to a JSON document {"kind": ..., "params": ...,
"metadata": ...} and deserializes through model_from_dict."""

from __future__ import annotations

import numpy as np


def loo_train_rows(n: int, folds) -> np.ndarray:
    """Each fold's training rows, one row of the (folds, n - 1) result per
    index i in `folds`: 0..n-1 without i, in order."""
    rows = np.arange(n - 1)
    return rows + (rows >= np.asarray(folds, dtype=int).reshape(-1, 1))


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
