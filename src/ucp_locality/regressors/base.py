"""Shared model serialization.  Every fitted model serializes to a JSON
document {"kind": ..., "params": ..., "metadata": ...} and deserializes
through model_from_dict."""

from __future__ import annotations


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
