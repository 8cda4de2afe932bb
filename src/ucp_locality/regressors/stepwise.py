"""Backward stepwise linear regression.

Each feature that fails the normality check is moved to a natural log scale
first (only possible when all its training values are positive).  Ordinary
least squares is then refit repeatedly, dropping the least significant
feature until every retained coefficient has p <= alpha; the intercept is
always kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from ..preprocess import normality_check

DEFAULT_ALPHA_REMOVE = 0.05
MIN_TRAIN = 6


@dataclass(frozen=True)
class StepwiseModel:
    feature_indices: tuple[int, ...]
    coefficients: tuple[float, ...]
    intercept: float
    log_flags: tuple[bool, ...]      # per original feature
    p_values: tuple[float, ...]      # per retained feature
    n_train: int

    def predict(self, x) -> float:
        return stepwise_predict(self, x)

    def to_dict(self) -> dict:
        return {
            "kind": "stepwise",
            "params": {
                "feature_indices": list(self.feature_indices),
                "coefficients": list(self.coefficients),
                "intercept": self.intercept,
                "log_flags": list(self.log_flags),
            },
            "metadata": {
                "n_train": self.n_train,
                "p_values": list(self.p_values),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StepwiseModel":
        params, meta = data["params"], data["metadata"]
        return cls(
            feature_indices=tuple(params["feature_indices"]),
            coefficients=tuple(params["coefficients"]),
            intercept=params["intercept"],
            log_flags=tuple(bool(f) for f in params["log_flags"]),
            p_values=tuple(meta["p_values"]),
            n_train=meta["n_train"],
        )


def _coefficient_p_values(design: np.ndarray, y: np.ndarray,
                          coefs: np.ndarray) -> np.ndarray:
    n, p = design.shape
    dof = n - p
    residuals = y - design @ coefs
    rss = float(residuals @ residuals)
    # residuals at float-noise level make t statistics meaningless; treat
    # the fit as exact and judge coefficients by contribution instead
    exact = rss <= 1e-24 * max(float(y @ y), 1e-300)
    p_values = np.empty(p)
    if exact:
        y_scale = max(float(np.std(y)), abs(float(y.mean())), 1.0)
        for j in range(p):
            contribution = abs(coefs[j]) * max(float(np.std(design[:, j])), 1.0)
            p_values[j] = 0.0 if contribution > 1e-9 * y_scale else 1.0
        return p_values
    xtx_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(np.maximum(rss / dof * np.diag(xtx_inv), 0.0))
    for j in range(p):
        t = coefs[j] / se[j] if se[j] > 0 else 0.0
        p_values[j] = 2.0 * float(stdtr(dof, -abs(t)))
    return p_values


def _vif_drop(Z: np.ndarray, active: list[int]) -> int:
    """Index (into active) of the feature with the largest variance
    inflation, computed with a pseudoinverse so exact collinearity is
    handled."""
    worst_j, worst_vif = 0, -np.inf
    for j, _ in enumerate(active):
        target = Z[:, active[j]]
        others = [active[m] for m in range(len(active)) if m != j]
        design = np.column_stack([np.ones(Z.shape[0])] + [Z[:, o] for o in others])
        fitted = design @ np.linalg.pinv(design) @ target
        ss_res = float(np.sum((target - fitted) ** 2))
        ss_tot = float(np.sum((target - target.mean()) ** 2))
        vif = np.inf if ss_res <= 1e-12 * max(ss_tot, 1.0) else 1.0 / (ss_res / ss_tot)
        if vif > worst_vif:
            worst_j, worst_vif = j, vif
    return worst_j


def stepwise_fit(X, y, alpha_remove: float = DEFAULT_ALPHA_REMOVE) -> StepwiseModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, f) with one target per row")
    n, n_features = X.shape
    if n < MIN_TRAIN:
        raise ValueError(f"stepwise regression needs at least {MIN_TRAIN} "
                         f"training projects, got {n}")
    if not 0 < alpha_remove < 1:
        raise ValueError(f"alpha_remove must be in (0, 1), got {alpha_remove}")

    log_flags = []
    for j in range(n_features):
        col = X[:, j]
        # the normality verdict matters only for a positive column
        log_flags.append(bool(col.min() > 0
                              and not normality_check(col).is_normal))
    Z = X.copy()
    for j, flag in enumerate(log_flags):
        if flag:
            Z[:, j] = np.log(Z[:, j])

    active = list(range(n_features))
    while active:
        design = np.column_stack([np.ones(n)] + [Z[:, j] for j in active])
        coefs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            del active[_vif_drop(Z, active)]
            continue
        p_values = _coefficient_p_values(design, y, coefs)
        feature_p = p_values[1:]
        worst = int(np.argmax(feature_p))
        if feature_p[worst] > alpha_remove:
            del active[worst]
        else:
            return StepwiseModel(
                feature_indices=tuple(active),
                coefficients=tuple(float(c) for c in coefs[1:]),
                intercept=float(coefs[0]),
                log_flags=tuple(log_flags),
                p_values=tuple(float(p) for p in feature_p),
                n_train=n,
            )
    return StepwiseModel(
        feature_indices=(),
        coefficients=(),
        intercept=float(y.mean()),
        log_flags=tuple(log_flags),
        p_values=(),
        n_train=n,
    )


def stepwise_predict(model: StepwiseModel, x) -> float:
    x = np.asarray(x, dtype=float)
    value = model.intercept
    for coef, j in zip(model.coefficients, model.feature_indices):
        v = x[j]
        if model.log_flags[j]:
            if v <= 0:
                raise ValueError(
                    f"feature {j} is log-scaled and needs a positive value, got {v}")
            v = np.log(v)
        value += coef * v
    return float(value)
