"""Backward stepwise linear regression.

Each feature that fails the normality check is moved to a natural log scale
first (only possible when all its training values are positive).  Ordinary
least squares is then refit repeatedly, dropping the least significant
feature until every retained coefficient has p <= alpha; the intercept is
always kept.  `stepwise_fit_loo` runs the eliminations of leave-one-out
folds of one or several training sets together, with the same models,
and predicts with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..preprocess import normality_check
from ..stats import t_two_sided_p
from .base import loo_folds, loo_train_rows, stacks, training_arrays

ALPHA_REMOVE = 0.05
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


def _exact_p_values(design: np.ndarray, y: np.ndarray,
                    coefs: np.ndarray) -> np.ndarray:
    """Pseudo p-values of an exact fit: residuals at float-noise level make
    t statistics meaningless, so each coefficient is judged by its
    contribution instead (0 if it matters, 1 if not)."""
    y_scale = max(float(np.std(y)), abs(float(y.mean())), 1.0)
    p_values = np.empty(design.shape[1])
    for j in range(design.shape[1]):
        contribution = abs(coefs[j]) * max(float(np.std(design[:, j])), 1.0)
        p_values[j] = 0.0 if contribution > 1e-9 * y_scale else 1.0
    return p_values


def _t_test_p_values(gram: np.ndarray, coefs: np.ndarray, rss: np.ndarray,
                     dof: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided t-test p-values of stacked fits' coefficients from their
    Gram matrices, and which fits have a Gram matrix that cannot be
    inverted (their p-values are meaningless)."""
    singular = np.zeros(gram.shape[0], dtype=bool)
    try:
        xtx_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        # a stacked inverse fails when any member is singular
        xtx_inv = np.empty_like(gram)
        for s, matrix in enumerate(gram):
            try:
                xtx_inv[s] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                singular[s] = True
                xtx_inv[s] = np.eye(gram.shape[1])
    variance = (rss / dof)[:, None] * np.diagonal(xtx_inv, axis1=1, axis2=2)
    se = np.sqrt(np.maximum(variance, 0.0))
    t = np.zeros_like(coefs)
    np.divide(coefs, se, out=t, where=se > 0)
    return t_two_sided_p(t, dof), singular


def _vif_drop(Z: np.ndarray, active: list[int]) -> int:
    """Index (into active) of the feature with the largest variance
    inflation, computed with a pseudoinverse so exact collinearity is
    handled.  A constant feature's inflation is infinite."""
    worst_j, worst_vif = 0, -np.inf
    for j, _ in enumerate(active):
        target = Z[:, active[j]]
        others = [active[m] for m in range(len(active)) if m != j]
        design = np.column_stack([np.ones(Z.shape[0])] + [Z[:, o] for o in others])
        fitted = design @ np.linalg.pinv(design) @ target
        ss_res = float(np.sum((target - fitted) ** 2))
        ss_tot = float(np.sum((target - target.mean()) ** 2))
        if ss_tot == 0 or ss_res <= 1e-12 * max(ss_tot, 1.0):
            vif = np.inf
        else:
            vif = 1.0 / (ss_res / ss_tot)
        if vif > worst_vif:
            worst_j, worst_vif = j, vif
    return worst_j


def _fit_sets(Xs: np.ndarray, ys: np.ndarray) -> list[StepwiseModel]:
    """The stepwise model of each training set (Xs[s], ys[s]).

    The sets' eliminations run in lockstep.  Each step removes one feature
    from every set that goes on, so all live sets have the same number of
    active features and their designs form one C-contiguous (sets, n,
    1 + features) stack.  Each set gets its own least-squares solve; the
    residuals, Gram matrices, t statistics and p-values are computed over
    the stack.  Every operation sees the numbers and memory layout a lone
    fit would, so each model is the same bit for bit whatever sets it is
    fit with.  A set leaves the stack when its elimination stops.

    `Xs` must be C-contiguous; its log-flagged columns are log-scaled in
    place.
    """
    n_sets, n, n_features = Xs.shape
    log_flags = np.zeros((n_sets, n_features), dtype=bool)
    # the normality verdict matters only for a positive column
    for s, j in zip(*np.nonzero(Xs.min(axis=1) > 0)):
        if not normality_check(Xs[s, :, j]).is_normal:
            log_flags[s, j] = True
            Xs[s, :, j] = np.log(Xs[s, :, j])

    models: list[StepwiseModel | None] = [None] * n_sets
    live = np.arange(n_sets)
    active = np.tile(np.arange(n_features), (n_sets, 1))
    while live.size and active.shape[1]:
        m, p = live.size, active.shape[1] + 1
        designs = np.empty((m, n, p))
        designs[:, :, 0] = 1.0
        for c in range(p - 1):
            designs[:, :, 1 + c] = Xs[live, :, active[:, c]]
        y = ys[live]
        coefs = np.empty((m, p))
        deficient = np.empty(m, dtype=bool)
        for g in range(m):
            coefs[g], _, rank, _ = np.linalg.lstsq(designs[g], y[g], rcond=None)
            deficient[g] = rank < p
        residuals = y - (designs @ coefs[:, :, None])[:, :, 0]
        rss = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
        y_norm = (y[:, None, :] @ y[:, :, None])[:, 0, 0]
        # with no residual degrees of freedom or residuals at float-noise
        # level, t statistics are meaningless
        exact = ~deficient & ((n == p) | (rss <= 1e-24 * np.maximum(y_norm, 1e-300)))
        p_values = np.zeros((m, p))
        for g in np.nonzero(exact)[0]:
            p_values[g] = _exact_p_values(designs[g], y[g], coefs[g])
        tested = np.nonzero(~deficient & ~exact)[0]
        if tested.size:
            gram = np.swapaxes(designs, 1, 2) @ designs
            p_values[tested], singular = _t_test_p_values(
                gram[tested], coefs[tested], rss[tested], n - p)
            deficient[tested[singular]] = True

        feature_p = p_values[:, 1:]
        drop = np.argmax(feature_p, axis=1)
        for g in np.nonzero(deficient)[0]:
            drop[g] = _vif_drop(Xs[live[g]], active[g].tolist())
        done = ~deficient & ~(feature_p[np.arange(m), drop] > ALPHA_REMOVE)
        for g in np.nonzero(done)[0]:
            models[live[g]] = StepwiseModel(
                feature_indices=tuple(active[g].tolist()),
                coefficients=tuple(coefs[g, 1:].tolist()),
                intercept=float(coefs[g, 0]),
                log_flags=tuple(log_flags[live[g]].tolist()),
                p_values=tuple(feature_p[g].tolist()),
                n_train=n,
            )
        kept = np.ones(active.shape, dtype=bool)
        kept[np.arange(m), drop] = False
        active = active[kept].reshape(m, p - 2)[~done]
        live = live[~done]
    for s in live:
        models[s] = StepwiseModel(
            feature_indices=(), coefficients=(), intercept=float(ys[s].mean()),
            log_flags=tuple(log_flags[s].tolist()), p_values=(), n_train=n)
    return models


def _too_few(n: int) -> ValueError:
    return ValueError(f"stepwise regression needs at least {MIN_TRAIN} "
                      f"training projects, got {n}")


def stepwise_fit(X, y) -> StepwiseModel:
    X, y = training_arrays(X, y)
    if y.size < MIN_TRAIN:
        raise _too_few(y.size)
    return _fit_sets(X[None].copy(), y[None])[0]


def stepwise_fit_loo(X, y, folds, sets=None, points=None,
                     at=None) -> np.ndarray:
    """For each row index i in `folds`, the prediction that `stepwise_fit`
    on X and y without row i makes at X[i].  With `sets`, X (sets, n, f)
    and y (sets, n) stack equal-size training sets, and fold k leaves row
    folds[k] out of set sets[k].  With `points`, the predictions are at
    points[j] instead, each by the model of fold at[j].  A fold's model
    that cannot evaluate a point predicts that fold's training mean there
    (see `predict_or_fallback`).

    The folds are fit in `stacks` of about four (folds, n, 1 + f) float
    arrays, and each stack's models predict at their points before the
    next stack is fit.  A stack's eliminations run together (see
    `_fit_sets`).
    """
    X, y, sets, folds, points, at = loo_folds(X, y, folds, sets, points, at)
    n = y.shape[1]
    if folds.size and n - 1 < MIN_TRAIN:
        raise _too_few(n - 1)
    out = np.empty(at.size)
    for part in stacks(folds.size, 32 * n * (X.shape[2] + 1)):
        models, means = _fit_stack(X, y, sets[part], folds[part])
        ask = np.flatnonzero((at >= part.start) & (at < part.stop))
        out[ask] = [predict_or_fallback(models[k - part.start], points[j],
                                        means[k - part.start])
                    for j, k in zip(ask, at[ask])]
        # free this stack's models before the next stack is fit
        del models
    return out


def _fit_stack(X: np.ndarray, y: np.ndarray, sets: np.ndarray,
               folds: np.ndarray) -> tuple[list[StepwiseModel], list[float]]:
    """The models of one stack of `stepwise_fit_loo`'s folds, and each
    fold's training mean (a C-contiguous row's mean equals the 1-d mean
    bit for bit)."""
    train = loo_train_rows(y.shape[1], folds)
    ys = y[sets[:, None], train]
    return _fit_sets(X[sets[:, None], train], ys), ys.mean(axis=1).tolist()


def predict_or_fallback(model, x, fallback: float) -> float:
    """Prediction, or the given fallback when the model cannot evaluate the
    point (a log-scaled feature at a non-positive value).  Only leave-one-out
    folds need it: with a local set's minimum left out, a column can be all
    positive and get log-scaled.  An outer fit is on a local set min-max
    scaled on itself, where every column's minimum is 0."""
    try:
        return float(model.predict(x))
    except ValueError:
        return float(fallback)


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
