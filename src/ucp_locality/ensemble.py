"""Weighted-average ensemble over the three base learners, with weights
discounted through a sigmoid of each model's normalized inner-validation
error, plus the two fixed-productivity baselines.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import N_FACTORS, validate_factor_score
from .regressors.cart import cart_fit, cart_fit_loo
from .regressors.base import loo_train_rows
from .regressors.stepwise import ALPHA_REMOVE as STEPWISE_ALPHA
from .regressors.stepwise import MIN_TRAIN as STEPWISE_MIN_TRAIN
from .regressors.stepwise import stepwise_fit, stepwise_fit_loo
from .regressors.svr import DEFAULT_TOL as SVR_TOL
from .regressors.svr import svr_fit, svr_fit_loo

DEFAULT_ALPHA = 15.0
PDR_FLOOR = 0.01
BASE_MODELS = ("svr", "stepwise", "cart")

KARNER_PDR = 20.0
SW_LEVELS = (20.0, 28.0, 36.0)


def sigmoid_weight(normalized_error: float, mean_normalized_error: float,
                   alpha: float = DEFAULT_ALPHA) -> float:
    """1 / (1 + exp(alpha * (err - mean))); strictly inside (0, 1).

    The exponent is clamped at +/-36, the float64 saturation point, so the
    weight never collapses to exactly 0 or 1.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = alpha * (normalized_error - mean_normalized_error)
    t = max(-36.0, min(36.0, t))
    return 1.0 / (1.0 + math.exp(t))


def combine_weights(w_mae: float, w_mbre: float, w_mibre: float) -> float:
    """Arithmetic mean of the three per-metric weights."""
    return (w_mae + w_mbre + w_mibre) / 3.0


def ensemble_predict(predictions, weights) -> float:
    """Weighted average of the base predictions.  Equal weights reduce to
    the exact simple mean; an all-zero weight vector (cannot arise from the
    sigmoid) also falls back to the mean."""
    predictions = np.asarray(predictions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if predictions.size == 0 or predictions.size != weights.size:
        raise ValueError("need one weight per prediction")
    total = weights.sum()
    if total <= 0 or np.all(weights == weights[0]):
        return float(predictions.mean())
    return float((predictions * weights).sum() / total)


def karner_predict(ucp: float) -> float:
    """Fixed-productivity effort: 20 person-hours per UCP."""
    if not ucp > 0:
        raise ValueError(f"ucp must be positive, got {ucp}")
    return KARNER_PDR * ucp


def sw_productivity(env) -> float:
    """Three-level productivity from the environmental assessment: count
    factors 1..6 scored below 3 plus factors 7..8 scored above 3; up to 2
    unfavorable gives 20, 3..4 gives 28, above 4 gives 36 hours/UCP."""
    env = tuple(env)
    if len(env) != N_FACTORS:
        raise ValueError(f"expected {N_FACTORS} scores, got {len(env)}")
    scores = [validate_factor_score(e) for e in env]
    total = sum(1 for e in scores[:6] if e < 3) + sum(1 for e in scores[6:] if e > 3)
    if total <= 2:
        return SW_LEVELS[0]
    if total <= 4:
        return SW_LEVELS[1]
    return SW_LEVELS[2]


@dataclass(frozen=True)
class BaseModelParams:
    """Hyperparameters for the three base learners.  The SVR's stopping
    tolerance and stepwise's removal level are the learners' fixed
    defaults."""

    svr_c: float = 1.0
    svr_epsilon: float = 0.1
    svr_gamma: float | None = None        # None = auto
    cart_min_split: int = 8
    cart_min_leaf: int = 4
    cart_max_depth: int = 6

    def fit_one(self, kind: str, X: np.ndarray, y: np.ndarray):
        if kind == "svr":
            return svr_fit(X, y, c=self.svr_c, epsilon=self.svr_epsilon,
                           gamma=self.svr_gamma)
        if kind == "stepwise":
            return stepwise_fit(X, y)
        if kind == "cart":
            return cart_fit(X, y, min_split=self.cart_min_split,
                            min_leaf=self.cart_min_leaf,
                            max_depth=self.cart_max_depth)
        raise ValueError(f"unknown base model {kind!r}")

    def fit_loo(self, kind: str, X: np.ndarray, y: np.ndarray, folds,
                query=None):
        """For each row index i in `folds`, what `fit_one(kind, ...)` on X
        and y without row i predicts at X[i] and at `query`.  Returns
        (held_out, at_query), one value per fold each; at_query is None
        without a query.

        The folds are solved together: SVR folds by `svr_fit_loo`, CART
        folds by `cart_fit_loo` and stepwise folds by `stepwise_fit_loo`.
        A stepwise fold's model that cannot evaluate a point (a log-scaled
        feature at a non-positive value) predicts that fold's training mean
        there.
        """
        if kind == "cart":
            return cart_fit_loo(X, y, folds, query,
                                min_split=self.cart_min_split,
                                min_leaf=self.cart_min_leaf,
                                max_depth=self.cart_max_depth)
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        folds = [int(i) for i in folds]
        if kind == "svr":
            predictors = [model.predict for model in svr_fit_loo(
                X, y, folds, c=self.svr_c, epsilon=self.svr_epsilon,
                gamma=self.svr_gamma)]
        elif kind == "stepwise":
            # each fold's training mean; a C-contiguous row's mean equals
            # the 1-d mean bit for bit
            means = y[loo_train_rows(y.size, folds)].mean(axis=1)
            predictors = [partial(predict_or_fallback, model, fallback=mean)
                          for model, mean in zip(stepwise_fit_loo(X, y, folds),
                                                 means.tolist())]
        else:
            raise ValueError(f"unknown base model {kind!r}")
        held_out = np.empty(len(folds))
        at_query = None if query is None else np.empty(len(folds))
        for k, (i, predict) in enumerate(zip(folds, predictors)):
            held_out[k] = predict(X[i])
            if query is not None:
                at_query[k] = predict(query)
        return held_out, at_query

    def to_dict(self) -> dict:
        return {
            "svr_c": self.svr_c, "svr_epsilon": self.svr_epsilon,
            "svr_gamma": self.svr_gamma, "svr_tol": SVR_TOL,
            "cart_min_split": self.cart_min_split,
            "cart_min_leaf": self.cart_min_leaf,
            "cart_max_depth": self.cart_max_depth,
            "stepwise_alpha": STEPWISE_ALPHA,
        }


@dataclass(frozen=True)
class ErrorProfile:
    """Inner-validation errors per base model, raw and min-max normalized
    across the three models (all-equal normalizes to all-zero)."""

    raw: dict[str, tuple[float, float, float]]        # model -> (mae, mbre, mibre)
    normalized: dict[str, tuple[float, float, float]]


@dataclass(frozen=True)
class WeightBreakdown:
    w_mae: float
    w_mbre: float
    w_mibre: float
    combined: float


def predict_or_fallback(model, x, fallback: float) -> float:
    """Prediction, or the given fallback when the model cannot evaluate the
    point (a log-scaled stepwise feature at a non-positive value).

    Only inner leave-one-out stepwise folds (`BaseModelParams.fit_loo`) can
    need it: with the local set's minimum left out, a column can be all
    positive and get log-scaled, and the held-out row or the outer query
    can then sit at or below 0.  An outer fit is on a local set min-max
    scaled on itself, where every column's minimum is 0, so its stepwise
    model has no log-scaled feature.
    """
    try:
        return float(model.predict(x))
    except ValueError:
        return float(fallback)


def _metric_triple(actual: np.ndarray, estimate: np.ndarray) -> tuple[float, float, float]:
    abs_err = np.abs(actual - estimate)
    return (
        float(abs_err.mean()),
        float((abs_err / np.minimum(actual, estimate)).mean()),
        float((abs_err / np.maximum(actual, estimate)).mean()),
    )


def _normalize_across_models(raw: dict[str, tuple[float, float, float]]) -> dict:
    normalized = {}
    for m in range(3):
        vals = np.array([raw[name][m] for name in BASE_MODELS])
        span = vals.max() - vals.min()
        scaled = (vals - vals.min()) / span if span > 0 else np.zeros_like(vals)
        for name, v in zip(BASE_MODELS, scaled):
            normalized.setdefault(name, []).append(float(v))
    return {name: tuple(v) for name, v in normalized.items()}


def _memo_key(train_digest, row) -> bytes:
    """Digest of an inner fit's training rows extended by one query row."""
    h = train_digest.copy()
    h.update(np.asarray(row, dtype=float).tobytes())
    return h.digest()


def fit_shared(params: BaseModelParams, name: str, X: np.ndarray,
               y: np.ndarray, memo: dict | None):
    """`params.fit_one(name, X, y)`, shared by a single learner's and the
    ensemble's fit of one local set: the first stores the model under a
    digest of X and y, the second takes it and drops the entry."""
    if memo is None:
        return params.fit_one(name, X, y)
    key = (name, X.shape, hashlib.blake2b(X.tobytes() + y.tobytes()).digest())
    model = memo.pop(key, None)
    if model is None:
        model = memo[key] = params.fit_one(name, X, y)
    return model


def inner_error_profile(X, y, ucp=None,
                        params: BaseModelParams | None = None,
                        memo: dict | None = None,
                        query=None) -> ErrorProfile:
    """Leave-one-out inside the training set for each base model, scoring
    effort predictions (predicted PDR times the held-out project's UCP).

    `memo` lets the outer folds of one leave-one-out run share inner fits.
    Outer fold a / inner b trains on the same rows as outer b / inner a
    whenever both local sets and scalers agree, so each inner fit also
    predicts `query` (the outer held-out row, scaled like X) and stores that
    prediction under a digest of its exact training rows and query row.  An
    inner fold whose training rows and held-out row match a stored entry
    takes that prediction instead of refitting; the entry is then dropped.
    Fits are deterministic, so results equal those without a memo.

    One pass takes what the memo holds; the folds left are then solved
    together by one `params.fit_loo` call per base model (SVR, stepwise and
    CART folds are each fit in lockstep, never one fold at a time), which
    predicts at `query` only when there is a memo to store it in.  A
    stepwise fold that cannot evaluate its held-out row predicts its
    training mean there; no other learner or fit needs that fallback.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < STEPWISE_MIN_TRAIN + 1:
        raise ValueError(
            f"inner validation needs at least {STEPWISE_MIN_TRAIN + 1} "
            f"projects, got {n}")
    if memo is not None and query is None:
        raise ValueError("an inner-fit memo needs the outer query row")
    ucp_arr = np.ones(n) if ucp is None else np.asarray(ucp, dtype=float)
    params = params or BaseModelParams()

    predictions = {name: np.empty(n) for name in BASE_MODELS}
    if memo is None:
        to_fit = {name: range(n) for name in BASE_MODELS}
    else:
        to_fit = {name: [] for name in BASE_MODELS}
        query_keys = [None] * n
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            keep[i] = False
            train_digest = hashlib.blake2b(
                X[keep].tobytes() + y[keep].tobytes(), digest_size=16)
            held_out_key = _memo_key(train_digest, X[i])
            query_keys[i] = _memo_key(train_digest, query)
            for name in BASE_MODELS:
                pred = memo.pop((name, held_out_key), None)
                if pred is None:
                    to_fit[name].append(i)
                else:
                    predictions[name][i] = max(pred, PDR_FLOOR)
            keep[i] = True

    for name in BASE_MODELS:
        folds = to_fit[name]
        held_out, at_query = params.fit_loo(
            name, X, y, folds, None if memo is None else query)
        for k, i in enumerate(folds):
            predictions[name][i] = max(float(held_out[k]), PDR_FLOOR)
            if memo is not None:
                memo[(name, query_keys[i])] = float(at_query[k])

    actual_effort = y * ucp_arr
    raw = {name: _metric_triple(actual_effort, predictions[name] * ucp_arr)
           for name in BASE_MODELS}
    return ErrorProfile(raw=raw, normalized=_normalize_across_models(raw))


@dataclass(frozen=True)
class EnsembleModel:
    models: dict[str, object]                      # fitted base models
    weights: dict[str, WeightBreakdown]
    alpha: float
    n_train: int
    profile: ErrorProfile | None = field(default=None, repr=False)

    def predict(self, x) -> float:
        preds = list(self.base_predictions(x).values())
        w = [self.weights[name].combined for name in BASE_MODELS]
        return ensemble_predict(preds, w)

    def base_predictions(self, x) -> dict[str, float]:
        return {name: float(self.models[name].predict(x))
                for name in BASE_MODELS}

    def to_dict(self) -> dict:
        return {
            "kind": "ensemble",
            "params": {
                "models": {name: self.models[name].to_dict() for name in BASE_MODELS},
                "weights": {name: [w.w_mae, w.w_mbre, w.w_mibre, w.combined]
                            for name, w in self.weights.items()},
                "alpha": self.alpha,
            },
            "metadata": {"n_train": self.n_train},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleModel":
        from .regressors.base import model_from_dict

        params = data["params"]
        models = {name: model_from_dict(params["models"][name])
                  for name in BASE_MODELS}
        weights = {name: WeightBreakdown(*vals)
                   for name, vals in params["weights"].items()}
        return cls(models=models, weights=weights, alpha=params["alpha"],
                   n_train=data["metadata"]["n_train"])


def ensemble_fit(X, y, ucp=None, alpha: float = DEFAULT_ALPHA,
                 params: BaseModelParams | None = None,
                 memo: dict | None = None, query=None) -> EnsembleModel:
    """Fit the three base models and weight them by their sigmoid-discounted
    inner-validation errors.  Training sets too small for inner validation
    fall back to equal weights.  `memo` and `query` pass through to
    `inner_error_profile`, whose inner CART folds grow only the paths they
    predict along; the three final models are full fits, shared through
    `fit_shared`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    params = params or BaseModelParams()
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if y.size < STEPWISE_MIN_TRAIN:
        raise ValueError(
            f"ensemble needs at least {STEPWISE_MIN_TRAIN} projects, got {y.size}")

    profile: ErrorProfile | None
    if y.size >= STEPWISE_MIN_TRAIN + 1:
        profile = inner_error_profile(X, y, ucp, params, memo=memo,
                                      query=query)
        normalized = profile.normalized
    else:
        profile = None
        normalized = {name: (0.0, 0.0, 0.0) for name in BASE_MODELS}

    means = [float(np.mean([normalized[name][m] for name in BASE_MODELS]))
             for m in range(3)]
    weights = {}
    for name in BASE_MODELS:
        per_metric = [sigmoid_weight(normalized[name][m], means[m], alpha)
                      for m in range(3)]
        weights[name] = WeightBreakdown(*per_metric, combine_weights(*per_metric))

    models = {name: fit_shared(params, name, X, y, memo)
              for name in BASE_MODELS}
    return EnsembleModel(models=models, weights=weights, alpha=alpha,
                         n_train=y.size, profile=profile)

