"""Weighted-average ensemble over the three base learners, with weights
discounted through a sigmoid of each model's normalized inner-validation
error, plus the two fixed-productivity baselines.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import N_FACTORS, validate_factor_score
from .regressors.cart import DEFAULT_MAX_DEPTH, DEFAULT_MIN_LEAF, DEFAULT_MIN_SPLIT
from .regressors.cart import cart_fit, cart_fit_loo
from .regressors.base import finite_number, loo_train_rows
from .regressors.stepwise import ALPHA_REMOVE as STEPWISE_ALPHA
from .regressors.stepwise import MIN_TRAIN as STEPWISE_MIN_TRAIN
# also bound here: perfbench's tracer resolves it in this module
from .regressors.stepwise import predict_or_fallback  # noqa: F401
from .regressors.stepwise import stepwise_fit, stepwise_fit_loo
from .regressors.svr import TOL as SVR_TOL
from .regressors.svr import DEFAULT_C, DEFAULT_EPSILON, svr_fit, svr_fit_loo
from .stats import mae, mbre, mibre

DEFAULT_ALPHA = 15.0
PDR_FLOOR = 0.01
BASE_MODELS = ("svr", "stepwise", "cart")

KARNER_PDR = 20.0
SW_LEVELS = (20.0, 28.0, 36.0)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the sigmoid scaling alpha is positive and
    finite (an infinite alpha times a zero error gap is NaN)."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def sigmoid_weight(normalized_error: float, mean_normalized_error: float,
                   alpha: float = DEFAULT_ALPHA) -> float:
    """1 / (1 + exp(alpha * (err - mean))); strictly inside (0, 1).

    The exponent is clamped at +/-36, the float64 saturation point, so the
    weight never collapses to exactly 0 or 1.
    """
    check_alpha(alpha)
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

    svr_c: float = DEFAULT_C
    svr_epsilon: float = DEFAULT_EPSILON
    svr_gamma: float | None = None        # None = auto
    cart_min_split: int = DEFAULT_MIN_SPLIT
    cart_min_leaf: int = DEFAULT_MIN_LEAF
    cart_max_depth: int = DEFAULT_MAX_DEPTH

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

    def fit_loo(self, kind: str, X, y, folds, sets=None, points=None,
                at=None) -> np.ndarray:
        """For each row index i in `folds`, what `fit_one(kind, ...)` on X
        and y without row i predicts at X[i].  `sets` stacks equal-size
        training sets, and with `points` the predictions are at points[j]
        instead, each by the model of fold at[j] (see `svr_fit_loo`,
        `stepwise_fit_loo` and `cart_fit_loo`, which solve the folds
        together in stacks that bound their memory).  A stepwise fold's
        model that cannot evaluate a point predicts that fold's training
        mean there.
        """
        if kind == "svr":
            return svr_fit_loo(X, y, folds, sets, points, at, c=self.svr_c,
                               epsilon=self.svr_epsilon, gamma=self.svr_gamma)
        if kind == "stepwise":
            return stepwise_fit_loo(X, y, folds, sets, points, at)
        if kind == "cart":
            return cart_fit_loo(X, y, folds, sets, points, at,
                                min_split=self.cart_min_split,
                                min_leaf=self.cart_min_leaf,
                                max_depth=self.cart_max_depth)
        raise ValueError(f"unknown base model {kind!r}")

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


def _normalize_across_models(raw: dict[str, tuple[float, float, float]]) -> dict:
    normalized = {}
    for m in range(3):
        vals = np.array([raw[name][m] for name in BASE_MODELS])
        span = vals.max() - vals.min()
        scaled = (vals - vals.min()) / span if span > 0 else np.zeros_like(vals)
        for name, v in zip(BASE_MODELS, scaled):
            normalized.setdefault(name, []).append(float(v))
    return {name: tuple(v) for name, v in normalized.items()}


def inner_error_profile(local_sets,
                        params: BaseModelParams | None = None
                        ) -> list[ErrorProfile]:
    """Leave-one-out inside each local set (X, y, ucp) for each base model,
    scoring effort predictions (predicted PDR times the held-out project's
    UCP); one profile per set.

    The inner problems of all sets are solved together.  Each (set,
    held-out row) problem is keyed by a digest of its training rows, and
    each learner fits one model per distinct key, which predicts at the
    held-out row of every problem with that key.  Across the outer folds of
    one leave-one-out run, outer fold a / inner b trains on the same rows as
    outer b / inner a whenever both local sets and scalers agree.  The
    distinct problems are grouped by training size and solved by one
    `params.fit_loo` call per base model and size (SVR, stepwise and CART
    folds are each fit in lockstep, in stacks each solver bounds by its
    memory, never one fold at a time).  Every fit is the same whatever it
    is stacked with, so each profile equals that of its set alone.  A stepwise fold
    that cannot evaluate its held-out row predicts its training mean there;
    no other learner or fit needs that fallback.
    """
    params = params or BaseModelParams()
    local_sets = [tuple(np.asarray(a, dtype=float) for a in local)
                  for local in local_sets]
    by_size: dict[int, list[int]] = {}
    for s, (_, y, _) in enumerate(local_sets):
        if y.size < STEPWISE_MIN_TRAIN + 1:
            raise ValueError(
                f"inner validation needs at least {STEPWISE_MIN_TRAIN + 1} "
                f"projects, got {y.size}")
        by_size.setdefault(y.size, []).append(s)

    predictions = [None] * len(local_sets)
    for n, members in by_size.items():
        X = np.stack([local_sets[s][0] for s in members])
        y = np.stack([local_sets[s][1] for s in members])
        # problem p leaves row p % n out of set p // n; owner[p] numbers its
        # training rows' digest in order of first appearance
        train = loo_train_rows(n, range(n))
        digests: dict[bytes, int] = {}
        owner = np.array([
            digests.setdefault(hashlib.blake2b(
                X_t.tobytes() + y_t.tobytes(), digest_size=16).digest(),
                len(digests))
            for X_k, y_k in zip(X, y)
            for X_t, y_t in zip(X_k[train], y_k[train])])
        sets, rows = np.divmod(np.unique(owner, return_index=True)[1], n)
        group = {name: np.maximum(params.fit_loo(
            name, X, y, rows, sets, X.reshape(-1, X.shape[2]), owner),
            PDR_FLOOR).reshape(len(members), n) for name in BASE_MODELS}
        for k, s in enumerate(members):
            predictions[s] = {name: group[name][k] for name in BASE_MODELS}

    profiles = []
    for (_, y, ucp), predicted in zip(local_sets, predictions):
        actual = y * ucp
        raw = {}
        for name in BASE_MODELS:
            estimate = predicted[name] * ucp
            raw[name] = (mae(actual, estimate), mbre(actual, estimate),
                         mibre(actual, estimate))
        profiles.append(ErrorProfile(raw=raw,
                                     normalized=_normalize_across_models(raw)))
    return profiles


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
    def from_dict(cls, data: dict, n_features: int) -> "EnsembleModel":
        from .regressors.base import model_from_dict

        params = data["params"]
        models = {name: model_from_dict(params["models"][name], n_features)
                  for name in BASE_MODELS}
        weights = {name: WeightBreakdown(*map(finite_number, params["weights"][name]))
                   for name in BASE_MODELS}
        return cls(models=models, weights=weights, alpha=params["alpha"],
                   n_train=data["metadata"]["n_train"])


def ensemble_fit(X, y, ucp, alpha: float = DEFAULT_ALPHA,
                 params: BaseModelParams | None = None,
                 profile: ErrorProfile | None = None,
                 models: dict | None = None) -> EnsembleModel:
    """Fit the three base models and weight them by their sigmoid-discounted
    inner-validation errors.  Training sets too small for inner validation
    fall back to equal weights.  `profile` is the set's
    `inner_error_profile` and `models` its three base models (the harness
    shares them between cells); either is computed here when not given."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    params = params or BaseModelParams()
    check_alpha(alpha)
    if y.size < STEPWISE_MIN_TRAIN:
        raise ValueError(
            f"ensemble needs at least {STEPWISE_MIN_TRAIN} projects, got {y.size}")

    if profile is None and y.size >= STEPWISE_MIN_TRAIN + 1:
        profile = inner_error_profile([(X, y, ucp)], params)[0]
    if profile is None:
        normalized = {name: (0.0, 0.0, 0.0) for name in BASE_MODELS}
    else:
        normalized = profile.normalized

    means = [float(np.mean([normalized[name][m] for name in BASE_MODELS]))
             for m in range(3)]
    weights = {}
    for name in BASE_MODELS:
        per_metric = [sigmoid_weight(normalized[name][m], means[m], alpha)
                      for m in range(3)]
        weights[name] = WeightBreakdown(*per_metric, combine_weights(*per_metric))

    if models is None:
        models = {name: params.fit_one(name, X, y) for name in BASE_MODELS}
    return EnsembleModel(models=models, weights=weights, alpha=alpha,
                         n_train=y.size, profile=profile)
