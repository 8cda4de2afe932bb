"""The leave-one-out harness and the full benchmark grid.

The accuracy metrics (`stats.mae`, `mbre` and `mibre`) are computed on
effort (predicted PDR times the test project's measured UCP), which is the
quantity the benchmark tables report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Project
from .ensemble import (
    BASE_MODELS,
    BaseModelParams,
    KARNER_PDR,
    PDR_FLOOR,
    WeightBreakdown,
    ensemble_fit,
    fit_shared,
    inner_error_profile,
    sw_productivity,
)
from .locality import (
    KMEANS_K_MAX,
    KMEANS_K_MIN,
    Partitioning,
    assign,
    derive_seed,
    partition_by_factor,
    partition_by_kmeans,
    partition_each_by_kmeans,
)
from .preprocess import ScalerParams, minmax_apply, minmax_fit
from .regressors.base import model_from_dict
from .regressors.stepwise import MIN_TRAIN as STEPWISE_MIN_TRAIN
from .stats import MetricTriple, mae, mbre, mibre

LEARNER_MODELS = ("svr", "stepwise", "cart", "ensemble")
BASELINE_MODELS = ("karner", "sw")
ALL_MODELS = LEARNER_MODELS + BASELINE_MODELS

SCHEME_NONE = "none"
SCHEME_KMEANS = "kmeans"
FACTOR_SCHEMES = tuple(f"e{i}" for i in range(1, 9))
ALL_SCHEMES = FACTOR_SCHEMES + (SCHEME_KMEANS,)

MIN_DATASET_SIZE = 10
DEFAULT_MIN_LOCAL = 5

# smallest training set each learner can be fit on
_MODEL_MIN_TRAIN = {
    "svr": 2,
    "stepwise": STEPWISE_MIN_TRAIN,
    "cart": 1,
    "ensemble": STEPWISE_MIN_TRAIN,
}


@dataclass(frozen=True)
class RunSettings:
    """Hyperparameters and seeds for a benchmark run; defaults match the
    documented per-module defaults."""

    seed: int = 42
    min_local: int = DEFAULT_MIN_LOCAL
    ensemble_alpha: float = 15.0
    base_params: BaseModelParams = field(default_factory=BaseModelParams)
    # record full partition membership in each fold trace (for structural
    # leak checks; off by default to keep reports small)
    keep_partitions: bool = False

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "min_local": self.min_local,
            "pdr_floor": PDR_FLOOR,
            "ensemble_alpha": self.ensemble_alpha,
            "k_min": KMEANS_K_MIN,
            "k_max": KMEANS_K_MAX,
            "base_params": self.base_params.to_dict(),
            "keep_partitions": self.keep_partitions,
        }


@dataclass(frozen=True)
class FoldTrace:
    """One leave-one-out fold: which local data trained the model and what
    it predicted for the held-out project."""

    test_id: str
    partition_label: str | None
    fallback: bool
    local_size: int
    local_ids: tuple[str, ...]
    pdr_pred: float
    effort_pred: float
    effort_actual: float
    ucp: float
    base_pdrs: dict[str, float] | None = None
    weights: dict[str, WeightBreakdown] | None = None
    partition_members: dict[str, tuple[str, ...]] | None = None


@dataclass(frozen=True)
class EvaluationReport:
    scheme: str
    model: str
    metrics: MetricTriple
    folds: tuple[FoldTrace, ...]
    seed: int
    settings: dict

    @property
    def n(self) -> int:
        return len(self.folds)


def build_partitioning(training: Dataset, scheme: str,
                       fold_seed: int) -> Partitioning:
    """The scheme's partitioning of a training set; k-means picks k up to
    half the training size."""
    if scheme in FACTOR_SCHEMES:
        return partition_by_factor(training, int(scheme[1:]))
    if scheme == SCHEME_KMEANS:
        return partition_by_kmeans(training, k_max=_kmeans_k_max(training),
                                   seed=fold_seed)
    raise ValueError(f"unknown scheme {scheme!r}")


def _kmeans_k_max(training) -> int:
    return min(KMEANS_K_MAX, len(training) // 2)


def _fold_runs(dataset: Dataset, scheme: str, model: str,
               settings: RunSettings, memo: dict):
    """(training, test, partitioning) for each leave-one-out fold.  The
    partitioning is None without locality.  Partitionings are kept in
    `memo`, keyed on the scheme, fold seed and training projects; those
    missing are built together, the k-means folds by one
    `partition_each_by_kmeans` call."""
    runs = [(tuple(p for p in dataset if p.id != test.id), test)
            for test in dataset]
    if scheme == SCHEME_NONE or model in BASELINE_MODELS:
        return [(training, test, None) for training, test in runs]
    keys = [(scheme, derive_seed(settings.seed, i), training)
            for i, (training, _) in enumerate(runs)]
    partitionings = [memo.get(key) for key in keys]
    missing = [i for i, part in enumerate(partitionings) if part is None]
    trainings = [Dataset(runs[i][0], name=dataset.name) for i in missing]
    seeds = [keys[i][1] for i in missing]
    if scheme == SCHEME_KMEANS and missing:
        built = partition_each_by_kmeans(
            trainings, _kmeans_k_max(trainings[0]), seeds)
    else:
        built = map(build_partitioning, trainings, [scheme] * len(missing),
                    seeds)
    for i, part in zip(missing, built):
        partitionings[i] = memo[keys[i]] = part
    return [(training, test, part)
            for (training, test), part in zip(runs, partitionings)]


def local_minimum(model: str, settings: RunSettings) -> int:
    """Fewest local projects `model` is fit on; a smaller partition falls
    back to the full training set."""
    return max(settings.min_local, _MODEL_MIN_TRAIN[model])


@dataclass(frozen=True)
class LocalModel:
    """A model fit on one project's local set: the partition the project
    falls in (or the full training set, with the reason), the min-max
    scaler fit on that set and the fitted learner.  The baselines have
    neither scaler nor model.  The harness's folds and `predict` both
    predict through it.  An artifact records the local set's size but not
    its ids.
    """

    kind: str
    partition_label: str | None
    fallback: str | None
    local_size: int
    local_ids: tuple[str, ...] | None
    seed: int
    scaler: ScalerParams | None
    model: object | None

    def _scaled(self, project: Project) -> np.ndarray:
        return minmax_apply(self.scaler, np.array(project.size_features()))

    def pdr(self, project: Project) -> float:
        """Predicted PDR for `project`, floored at `PDR_FLOOR`."""
        if self.kind == "karner":
            pdr = KARNER_PDR
        elif self.kind == "sw":
            pdr = sw_productivity(project.env)
        else:
            pdr = float(self.model.predict(self._scaled(project)))
        return max(pdr, PDR_FLOOR)

    def base_pdrs(self, project: Project) -> dict[str, float] | None:
        """The ensemble's per-learner PDRs for `project`; None otherwise."""
        if self.kind != "ensemble":
            return None
        return self.model.base_predictions(self._scaled(project))

    def to_dict(self) -> dict:
        """The artifact document `predict --save-model` writes."""
        doc = {"partition_label": self.partition_label,
               "local_size": self.local_size, "model_kind": self.kind,
               "seed": self.seed}
        if self.fallback is not None:
            doc["fallback"] = self.fallback
        if self.model is None:
            doc["model"] = {"kind": self.kind, "params": {}, "metadata": {}}
        else:
            doc["model"] = self.model.to_dict()
            doc["scaler"] = self.scaler.to_dict()
        return doc

    @classmethod
    def from_dict(cls, data) -> "LocalModel":
        """Rebuild from an artifact document; a missing or malformed entry
        raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"model file must hold a JSON object, "
                             f"not {type(data).__name__}")
        try:
            kind = data["model"]["kind"]
            model = scaler = None
            if kind not in BASELINE_MODELS:
                model = model_from_dict(data["model"])
                scaler = ScalerParams.from_dict(data["scaler"])
            return cls(kind=kind, partition_label=data["partition_label"],
                       fallback=data.get("fallback"),
                       local_size=data["local_size"], local_ids=None,
                       seed=data["seed"], scaler=scaler, model=model)
        except KeyError as exc:
            raise ValueError(f"model file lacks the key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed model file: {exc}") from None


def _local_set(training, test: Project, model: str, settings: RunSettings,
               partitioning: Partitioning | None):
    """The test project's local set of `training` for `model`: the
    `LocalModel` fields and, for a learner, the min-max scaler fit on the
    set with the set's scaled features, PDRs and UCPs (None for a
    baseline)."""
    local = list(training)
    label = fallback = None
    if partitioning is not None and model not in BASELINE_MODELS:
        label = assign(test, partitioning) if partitioning.partitions \
            else None
        members = partitioning.partitions.get(label)
        min_needed = local_minimum(model, settings)
        if label is None:
            fallback = (f"the training set has fewer than {KMEANS_K_MIN} "
                        f"distinct factor vectors to cluster")
        elif members is None:
            fallback = f"partition {label} is empty"
        elif len(members) < min_needed:
            fallback = (f"partition {label} has {len(members)} projects, "
                        f"{model} needs {min_needed}")
        else:
            by_id = {p.id: p for p in local}
            local = [by_id[pid] for pid in members]
    fields = dict(kind=model, partition_label=label, fallback=fallback,
                  local_size=len(local), local_ids=tuple(p.id for p in local),
                  seed=settings.seed)
    if model in BASELINE_MODELS:
        return fields, None
    features = np.array([p.size_features() for p in local])
    scaler = minmax_fit(features)
    return fields, (scaler, minmax_apply(scaler, features),
                    np.array([p.pdr for p in local]),
                    np.array([p.ucp for p in local]))


def _profile_key(X: np.ndarray, y: np.ndarray, ucp: np.ndarray) -> tuple:
    return ("profile", X.shape, hashlib.blake2b(
        X.tobytes() + y.tobytes() + ucp.tobytes()).digest())


def _store_profiles(entries, params: BaseModelParams) -> None:
    """Put into each (memo, local set) entry's memo the set's inner
    leave-one-out profile, for every set large enough for inner validation
    whose memo lacks it.  All of them are computed in one
    `inner_error_profile` call."""
    pending = []
    for memo, (_, X, y, ucp) in entries:
        key = _profile_key(X, y, ucp)
        if y.size > STEPWISE_MIN_TRAIN and key not in memo:
            pending.append((memo, key, (X, y, ucp)))
    if pending:
        profiles = inner_error_profile([data for *_, data in pending], params)
        for (memo, key, _), profile in zip(pending, profiles):
            memo[key] = profile


def _fit_ensembles(local_sets, settings: RunSettings,
                   memo: dict | None) -> list[LocalModel]:
    """The ensemble fit on each local set of `_local_set`: the sets'
    profiles from `memo`, those missing computed in one `_store_profiles`
    call, then one `ensemble_fit` per set with its profile and its base
    models shared through `fit_shared`."""
    params = settings.base_params
    profiles = {} if memo is None else memo
    _store_profiles([(profiles, data) for _, data in local_sets], params)
    return [LocalModel(**fields, scaler=scaler, model=ensemble_fit(
                X, y, ucp, alpha=settings.ensemble_alpha, params=params,
                profile=profiles.get(_profile_key(X, y, ucp)),
                models={name: fit_shared(params, name, X, y, memo)
                        for name in BASE_MODELS}))
            for fields, (scaler, X, y, ucp) in local_sets]


def fit_local(training, test: Project, model: str, settings: RunSettings,
              partitioning: Partitioning | None = None,
              memo: dict | None = None) -> LocalModel:
    """Fit `model` on the test project's local set of `training`.

    With a partitioning, a learner's local set is the partition `assign`
    puts the test project in.  A missing partition, or one smaller than
    `local_minimum`, falls back to the full training set, with the reason.
    The baselines fit nothing and ignore locality.  The scaler is fit on
    the local set only; `memo` shares fits between the harness's cells
    (see `loocv_run`).
    """
    if model not in ALL_MODELS:
        raise ValueError(f"unknown model {model!r}")
    fields, data = _local_set(training, test, model, settings, partitioning)
    if data is None:
        return LocalModel(**fields, scaler=None, model=None)
    if model == "ensemble":
        return _fit_ensembles([(fields, data)], settings, memo)[0]
    scaler, X, y, _ = data
    return LocalModel(**fields, scaler=scaler, model=fit_shared(
        settings.base_params, model, X, y, memo))


def loocv_run(dataset: Dataset, scheme: str, model: str,
              settings: RunSettings | None = None,
              memo: dict | None = None) -> EvaluationReport:
    """Leave-one-out evaluation of one (scheme, model) pair.

    Per fold: the partitioning, the feature scaler and the model fit all see
    only the training projects.  A local set smaller than the minimum (or a
    missing partition label) falls back to the full training set, flagged.
    The folds' partitionings are built together (see `_fold_runs`).  An
    ensemble cell builds every fold's local set first and computes all
    their inner leave-one-out profiles in one `inner_error_profile` call,
    which solves an inner fit shared by several folds once.

    `memo` carries work between folds and between runs: each fold's
    partitioning, keyed on the scheme, fold seed and training projects,
    each base-learner fit on a local set (see `fit_shared`) and each local
    set's inner profile, keyed on its data.  Keys hold
    their inputs exactly, so any runs whose settings agree on `base_params`
    can share a memo and get the reports fresh memos give.  Without one,
    the run uses its own.
    """
    settings = settings or RunSettings()
    if scheme != SCHEME_NONE and scheme not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if model not in ALL_MODELS:
        raise ValueError(f"unknown model {model!r}")
    if len(dataset) < MIN_DATASET_SIZE:
        raise ValueError(
            f"LOOCV needs at least {MIN_DATASET_SIZE} projects, got {len(dataset)}")

    memo = {} if memo is None else memo
    runs = _fold_runs(dataset, scheme, model, settings, memo)
    if model == "ensemble":
        local_models = _fit_ensembles(
            [_local_set(training, test, model, settings, partitioning)
             for training, test, partitioning in runs], settings, memo)
    else:
        local_models = [fit_local(training, test, model, settings,
                                  partitioning, memo)
                        for training, test, partitioning in runs]

    folds = []
    for (_, test, partitioning), local in zip(runs, local_models):
        pdr = local.pdr(test)
        effort = pdr * test.ucp
        folds.append(FoldTrace(
            test_id=test.id,
            partition_label=local.partition_label,
            fallback=local.fallback is not None,
            local_size=local.local_size,
            local_ids=local.local_ids,
            pdr_pred=pdr,
            effort_pred=effort,
            effort_actual=test.effort,
            ucp=test.ucp,
            base_pdrs=local.base_pdrs(test),
            weights=local.model.weights if model == "ensemble" else None,
            partition_members=(dict(partitioning.partitions)
                               if partitioning is not None
                               and settings.keep_partitions
                               else None),
        ))

    return EvaluationReport(
        scheme=scheme,
        model=model,
        metrics=MetricTriple.compute([f.effort_actual for f in folds],
                                     [f.effort_pred for f in folds]),
        folds=tuple(folds),
        seed=settings.seed,
        settings=settings.to_dict(),
    )


def grid_cells(schemes=None, models=None) -> list[tuple[str, str]]:
    """The (scheme, model) cells `benchmark_all` runs, in its order.
    `schemes`/`models` filter the grid (None keeps all); baselines ignore
    locality, so they only appear in the no-locality rows."""
    scheme_list = list(schemes) if schemes is not None \
        else list(ALL_SCHEMES) + [SCHEME_NONE]
    model_list = list(models) if models is not None else list(ALL_MODELS)
    return [(scheme, model) for scheme in scheme_list for model in model_list
            if scheme == SCHEME_NONE or model not in BASELINE_MODELS]


def benchmark_all(dataset: Dataset, settings: RunSettings | None = None,
                  schemes=None, models=None) -> list[EvaluationReport]:
    """Every locality scheme crossed with the four learners, plus
    no-locality runs for the learners and both baselines (see
    `grid_cells`).

    Each scheme's cells share one memo, so a fold's partitioning and each
    base-learner fit on a local set are computed once for the scheme (see
    `loocv_run`).  Before any cell runs, the grid builds every ensemble
    cell's local sets and computes all their inner leave-one-out profiles
    in one `inner_error_profile` call, so an inner problem that cells of
    different schemes share is solved once.  Each ensemble cell then finds
    its profiles in its scheme's memo.
    """
    settings = settings or RunSettings()
    cells = grid_cells(schemes, models)
    memos = {scheme: {} for scheme, _ in cells}
    ensemble_sets = []
    for scheme, model in cells:
        if model == "ensemble":
            for training, test, partitioning in _fold_runs(
                    dataset, scheme, model, settings, memos[scheme]):
                _, data = _local_set(training, test, model, settings,
                                     partitioning)
                ensemble_sets.append((memos[scheme], data))
    _store_profiles(ensemble_sets, settings.base_params)

    reports = []
    for scheme in list(memos):
        memo = memos.pop(scheme)
        reports += [loocv_run(dataset, scheme, model, settings, memo)
                    for cell_scheme, model in cells if cell_scheme == scheme]
    return reports
