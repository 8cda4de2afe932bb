"""The leave-one-out harness and the full benchmark grid.

The accuracy metrics (`stats.mae`, `mbre` and `mibre`) are computed on
effort (predicted PDR times the test project's measured UCP), which is the
quantity the benchmark tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Project
from .ensemble import (
    BASE_MODELS,
    BaseModelParams,
    DEFAULT_ALPHA,
    KARNER_PDR,
    PDR_FLOOR,
    WeightBreakdown,
    ensemble_fit,
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
    """Hyperparameters and seeds for a benchmark run; the defaults are the
    per-module defaults, and the CLI's options default to these."""

    seed: int = 42
    min_local: int = DEFAULT_MIN_LOCAL
    ensemble_alpha: float = DEFAULT_ALPHA
    base_params: BaseModelParams = field(default_factory=BaseModelParams)
    # record full partition membership in each fold trace (for structural
    # leak checks; off by default to keep reports small)
    keep_partitions: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

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


def partition_each(trainings, scheme: str, seeds) -> list:
    """The scheme's partitioning of each training set (None without
    locality), one seed each.  The k-means sets, all of one size n, are
    clustered by one `partition_each_by_kmeans` call with k up to n // 2."""
    if scheme == SCHEME_NONE:
        return [None] * len(trainings)
    if scheme in FACTOR_SCHEMES:
        return [partition_by_factor(training, int(scheme[1:]))
                for training in trainings]
    if scheme == SCHEME_KMEANS:
        return partition_each_by_kmeans(
            trainings, min(KMEANS_K_MAX, len(trainings[0]) // 2), seeds)
    raise ValueError(f"unknown scheme {scheme!r}")


def _fold_runs(dataset: Dataset, scheme: str, settings: RunSettings):
    """(training, test, partitioning) for each leave-one-out fold, the
    partitionings from one `partition_each` call."""
    tests = list(dataset)
    trainings = [Dataset(tuple(p for p in dataset if p.id != test.id),
                         name=dataset.name) for test in tests]
    seeds = [derive_seed(settings.seed, i) for i in range(len(tests))]
    return list(zip(trainings, tests,
                    partition_each(trainings, scheme, seeds)))


@dataclass
class _SchemeRun:
    """What the cells of one scheme share in one run: each fold's
    (training, test, partitioning), each ensemble fold's
    (fields, local set, profile) once `_add_ensemble_sets` has built them,
    and each learner's fit of a local set, keyed by (learner, local ids).
    Ids are unique in a dataset and the scaler is fit on the set, so the
    ids fix the fit's X and y."""

    runs: list
    ensemble_sets: list | None = None
    fits: dict = field(default_factory=dict)


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


def _add_ensemble_sets(scheme_runs, settings: RunSettings) -> None:
    """Build every fold's ensemble local set of each `_SchemeRun` in
    `scheme_runs`, with the inner leave-one-out profile of each set large
    enough for inner validation.  All the profiles are computed in one
    `inner_error_profile` call."""
    for run in scheme_runs:
        run.ensemble_sets = [
            _local_set(training, test, "ensemble", settings, partitioning)
            for training, test, partitioning in run.runs]
    inner = [(X, y, ucp) for run in scheme_runs
             for _, (_, X, y, ucp) in run.ensemble_sets
             if y.size > STEPWISE_MIN_TRAIN]
    profiles = iter(inner_error_profile(inner, settings.base_params)
                    if inner else ())
    for run in scheme_runs:
        run.ensemble_sets = [
            (fields, data, next(profiles)
             if data[2].size > STEPWISE_MIN_TRAIN else None)
            for fields, data in run.ensemble_sets]


def _local_model(fields: dict, data, settings: RunSettings, fits: dict,
                 profile=None) -> LocalModel:
    """The `LocalModel` of one local set of `_local_set`.  A learner's fit
    of the set is taken from `fits` or made and put there, keyed by
    (learner, local ids); the ensemble takes its three base models so and
    is weighted by `profile` (computed by `ensemble_fit` when None)."""
    if data is None:
        return LocalModel(**fields, scaler=None, model=None)
    scaler, X, y, ucp = data
    params = settings.base_params

    def fit(name):
        key = (name, fields["local_ids"])
        if key not in fits:
            fits[key] = params.fit_one(name, X, y)
        return fits[key]

    if fields["kind"] == "ensemble":
        model = ensemble_fit(X, y, ucp, alpha=settings.ensemble_alpha,
                             params=params, profile=profile,
                             models={name: fit(name) for name in BASE_MODELS})
    else:
        model = fit(fields["kind"])
    return LocalModel(**fields, scaler=scaler, model=model)


def _check_cell(scheme: str, model: str) -> None:
    """Raise ValueError for an unknown scheme or model."""
    if scheme != SCHEME_NONE and scheme not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if model not in ALL_MODELS:
        raise ValueError(f"unknown model {model!r}")


def fit_local(training: Dataset, test: Project, model: str,
              settings: RunSettings, scheme: str = SCHEME_NONE) -> LocalModel:
    """Fit `model` on the test project's local set of `training` as a
    harness fold does: a learner's local set is the partition `assign` puts
    it in, of `partition_each` with `settings.seed`, or the full set (with
    the reason) when that partition is missing or smaller than
    `local_minimum`.  The baselines fit nothing and skip locality."""
    _check_cell(scheme, model)
    partitioning = None if model in BASELINE_MODELS else partition_each(
        [training], scheme, [settings.seed])[0]
    fields, data = _local_set(training, test, model, settings, partitioning)
    return _local_model(fields, data, settings, {})


def loocv_run(dataset: Dataset, scheme: str, model: str,
              settings: RunSettings | None = None,
              shared: _SchemeRun | None = None) -> EvaluationReport:
    """Leave-one-out evaluation of one (scheme, model) pair.

    Per fold: the partitioning, the feature scaler and the model fit all see
    only the training projects.  A local set smaller than the minimum (or a
    missing partition label) falls back to the full training set, flagged.

    `shared` is the scheme's `_SchemeRun` that `benchmark_all` hands to
    each of the scheme's cells.  Without it, the run is a one-cell grid of
    `benchmark_all`; a baseline ignores locality, so it runs only with
    scheme `none`.
    """
    settings = settings or RunSettings()
    if shared is None:
        _check_cell(scheme, model)
        if model in BASELINE_MODELS and scheme != SCHEME_NONE:
            raise ValueError(f"{model} is a baseline: it ignores locality "
                             f"and runs only with scheme {SCHEME_NONE!r}")
        return benchmark_all(dataset, settings, [scheme], [model])[0]
    if model == "ensemble":
        local_sets = shared.ensemble_sets
    else:
        local_sets = [(*_local_set(training, test, model, settings,
                                   partitioning), None)
                      for training, test, partitioning in shared.runs]
    local_models = [_local_model(fields, data, settings, shared.fits, profile)
                    for fields, data, profile in local_sets]

    folds = []
    for (_, test, partitioning), local in zip(shared.runs, local_models):
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
    locality, so they only appear in the no-locality rows.  Raise
    ValueError for an unknown scheme or model among those requested."""
    scheme_list = list(schemes) if schemes is not None \
        else list(ALL_SCHEMES) + [SCHEME_NONE]
    model_list = list(models) if models is not None else list(ALL_MODELS)
    for scheme in scheme_list:
        for model in model_list:
            _check_cell(scheme, model)
    return [(scheme, model) for scheme in scheme_list for model in model_list
            if scheme == SCHEME_NONE or model not in BASELINE_MODELS]


def benchmark_all(dataset: Dataset, settings: RunSettings | None = None,
                  schemes=None, models=None) -> list[EvaluationReport]:
    """Every locality scheme crossed with the four learners, plus
    no-locality runs for the learners and both baselines (see
    `grid_cells`).

    Every requested scheme and model and the dataset are checked before
    any work, and a request that keeps no cell is refused.  Each scheme's
    fold partitionings are built once, and its cells share them and each
    base-learner fit of a local set (see `_SchemeRun`); a scheme's fits are
    dropped once its cells have run.  Before any cell runs, the grid builds
    every ensemble cell's local sets and computes all their inner
    leave-one-out profiles in one `inner_error_profile` call, so an inner
    problem that cells of different schemes share is solved once.
    """
    settings = settings or RunSettings()
    cells = grid_cells(schemes, models)
    if not cells:
        raise ValueError(f"schemes {schemes} with models {models} select no "
                         f"cell: the baselines run only with scheme "
                         f"{SCHEME_NONE!r}")
    if len(dataset) < MIN_DATASET_SIZE:
        raise ValueError(
            f"LOOCV needs at least {MIN_DATASET_SIZE} projects, got {len(dataset)}")
    scheme_runs = {
        scheme: _SchemeRun(_fold_runs(dataset, scheme, settings))
        for scheme in dict.fromkeys(scheme for scheme, _ in cells)}
    _add_ensemble_sets([scheme_runs[scheme] for scheme, model in cells
                        if model == "ensemble"], settings)

    reports = []
    for scheme in list(scheme_runs):
        run = scheme_runs.pop(scheme)
        reports += [loocv_run(dataset, scheme, model, settings, run)
                    for cell_scheme, model in cells if cell_scheme == scheme]
    return reports
