"""Locality-based productivity and effort prediction for Use Case Points
datasets: data model, preprocessing, per-factor statistics, two locality
partitioning schemes, three base regressors, a sigmoid-weighted ensemble,
fixed-productivity baselines and a leave-one-out benchmark harness."""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    Project,
    compute_effort,
    compute_pdr,
    compute_ucp,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .ensemble import (
    EnsembleModel,
    ensemble_fit,
    ensemble_predict,
    karner_predict,
    sigmoid_weight,
    sw_productivity,
)
from .evaluation import (
    EvaluationReport,
    MetricTriple,
    RunSettings,
    benchmark_all,
    loocv_run,
    mae,
    mbre,
    mibre,
)
from .locality import (
    MergedLevel,
    Partitioning,
    assign,
    dunn_index,
    kmeans,
    merge_level,
    partition_by_factor,
    partition_by_kmeans,
    select_k,
)
from .preprocess import (
    minmax_apply,
    minmax_fit,
    normality_check,
    remove_outliers,
    zscore_outliers,
)
from .regressors import (
    cart_fit,
    cart_predict,
    stepwise_fit,
    stepwise_predict,
    svr_fit,
    svr_predict,
)
from .stats import ci95_mean, interval_plot_data, level_counts, moments, spearman

__all__ = [
    "Dataset", "Project", "compute_ucp", "compute_pdr", "compute_effort",
    "load_dataset", "save_dataset", "generate_synthetic",
    "zscore_outliers", "remove_outliers", "minmax_fit", "minmax_apply",
    "normality_check",
    "moments", "spearman", "ci95_mean", "interval_plot_data", "level_counts",
    "MergedLevel", "merge_level", "Partitioning", "partition_by_factor",
    "partition_by_kmeans", "kmeans", "dunn_index", "select_k", "assign",
    "cart_fit", "cart_predict", "svr_fit", "svr_predict",
    "stepwise_fit", "stepwise_predict",
    "EnsembleModel", "ensemble_fit", "ensemble_predict", "sigmoid_weight",
    "karner_predict", "sw_productivity",
    "MetricTriple", "mae", "mbre", "mibre", "loocv_run", "benchmark_all",
    "RunSettings", "EvaluationReport",
]
