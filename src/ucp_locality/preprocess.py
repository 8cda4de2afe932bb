"""Outlier screening, feature scaling and the normality check used before
fitting regression models."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .dataset import Dataset

# Size/effort variables screened for outliers; these are the heavy-tailed
# columns in this kind of dataset.
OUTLIER_FEATURES = ("effort", "ucp", "uaw", "uucw", "pdr")
DEFAULT_Z_THRESHOLD = 3.0


@dataclass(frozen=True)
class OutlierReport:
    """Per-project z-score screening result."""

    ids: tuple[str, ...]
    features: tuple[str, ...]
    zscores: np.ndarray          # n x len(features); nan where stdev was 0
    flagged: tuple[bool, ...]
    threshold: float

    @property
    def flagged_ids(self) -> tuple[str, ...]:
        return tuple(i for i, f in zip(self.ids, self.flagged) if f)

    def max_abs_z(self) -> np.ndarray:
        """Largest |z| over screened features per project; 0 when every
        feature was constant."""
        return np.max(np.abs(np.nan_to_num(self.zscores, nan=0.0)), axis=1)

    def to_csv_rows(self) -> list[tuple[str, str, str]]:
        """Rows for the `id,flagged,max_abs_z` export."""
        maxes = self.max_abs_z()
        return [(pid, str(bool(flag)).lower(), repr(float(m)))
                for pid, flag, m in zip(self.ids, self.flagged, maxes)]


def zscore_outliers(dataset: Dataset,
                    threshold: float = DEFAULT_Z_THRESHOLD) -> OutlierReport:
    """Flag projects with any of `OUTLIER_FEATURES` more than `threshold`
    sample standard deviations from the feature mean.  Constant features are
    skipped; constancy is tested on the values, because the mean of equal
    values can round away from them and leave a tiny nonzero stdev."""
    if len(dataset) < 3:
        raise ValueError("outlier screening needs at least 3 projects")
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")

    n = len(dataset)
    zscores = np.full((n, len(OUTLIER_FEATURES)), np.nan)
    for j, feat in enumerate(OUTLIER_FEATURES):
        values = dataset.column(feat)
        if values.min() < values.max():
            zscores[:, j] = (values - values.mean()) / values.std(ddof=1)
    flagged = np.max(np.abs(np.nan_to_num(zscores, nan=0.0)), axis=1) > threshold
    return OutlierReport(
        ids=dataset.ids(),
        features=OUTLIER_FEATURES,
        zscores=zscores,
        flagged=tuple(bool(f) for f in flagged),
        threshold=threshold,
    )


def remove_outliers(dataset: Dataset, report: OutlierReport) -> Dataset:
    """Dataset minus the flagged projects, order preserved."""
    if report.ids != dataset.ids():
        raise ValueError("report was not produced from this dataset")
    kept = tuple(p for p, flag in zip(dataset, report.flagged) if not flag)
    if not kept:
        raise ValueError("removing outliers would empty the dataset")
    return Dataset(kept, name=dataset.name)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature (min, max) learned from a training sample."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must have equal length")
        for lo, hi in zip(self.mins, self.maxs):
            if hi < lo:
                raise ValueError(f"max {hi} < min {lo}")

    @property
    def n_features(self) -> int:
        return len(self.mins)

    def to_dict(self) -> dict:
        return {"mins": list(self.mins), "maxs": list(self.maxs)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScalerParams":
        return cls(mins=tuple(data["mins"]), maxs=tuple(data["maxs"]))


def minmax_fit(values: np.ndarray) -> ScalerParams:
    """Learn per-feature min/max from a (n, f) training array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a (n, f) array, got {arr.ndim} dimensions")
    if arr.shape[0] < 1:
        raise ValueError("cannot fit a scaler on an empty sample")
    return ScalerParams(
        mins=tuple(float(v) for v in arr.min(axis=0)),
        maxs=tuple(float(v) for v in arr.max(axis=0)),
    )


def minmax_apply(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    """Scale values by (x - min) / (max - min); a degenerate span maps to 0.
    Values outside the fit range extrapolate outside [0, 1].

    A 2-d (m, f) array scales row-wise and a 1-d array is one f-long
    sample; the output keeps the input's shape.
    """
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    if arr.shape[1] != params.n_features:
        raise ValueError(
            f"expected {params.n_features} features, got {arr.shape[1]}")
    mins = np.array(params.mins)
    spans = np.array(params.maxs) - mins
    out = np.zeros_like(arr)
    nonzero = spans > 0
    out[:, nonzero] = (arr[:, nonzero] - mins[nonzero]) / spans[nonzero]
    return out[0] if np.ndim(values) == 1 else out


@dataclass(frozen=True)
class NormalityResult:
    is_normal: bool
    statistic: float
    critical_value: float


# Lilliefors' KS test at the 5% level, with Stephens' (1974) critical point:
# the modified statistic D * (sqrt(n) - 0.01 + 0.85/sqrt(n)) is compared
# against 0.895.
_LILLIEFORS_5PCT = 0.895


def normality_check(values: np.ndarray) -> NormalityResult:
    """One-sample KS test against a normal with the sample's mean and
    stdev, at the 5% level with the Lilliefors-adjusted critical value.

    A constant sample is reported as not normal with statistic 1; it is
    found by its values, since their mean can round away from them.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    n = arr.size
    if n < 5:
        raise ValueError(f"normality check needs at least 5 values, got {n}")
    critical = _LILLIEFORS_5PCT / (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
    if arr[0] == arr[-1]:
        return NormalityResult(False, 1.0, critical)
    cdf = ndtr((arr - arr.mean()) / arr.std(ddof=1))
    steps = np.arange(1, n + 1) / n
    d_plus = np.max(steps - cdf)
    d_minus = np.max(cdf - (steps - 1.0 / n))
    statistic = float(max(d_plus, d_minus))
    return NormalityResult(statistic <= critical, statistic, critical)
