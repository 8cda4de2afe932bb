"""Descriptive statistics, rank correlation and confidence-interval data for
the per-factor productivity analysis, and the effort accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

from .dataset import FACTOR_MAX, FACTOR_MIN, Dataset


@dataclass(frozen=True)
class Moments:
    """Sample mean, stdev and bias-adjusted shape statistics.  Skewness and
    excess kurtosis are nan when the sample is constant or too small for
    the estimator."""

    mean: float
    stdev: float
    skewness: float
    kurtosis: float


def moments(values: np.ndarray) -> Moments:
    """Mean, sample (n-1) stdev, bias-adjusted skewness and excess kurtosis
    (normal -> 0)."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        raise ValueError(f"moments need at least 2 values, got {n}")
    mean = float(arr.mean())
    stdev = float(arr.std(ddof=1))

    centered = arr - mean
    m2 = float(np.mean(centered ** 2))
    skew = kurt = float("nan")
    if m2 > 0:
        if n >= 3:
            g1 = float(np.mean(centered ** 3)) / m2 ** 1.5
            skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        if n >= 4:
            g2 = float(np.mean(centered ** 4)) / m2 ** 2 - 3.0
            kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    return Moments(mean=mean, stdev=stdev, skewness=skew, kurtosis=kurt)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@dataclass(frozen=True)
class SpearmanResult:
    r: float
    p_value: float
    n: int


def spearman(x: np.ndarray, y: np.ndarray) -> SpearmanResult:
    """Spearman rank correlation with average ranks for ties; p-value from
    the t approximation t = r * sqrt((n-2) / (1-r^2)) on n-2 dof."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for a constant input")

    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    r = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return SpearmanResult(r, 0.0, n)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return SpearmanResult(r, p, n)


def ci95_mean(values: np.ndarray) -> tuple[float, float] | None:
    """95% t confidence interval for the mean, or None when fewer than two
    values make it undefined."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        return None
    half = float(stdtrit(n - 1, 0.975) * arr.std(ddof=1)) / math.sqrt(n)
    mean = float(arr.mean())
    return (mean - half, mean + half)


@dataclass(frozen=True)
class IntervalSummary:
    """Mean PDR and its 95% CI for one factor level."""

    level: int
    count: int
    mean: float
    ci_low: float
    ci_high: float
    ci_defined: bool


def interval_plot_data(dataset: Dataset, factor_index: int) -> tuple[IntervalSummary, ...]:
    """Per-level PDR interval summaries for one environmental factor,
    ordered by raw level; only occupied levels appear."""
    if not 1 <= factor_index <= 8:
        raise ValueError(f"factor index must be in 1..8, got {factor_index}")
    groups: dict[int, list[float]] = {}
    for p in dataset:
        groups.setdefault(p.factor(factor_index), []).append(p.pdr)

    summaries = []
    for level in sorted(groups):
        pdrs = np.array(groups[level])
        mean = float(pdrs.mean())
        ci = ci95_mean(pdrs)
        if ci is None:
            summaries.append(IntervalSummary(level, pdrs.size, mean,
                                             float("nan"), float("nan"), False))
        else:
            summaries.append(IntervalSummary(level, pdrs.size, mean,
                                             ci[0], ci[1], True))
    return tuple(summaries)


def level_counts(dataset: Dataset, factor_index: int) -> tuple[int, ...]:
    """Occupancy count per raw level 0..5 for one factor."""
    if not 1 <= factor_index <= 8:
        raise ValueError(f"factor index must be in 1..8, got {factor_index}")
    counts = [0] * (FACTOR_MAX - FACTOR_MIN + 1)
    for p in dataset:
        counts[p.factor(factor_index)] += 1
    return tuple(counts)


def mae(actuals, estimates) -> float:
    """Mean absolute error."""
    a, e = _paired(actuals, estimates)
    return float(np.mean(np.abs(a - e)))


def mbre(actuals, estimates) -> float:
    """Mean balanced relative error: |e - e_hat| / min(e, e_hat)."""
    a, e = _paired(actuals, estimates)
    _require_positive(a, e)
    return float(np.mean(np.abs(a - e) / np.minimum(a, e)))


def mibre(actuals, estimates) -> float:
    """Mean inverse balanced relative error: |e - e_hat| / max(e, e_hat)."""
    a, e = _paired(actuals, estimates)
    _require_positive(a, e)
    return float(np.mean(np.abs(a - e) / np.maximum(a, e)))


def _paired(actuals, estimates) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actuals, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if a.size != e.size:
        raise ValueError(f"length mismatch: {a.size} vs {e.size}")
    if a.size == 0:
        raise ValueError("metrics need at least one pair")
    return a, e


def _require_positive(a: np.ndarray, e: np.ndarray) -> None:
    if a.min() <= 0:
        raise ValueError("actual efforts must be positive")
    if e.min() <= 0:
        raise ValueError("estimates must be positive (apply the PDR floor)")


@dataclass(frozen=True)
class MetricTriple:
    mae: float
    mbre: float
    mibre: float

    @classmethod
    def compute(cls, actuals, estimates) -> "MetricTriple":
        return cls(mae=mae(actuals, estimates),
                   mbre=mbre(actuals, estimates),
                   mibre=mibre(actuals, estimates))
