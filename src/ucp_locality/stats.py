"""Descriptive statistics, rank correlation and confidence-interval data for
the per-factor productivity analysis, the effort accuracy metrics, and the
Student-t tail, Student-t quantile and normal CDF they rest on, all computed
with numpy and `math` alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dataset import FACTOR_MAX, FACTOR_MIN, Dataset

_SQRT1_2 = math.sqrt(0.5)
# |t| is capped here so that t = +-inf needs no special case
_T_CAP = 1e300


@cache
def _t_series(dof: int) -> tuple[float, ...]:
    """Coefficients of the dof // 2 powers of cos^2(theta) in the t-tail
    series: running products of (2j)/(2j+1) for odd dof, (2j-1)/(2j) for
    even dof."""
    odd = dof % 2
    coefs, c = [], 1.0
    for j in range(dof // 2):
        coefs.append(c)
        c *= (2 * j + 1 + odd) / (2 * j + 2 + odd)
    return tuple(coefs)


def t_two_sided_p(t, dof: int) -> np.ndarray:
    """Two-sided Student-t tail P(|T| > |t|) on an integer `dof` >= 1,
    elementwise over any shape; t = 0 gives 1 and t = +-inf gives 0.

    The finite series of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4
    (even dof) give P(|T| <= |t|) from theta = atan(|t| / sqrt(dof)); the
    series in cos^2(theta) is evaluated by Horner's rule over the whole
    array.  The absolute error is about 1e-15 (7e-15 at dof 300), so the
    relative error grows as the tail shrinks (about 1e-9 at 1e-6).  Only
    elementwise arithmetic is used, so each value is the same bit for bit
    whatever array it comes in.
    """
    if dof < 1:
        raise ValueError(f"dof must be at least 1, got {dof}")
    a = np.minimum(np.abs(t), _T_CAP)
    root = math.sqrt(dof)
    coefs = _t_series(dof)
    r = np.hypot(root, a)
    sin, cos = a / r, root / r
    z = cos * cos
    series = 1.0
    if len(coefs) > 1:
        series = z * coefs[-1]
        for c in coefs[-2:0:-1]:
            series += c
            series *= z
        series += 1.0
    if dof % 2:
        inside = np.arctan2(a, root)
        if coefs:
            inside += sin * cos * series
        inside *= 2.0 / math.pi
    else:
        inside = sin * series
    return 1.0 - np.minimum(inside, 1.0)


def t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t on an integer `dof` >= 1, where
    `t_two_sided_p` is 0.05.  Newton steps rise from the normal quantile
    (the tail is convex, so none overshoots) until one no longer rises; that
    last step, taken from the rounding noise at the root, is kept.  It is as
    accurate as that tail: within about 3e-14 relative up to dof 300."""
    if dof < 1:
        raise ValueError(f"dof must be at least 1, got {dof}")
    log_c = (math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
             - 0.5 * math.log(dof * math.pi))
    t = 1.959963984540054  # the normal quantile, below every t quantile
    while True:
        density = math.exp(log_c - (dof + 1) / 2 * math.log1p(t * t / dof))
        nxt = t + (float(t_two_sided_p(t, dof)) - 0.05) / (2.0 * density)
        if not nxt > t:
            return nxt
        t = nxt


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF, elementwise over any shape, from `math.erfc`."""
    arr = np.asarray(x, dtype=float)
    cdf = np.array(list(map(math.erfc, (arr * -_SQRT1_2).ravel().tolist())))
    cdf *= 0.5
    return cdf.reshape(arr.shape)


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
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


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
    p = float(t_two_sided_p(t, n - 2))
    return SpearmanResult(r, p, n)


def ci95_mean(values: np.ndarray) -> tuple[float, float] | None:
    """95% t confidence interval for the mean, or None when fewer than two
    values make it undefined."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        return None
    half = t_quantile_975(n - 1) * float(arr.std(ddof=1)) / math.sqrt(n)
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
