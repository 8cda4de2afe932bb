"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 13-15 need the original replication dataset; point the
UCP_REPLICATION_DATA environment variable at its CSV to enable them,
otherwise they are skipped.
"""

import itertools
import json
import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from ucp_locality.dataset import generate_synthetic, load_dataset
from ucp_locality.ensemble import (
    BASE_MODELS,
    combine_weights,
    ensemble_predict,
    sigmoid_weight,
    sw_productivity,
)
from ucp_locality.evaluation import (
    RunSettings,
    benchmark_all,
    loocv_run,
    mae,
    mbre,
    mibre,
)
from ucp_locality.locality import (
    derive_seed,
    dunn_index,
    kmeans,
    merge_level,
    partition_by_factor,
    partition_by_kmeans,
    select_k,
)
from ucp_locality.preprocess import remove_outliers, zscore_outliers
from ucp_locality.regressors import cart_fit, stepwise_fit, svr_fit, svr_predict
from ucp_locality.report import benchmark_files
from ucp_locality.stats import moments, spearman

from test_golden import GOLDEN, assert_equals_golden

REPLICATION_ENV = "UCP_REPLICATION_DATA"


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion:02d} PASS - {text}")


def _replication_dataset():
    path = os.environ.get(REPLICATION_ENV)
    if not path or not os.path.exists(path):
        pytest.skip(f"replication dataset not available (set {REPLICATION_ENV})")
    return load_dataset(path)


# --- deterministic / exact -------------------------------------------------

def test_criterion_01_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    actual = rng.uniform(50, 1e5, 1000)
    estimate = rng.uniform(50, 1e5, 1000)

    n = actual.size
    naive_mae = sum(abs(a - e) for a, e in zip(actual, estimate)) / n
    naive_mbre = sum(abs(a - e) / min(a, e) for a, e in zip(actual, estimate)) / n
    naive_mibre = sum(abs(a - e) / max(a, e) for a, e in zip(actual, estimate)) / n

    assert mae(actual, estimate) == pytest.approx(naive_mae, rel=1e-12)
    assert mbre(actual, estimate) == pytest.approx(naive_mbre, rel=1e-12)
    assert mibre(actual, estimate) == pytest.approx(naive_mibre, rel=1e-12)
    per_b = np.abs(actual - estimate) / np.minimum(actual, estimate)
    per_i = np.abs(actual - estimate) / np.maximum(actual, estimate)
    assert np.all(per_i <= per_b)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"metric oracles agree to 1e-12; MIBRE<=MBRE per pair "
               f"({elapsed:.2f} s)")


def test_criterion_02_karner_closed_form():
    start = time.perf_counter()
    dataset = generate_synthetic(7, 40)
    report = loocv_run(dataset, "none", "karner")
    efforts = dataset.column("effort")
    ucps = dataset.column("ucp")
    closed_form = float(np.mean(np.abs(efforts - 20.0 * ucps)))
    assert report.metrics.mae == closed_form
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"no-locality Karner MAE equals mean|e - 20*ucp| exactly "
               f"({elapsed:.2f} s)")


def test_criterion_03_sw_exhaustive():
    start = time.perf_counter()
    by_count = {}
    for env in itertools.product(range(6), repeat=8):
        got = sw_productivity(env)
        count = sum(1 for e in env[:6] if e < 3) + sum(1 for e in env[6:] if e > 3)
        expected = 20.0 if count <= 2 else (28.0 if count <= 4 else 36.0)
        assert got == expected
        prev = by_count.get(count)
        assert prev is None or prev == got
        by_count[count] = got
    counts = sorted(by_count)
    values = [by_count[c] for c in counts]
    assert values == sorted(values)                 # monotone in count
    assert set(values) <= {20.0, 28.0, 36.0}
    assert counts == list(range(9))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"all 6^8 = 1,679,616 assessments agree with the count oracle, "
               f"monotone ({elapsed:.1f} s)")


def test_criterion_04_ensemble_algebra():
    assert sigmoid_weight(0.37, 0.37, 15.0) == 0.5
    assert sigmoid_weight(0.0, 0.0, 15.0) == 0.5

    # equal error profiles: all normalized errors 0 -> all weights equal
    weights = [combine_weights(*(sigmoid_weight(0.0, 0.0, 15.0),) * 3)] * 3
    preds = [11.0, 17.0, 23.0]
    assert ensemble_predict(preds, weights) == pytest.approx(
        sum(preds) / 3, rel=1e-12)

    rng = np.random.default_rng(4)
    for _ in range(500):
        preds = rng.uniform(1, 40, 3)
        weights = rng.uniform(1e-6, 1, 3)
        combined = ensemble_predict(preds, weights)
        assert preds.min() - 1e-12 <= combined <= preds.max() + 1e-12
    _report(4, "sigmoid midpoint 0.5 exact; equal profiles give the mean; "
               "prediction stays inside the base range")


def test_criterion_05_partition_conservation():
    dataset = generate_synthetic(11, 110)
    ids = set(dataset.ids())
    for factor in range(1, 9):
        part = partition_by_factor(dataset, factor)
        members = [pid for m in part.partitions.values() for pid in m]
        assert len(members) == len(dataset)
        assert set(members) == ids
    part = partition_by_kmeans(dataset, seed=3)
    members = [pid for m in part.partitions.values() for pid in m]
    assert len(members) == len(dataset)
    assert set(members) == ids

    merged = [merge_level(s).label for s in range(6)]
    assert merged == ["L12", "L12", "L12", "L3", "L45", "L45"]
    _report(5, "factor and k-means partitions are disjoint covers; merge "
               "rule is L12/L12/L12/L3/L45/L45 over scores 0..5")


# --- oracle equivalence at desk scale --------------------------------------

def _brute_force_best_sse(X, y, min_leaf):
    best = None
    n = len(y)
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2
            left = X[:, f] <= thr
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            sse = float(np.sum((y[left] - y[left].mean()) ** 2)
                        + np.sum((y[~left] - y[~left].mean()) ** 2))
            if best is None or sse < best:
                best = sse
    return best


def test_criterion_06_cart_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    checked_nodes = 0
    for _ in range(200):
        n = int(rng.integers(6, 31))
        X = rng.uniform(0, 1, (n, 4))
        y = rng.uniform(0, 50, n)
        model = cart_fit(X, y, min_split=4, min_leaf=2, max_depth=4)

        stack = [(model.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                assert node.prediction == pytest.approx(
                    y[idx].mean(), rel=1e-12)
                continue
            checked_nodes += 1
            left = X[idx, node.feature] <= node.threshold
            yl, yr = y[idx][left], y[idx][~left]
            chosen = float(np.sum((yl - yl.mean()) ** 2)
                           + np.sum((yr - yr.mean()) ** 2))
            oracle = _brute_force_best_sse(X[idx], y[idx], model.min_leaf)
            assert chosen <= oracle * (1 + 1e-9) + 1e-9
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"200 instances: every split optimal vs brute force "
               f"({checked_nodes} internal nodes), leaf means exact "
               f"({elapsed:.1f} s)")


def _kkt_worst_violation(model, X, y):
    lookup = {tuple(r): c for r, c in
              zip(model.support_vectors, model.coefficients)}
    eps, C = model.epsilon, model.c
    worst = 0.0
    for i in range(len(y)):
        r = y[i] - svr_predict(model, X[i])
        b = lookup.get(tuple(X[i]), 0.0)
        if b <= -C + 1e-9:
            v = max(0.0, r + eps)
        elif b < -1e-9:
            v = abs(r + eps)
        elif b <= 1e-9:
            v = max(0.0, abs(r) - eps)
        elif b < C - 1e-9:
            v = abs(r - eps)
        else:
            v = max(0.0, eps - r)
        worst = max(worst, v)
    return worst


def test_criterion_07_svr_kkt():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(4, 16))
        X = rng.uniform(0, 1, (n, 4))
        y = 15 + 6 * np.sin(5 * X[:, 0]) + 2 * X[:, 1] + rng.normal(0, 1, n)
        c = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
        model = svr_fit(X, y, c=c)
        assert model.converged
        assert _kkt_worst_violation(model, X, y) <= model.tol

        lookup = {tuple(r): co for r, co in
                  zip(model.support_vectors, model.coefficients)}
        beta = np.array([lookup.get(tuple(row), 0.0) for row in X])
        assert abs(beta.sum()) <= 1e-9
        assert np.all(beta >= -c - 1e-12) and np.all(beta <= c + 1e-12)
    _report(7, "100 instances: KKT within tol=0.001, box constraints hold, "
               "sum(alpha-alpha*) = 0 within 1e-9")


def test_criterion_08_stepwise_oracle():
    rng = np.random.default_rng(8)
    X = rng.uniform(0.05, 1.0, (40, 4))
    X[0, :] = 0.0    # keeps every feature on the identity scale

    y = 3.0 * X[:, 0]
    model = stepwise_fit(X, y)
    assert model.feature_indices == (0,)
    design = np.column_stack([np.ones(40), X[:, 0]])
    oracle = np.linalg.solve(design.T @ design, design.T @ y)
    assert model.intercept == pytest.approx(oracle[0], abs=1e-6)
    assert model.coefficients[0] == pytest.approx(oracle[1], abs=1e-6)
    assert model.coefficients[0] == pytest.approx(3.0, abs=1e-6)

    y2 = 2.0 * X[:, 1] + 5.0
    model2 = stepwise_fit(X, y2)
    assert model2.feature_indices == (1,)
    assert model2.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert model2.intercept == pytest.approx(5.0, abs=1e-6)

    intercept_only = 0
    for trial in range(10):
        noise = rng.normal(25, 2, 40)
        m = stepwise_fit(X, noise)
        if m.feature_indices == ():
            intercept_only += 1
            assert m.intercept == pytest.approx(noise.mean())
    assert intercept_only >= 7   # 5% false-retention rate per feature
    _report(8, "exact linear fixtures recovered to 1e-6 vs normal equations, "
               "noise features dropped, pure noise gives intercept-only")


def test_criterion_09_select_k_oracle():
    rng = np.random.default_rng(9)
    for trial in range(50):
        planted = int(rng.integers(2, 4))
        per_blob = 6 if planted == 2 else 4            # 12 points, > k_max
        centers = [np.full(8, 2.0 * c) for c in range(planted)]
        pts = np.vstack([rng.normal(c, 0.03, (per_blob, 8)) for c in centers])
        k_max = min(10, np.unique(pts, axis=0).shape[0])

        k_star, _ = select_k(pts, 10, seed=trial)
        assert k_star == planted

        best_k, best_index = None, -np.inf
        for k in range(2, k_max + 1):
            result = kmeans(pts, k, derive_seed(trial, k))
            index = dunn_index(pts, result.assignments, result.centroids)
            if index > best_index:
                best_k, best_index = k, index
        assert k_star == best_k
    _report(9, "50 blob instances: select_k returns the planted k and matches "
               "exhaustive evaluation")


def test_criterion_10_loocv_discipline():
    dataset = generate_synthetic(10, 16)
    settings = RunSettings(seed=5, keep_partitions=True)
    for scheme in ("e2", "kmeans"):
        report = loocv_run(dataset, scheme, "cart", settings)
        assert report.n == len(dataset)
        assert [f.test_id for f in report.folds] == list(dataset.ids())
        for fold in report.folds:
            assert fold.test_id not in fold.local_ids
            members = [pid for ids in fold.partition_members.values()
                       for pid in ids]
            assert fold.test_id not in members
            assert len(members) == len(dataset) - 1

    def snapshot(rep):
        return json.dumps([asdict(f) for f in rep.folds], sort_keys=True)

    r1 = loocv_run(dataset, "kmeans", "ensemble", RunSettings(seed=5))
    r2 = loocv_run(dataset, "kmeans", "ensemble", RunSettings(seed=5))
    assert snapshot(r1) == snapshot(r2)
    assert r1.metrics == r2.metrics
    _report(10, "test project absent from partitioning/scaler/fit in every "
                "fold; fold count = n; reruns byte-identical")


# --- statistical / distributional ------------------------------------------

def test_criterion_11_synthetic_generator():
    start = time.perf_counter()
    dataset = generate_synthetic(1, 10000)
    pdr = dataset.column("pdr")
    stats = moments(pdr)
    assert stats.mean == pytest.approx(18.07, rel=0.10)
    assert stats.stdev == pytest.approx(4.5, rel=0.10)
    assert stats.skewness > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(11, f"n=10,000: PDR mean {stats.mean:.2f} (target 18.07), stdev "
                f"{stats.stdev:.2f} (target 4.5), skew {stats.skewness:+.2f} "
                f"({elapsed:.1f} s)")


def test_criterion_12_full_benchmark_budget():
    dataset = generate_synthetic(42, 110)
    cleaned = remove_outliers(dataset, zscore_outliers(dataset))
    settings = RunSettings(seed=42)

    start = time.perf_counter()
    reports = benchmark_all(cleaned, settings)
    elapsed = time.perf_counter() - start
    assert len(reports) == 9 * 4 + 6
    assert elapsed < 300.0

    # determinism probe on the most seed-sensitive cell
    probe = [r for r in reports if (r.scheme, r.model) == ("kmeans", "svr")][0]
    again = loocv_run(cleaned, "kmeans", "svr", settings)
    assert probe == again

    # every table and trace byte as recorded (tests/test_golden.py)
    assert_equals_golden({rel: text.encode() for rel, text
                          in benchmark_files(reports, "csv").items()},
                         GOLDEN / "n108")
    _report(12, f"full 42-run benchmark on {len(cleaned)} projects in "
                f"{elapsed:.0f} s (< 300 s), deterministic, equal to the "
                f"recorded tables and traces")


# --- conditional replication ------------------------------------------------

def test_criterion_13_replication_correlations():
    dataset = _replication_dataset()
    pdr = dataset.column("pdr")
    uucw = spearman(dataset.column("uucw"), pdr)
    ef = spearman(dataset.column("ef"), pdr)
    assert uucw.r == pytest.approx(0.456, abs=0.01)
    assert ef.r == pytest.approx(0.386, abs=0.01)
    stats = moments(pdr)
    assert stats.skewness == pytest.approx(0.2, abs=0.05)
    assert stats.kurtosis == pytest.approx(-0.22, abs=0.05)
    _report(13, "replication correlations and PDR shape match the published "
                "table")


def test_criterion_14_replication_baselines():
    dataset = _replication_dataset()
    cleaned = remove_outliers(dataset, zscore_outliers(dataset))
    karner = loocv_run(cleaned, "none", "karner")
    sw = loocv_run(cleaned, "none", "sw")
    assert karner.metrics.mae == pytest.approx(2918.05, rel=0.02)
    assert sw.metrics.mae == pytest.approx(2856.69, rel=0.02)
    _report(14, "replication Karner/SW MAE within 2% of the published values")


def test_criterion_15_replication_ordering():
    dataset = _replication_dataset()
    cleaned = remove_outliers(dataset, zscore_outliers(dataset))
    settings = RunSettings(seed=42)
    reports = {(r.scheme, r.model): r for r in benchmark_all(cleaned, settings)}

    ens = reports[("none", "ensemble")].metrics.mae
    for base in BASE_MODELS:
        assert ens < reports[("none", base)].metrics.mae
    e8 = reports[("e8", "ensemble")].metrics.mae
    others = [reports[(f"e{i}", "ensemble")].metrics.mae for i in range(1, 9)]
    others.append(reports[("kmeans", "ensemble")].metrics.mae)
    assert e8 == min(others)
    _report(15, "replication: ensemble beats base models without locality and "
                "E8 is its best partitioning factor")
