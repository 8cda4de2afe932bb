"""An independent reference for the benchmark grid: every cell's
leave-one-out written as a plain loop over folds from the public
primitives alone (partitioning, min-max scaling, the scalar learners, the
ensemble's weighting rule and the accuracy metrics), compared with
`benchmark_all` bit for bit.

The ensemble's inner leave-one-out is one scalar fit per inner fold, on
the local set scaled once; a stepwise fold that cannot evaluate its
held-out row predicts its training mean there.
"""

from collections import Counter

import numpy as np

from ucp_locality.dataset import Dataset, generate_synthetic
from ucp_locality.ensemble import (
    KARNER_PDR,
    PDR_FLOOR,
    combine_weights,
    ensemble_predict,
    sigmoid_weight,
    sw_productivity,
)
from ucp_locality.evaluation import RunSettings, benchmark_all
from ucp_locality.locality import (
    assign,
    derive_seed,
    partition_by_factor,
    partition_by_kmeans,
)
from ucp_locality.preprocess import minmax_apply, minmax_fit
from ucp_locality.regressors import cart_fit, stepwise_fit, svr_fit
from ucp_locality.stats import mae, mbre, mibre

LEARNERS = {"svr": svr_fit, "stepwise": stepwise_fit, "cart": cart_fit}
SCHEMES = tuple(f"e{i}" for i in range(1, 9)) + ("kmeans", "none")
# fewest local projects each model is fit on: the default minimum local
# size 5, or the learner's own minimum where larger (stepwise needs 6)
MIN_LOCAL = {"svr": 5, "stepwise": 6, "cart": 5, "ensemble": 6}
# a local set needs this many projects for the ensemble's inner
# leave-one-out; a smaller one weights its learners equally
MIN_INNER = 7


def partitionings(training_sets, scheme, seed):
    if scheme == "none":
        return [None] * len(training_sets)
    if scheme == "kmeans":
        return [partition_by_kmeans(training, min(10, len(training) // 2),
                                    derive_seed(seed, i))
                for i, training in enumerate(training_sets)]
    return [partition_by_factor(training, int(scheme[1:]))
            for training in training_sets]


def local_set(training, test, model, partitioning):
    """(label, fell back, projects) of the test project's local set."""
    if partitioning is None:
        return None, False, list(training)
    label = assign(test, partitioning) if partitioning.partitions else None
    members = partitioning.partitions.get(label)
    if members is None or len(members) < MIN_LOCAL[model]:
        return label, True, list(training)
    by_id = {p.id: p for p in training}
    return label, False, [by_id[pid] for pid in members]


def inner_prediction(name, X, y, i, count):
    keep = np.arange(y.size) != i
    model = LEARNERS[name](X[keep], y[keep])
    try:
        return float(model.predict(X[i]))
    except ValueError:
        # a log-scaled stepwise feature at a non-positive value
        count["stepwise means"] += 1
        return float(y[keep].mean())


def ensemble_weights(X, y, ucp, alpha, count):
    """Each learner's (w_mae, w_mbre, w_mibre, combined)."""
    normalized = {name: [0.0, 0.0, 0.0] for name in LEARNERS}
    if y.size >= MIN_INNER:
        actual = y * ucp
        raw = {}
        for name in LEARNERS:
            pdr = np.array([max(inner_prediction(name, X, y, i, count),
                                PDR_FLOOR) for i in range(y.size)])
            estimate = pdr * ucp
            raw[name] = (mae(actual, estimate), mbre(actual, estimate),
                         mibre(actual, estimate))
        for m in range(3):
            values = [raw[name][m] for name in LEARNERS]
            lo, span = min(values), max(values) - min(values)
            for name in LEARNERS:
                if span > 0:
                    normalized[name][m] = (raw[name][m] - lo) / span
    means = [(normalized["svr"][m] + normalized["stepwise"][m]
              + normalized["cart"][m]) / 3 for m in range(3)]
    weights = {}
    for name in LEARNERS:
        w = [sigmoid_weight(normalized[name][m], means[m], alpha)
             for m in range(3)]
        weights[name] = (*w, combine_weights(*w))
    return weights


def reference_fold(training, test, model, partitioning, settings, count):
    """(label, fell back, local size, PDR, base PDRs, weights)."""
    if model == "karner":
        return None, False, len(training), KARNER_PDR, None, None
    if model == "sw":
        return None, False, len(training), sw_productivity(test.env), None, None
    label, fell_back, local = local_set(training, test, model, partitioning)
    features = np.array([p.size_features() for p in local])
    scaler = minmax_fit(features)
    X = minmax_apply(scaler, features)
    y = np.array([p.pdr for p in local])
    x = minmax_apply(scaler, np.array(test.size_features()))
    if model in LEARNERS:
        pdr = float(LEARNERS[model](X, y).predict(x))
        return label, fell_back, len(local), max(pdr, PDR_FLOOR), None, None
    base = {name: float(fit(X, y).predict(x)) for name, fit in LEARNERS.items()}
    weights = ensemble_weights(X, y, np.array([p.ucp for p in local]),
                               settings.ensemble_alpha, count)
    pdr = ensemble_predict([base[name] for name in LEARNERS],
                           [weights[name][3] for name in LEARNERS])
    return (label, fell_back, len(local), max(pdr, PDR_FLOOR), base,
            weights)


def test_grid_equals_plain_fold_loop():
    dataset = generate_synthetic(5, 16)
    settings = RunSettings(seed=3)
    reports = benchmark_all(dataset, settings)
    assert len(reports) == 42
    tests = list(dataset)
    trainings = [Dataset(tuple(p for p in dataset if p.id != test.id),
                         name=dataset.name) for test in tests]
    by_scheme = {scheme: partitionings(trainings, scheme, settings.seed)
                 for scheme in SCHEMES}
    count = Counter()
    fallbacks = 0
    for report in reports:
        cell = (report.scheme, report.model)
        efforts = []
        for test, training, partitioning, trace in zip(
                tests, trainings, by_scheme[report.scheme], report.folds):
            label, fell_back, size, pdr, base, weights = reference_fold(
                training, test, report.model, partitioning, settings, count)
            assert trace.test_id == test.id, cell
            assert (trace.partition_label, trace.fallback, trace.local_size) \
                == (label, fell_back, size), (cell, test.id)
            assert trace.pdr_pred == pdr, (cell, test.id)
            assert trace.base_pdrs == base, (cell, test.id)
            got = None if trace.weights is None else {
                name: (w.w_mae, w.w_mbre, w.w_mibre, w.combined)
                for name, w in trace.weights.items()}
            assert got == weights, (cell, test.id)
            efforts.append(pdr * test.ucp)
            fallbacks += fell_back
        actual = [test.effort for test in tests]
        assert (report.metrics.mae, report.metrics.mbre,
                report.metrics.mibre) == (mae(actual, efforts),
                                          mbre(actual, efforts),
                                          mibre(actual, efforts)), cell
    # both fallback paths are exercised: local sets that fall back to the
    # full training set, and inner stepwise folds that take the mean
    assert fallbacks == 344
    assert count["stepwise means"] == 3
