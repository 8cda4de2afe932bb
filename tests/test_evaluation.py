from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ucp_locality import ensemble, evaluation
from ucp_locality.dataset import Dataset, generate_synthetic
from ucp_locality.ensemble import BaseModelParams
from ucp_locality.evaluation import (
    ALL_MODELS,
    ALL_SCHEMES,
    LocalModel,
    RunSettings,
    benchmark_all,
    build_partitioning,
    fit_local,
    loocv_run,
    mae,
    mbre,
    mibre,
)


def naive_metrics(actuals, estimates):
    n = len(actuals)
    sum_abs = sum(abs(a - e) for a, e in zip(actuals, estimates))
    sum_bre = sum(abs(a - e) / min(a, e) for a, e in zip(actuals, estimates))
    sum_ibre = sum(abs(a - e) / max(a, e) for a, e in zip(actuals, estimates))
    return sum_abs / n, sum_bre / n, sum_ibre / n


class TestMetrics:
    def test_identity(self):
        assert mae([100], [100]) == 0
        assert mbre([100], [100]) == 0
        assert mibre([100], [100]) == 0

    def test_hand_values(self):
        assert mae([100, 200], [110, 180]) == 15
        assert mbre([100], [150]) == pytest.approx(0.5)
        assert mbre([100], [50]) == pytest.approx(1.0)
        assert mibre([100], [150]) == pytest.approx(1 / 3)

    def test_against_naive_reimplementation(self, rng):
        a = rng.uniform(100, 1e5, 500)
        e = rng.uniform(100, 1e5, 500)
        na, nb, ni = naive_metrics(a, e)
        assert mae(a, e) == pytest.approx(na, rel=1e-12)
        assert mbre(a, e) == pytest.approx(nb, rel=1e-12)
        assert mibre(a, e) == pytest.approx(ni, rel=1e-12)

    def test_mibre_no_larger_than_mbre(self, rng):
        a = rng.uniform(10, 1e4, 300)
        e = rng.uniform(10, 1e4, 300)
        per_pair_b = np.abs(a - e) / np.minimum(a, e)
        per_pair_i = np.abs(a - e) / np.maximum(a, e)
        assert np.all(per_pair_i <= per_pair_b)
        assert mibre(a, e) <= mbre(a, e)
        assert np.all(per_pair_i < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            mbre([0.0], [1.0])
        with pytest.raises(ValueError):
            mibre([1.0], [0.0])


@pytest.fixture(scope="module")
def data20():
    return generate_synthetic(5, 20)


class TestLoocvRun:
    def test_fold_contract(self, data20):
        report = loocv_run(data20, "none", "karner")
        assert report.n == len(data20)
        assert [f.test_id for f in report.folds] == list(data20.ids())

    def test_karner_matches_closed_form(self, data20):
        report = loocv_run(data20, "none", "karner")
        efforts = data20.column("effort")
        ucps = data20.column("ucp")
        expected = float(np.mean(np.abs(efforts - 20.0 * ucps)))
        assert report.metrics.mae == expected  # exact, same arithmetic

    def test_sw_uses_test_environment(self, data20):
        from ucp_locality.ensemble import sw_productivity

        report = loocv_run(data20, "none", "sw")
        for fold, project in zip(report.folds, data20):
            assert fold.pdr_pred == sw_productivity(project.env)
            assert fold.effort_pred == fold.pdr_pred * project.ucp

    def test_no_leakage_structural(self, data20):
        settings = RunSettings(keep_partitions=True)
        for scheme in ("e3", "kmeans"):
            report = loocv_run(data20, scheme, "cart", settings)
            for fold in report.folds:
                assert fold.test_id not in fold.local_ids
                assert fold.local_size == len(fold.local_ids)
                members = [pid for ids in fold.partition_members.values()
                           for pid in ids]
                assert fold.test_id not in members
                assert len(members) == len(data20) - 1

    def test_deterministic_reruns(self, data20):
        r1 = loocv_run(data20, "kmeans", "cart", RunSettings(seed=9))
        r2 = loocv_run(data20, "kmeans", "cart", RunSettings(seed=9))
        assert r1 == r2

    def test_fallback_on_missing_label(self):
        # every training project is L3 on e1, so an L45 test project falls
        # back to the full training set
        from conftest import make_dataset, make_project

        projects = [make_project(f"p{i}") for i in range(11)]
        env = [3] * 8
        env[0] = 5
        projects.append(make_project("odd", env=tuple(env)))
        d = make_dataset(projects)
        report = loocv_run(d, "e1", "cart")
        odd_fold = [f for f in report.folds if f.test_id == "odd"][0]
        assert odd_fold.fallback
        assert odd_fold.local_size == len(d) - 1

    def test_small_local_set_falls_back(self):
        from conftest import make_dataset, make_project

        # two L45 projects: when one is tested the other is a lone L45
        # member, under min_local=5
        projects = [make_project(f"p{i}") for i in range(10)]
        for pid in ("q1", "q2"):
            env = [3] * 8
            env[0] = 4
            projects.append(make_project(pid, env=tuple(env)))
        d = make_dataset(projects)
        report = loocv_run(d, "e1", "cart")
        for pid in ("q1", "q2"):
            fold = [f for f in report.folds if f.test_id == pid][0]
            assert fold.fallback
            assert fold.partition_label == "L45"

    def test_prediction_floor_applied(self, data20):
        report = loocv_run(data20, "none", "stepwise")
        for fold in report.folds:
            assert fold.pdr_pred >= 0.01
            assert fold.effort_pred == fold.pdr_pred * fold.ucp

    def test_dataset_too_small(self):
        with pytest.raises(ValueError):
            loocv_run(generate_synthetic(1, 10).subset(
                generate_synthetic(1, 10).ids()[:9]), "none", "karner")

    def test_unknown_scheme_and_model(self, data20):
        with pytest.raises(ValueError):
            loocv_run(data20, "e9", "cart")
        with pytest.raises(ValueError):
            loocv_run(data20, "none", "boost")


class TestFitLocal:
    def test_baselines_ignore_the_partitioning(self, data20):
        test, *training = data20
        partitioning = build_partitioning(
            Dataset(tuple(training)), "e3", 1)
        for model in ("karner", "sw"):
            local = fit_local(training, test, model, RunSettings(),
                              partitioning)
            assert local.partition_label is None and local.fallback is None
            assert local.local_ids == tuple(p.id for p in training)

    def test_artifact_predicts_the_same(self, data20):
        test, *training = data20
        partitioning = build_partitioning(
            Dataset(tuple(training)), "kmeans", 1)
        for model in ALL_MODELS:
            local = fit_local(training, test, model, RunSettings(),
                              partitioning)
            loaded = LocalModel.from_dict(local.to_dict())
            assert loaded.to_dict() == local.to_dict()
            assert loaded.pdr(test) == local.pdr(test)
            assert loaded.base_pdrs(test) == local.base_pdrs(test)

    def test_artifact_with_train_mean_predicts_the_same(self, data20):
        # ensemble artifacts used to carry the local mean PDR as
        # "train_mean"; such a file still loads and predicts the same
        test, *training = data20
        local = fit_local(training, test, "ensemble", RunSettings())
        doc = local.to_dict()
        assert "train_mean" not in doc["model"]["params"]
        doc["model"]["params"]["train_mean"] = 12.5
        loaded = LocalModel.from_dict(doc)
        for project in data20:
            assert loaded.pdr(project) == local.pdr(project)
            assert loaded.base_pdrs(project) == local.base_pdrs(project)

    def test_unknown_model(self, data20):
        with pytest.raises(ValueError, match="unknown model"):
            fit_local(data20, next(iter(data20)), "boost", RunSettings())


class TestEnsembleRun:
    def test_trace_carries_weights_and_bases(self, data20):
        report = loocv_run(data20, "none", "ensemble")
        for fold in report.folds:
            assert set(fold.base_pdrs) == {"svr", "stepwise", "cart"}
            assert set(fold.weights) == {"svr", "stepwise", "cart"}
            preds = [max(p, 0.01) for p in fold.base_pdrs.values()]
            assert min(preds) - 1e-9 <= fold.pdr_pred <= max(preds) + 1e-9


class TestBenchmarkAll:
    def test_enumeration(self, data20):
        reports = benchmark_all(data20, RunSettings(seed=3))
        assert len(reports) == 9 * 4 + 6
        keys = {(r.scheme, r.model) for r in reports}
        for scheme in ALL_SCHEMES:
            for model in ("svr", "stepwise", "cart", "ensemble"):
                assert (scheme, model) in keys
        for model in ALL_MODELS:
            assert ("none", model) in keys

    def test_baseline_rows_seed_independent(self, data20):
        r1 = benchmark_all(data20, RunSettings(seed=1), schemes=["none"],
                           models=["karner", "sw"])
        r2 = benchmark_all(data20, RunSettings(seed=999), schemes=["none"],
                           models=["karner", "sw"])
        for a, b in zip(r1, r2):
            assert a.metrics == b.metrics

    def test_cells_equal_standalone_runs(self, data20):
        # a scheme's cells share one memo of fold partitionings and
        # base-learner fits; every cell must still equal its own loocv_run
        settings = RunSettings(seed=3)
        for report in benchmark_all(data20, settings):
            assert report == loocv_run(data20, report.scheme, report.model,
                                       settings)

    def test_ensemble_first_equals_standalone_runs(self, data20):
        # a shared fit is handed to the first later cell that asks and then
        # dropped, so results must not depend on which cell fits first
        settings = RunSettings(seed=3)
        reports = benchmark_all(
            data20, settings, schemes=["e1", "kmeans", "none"],
            models=["ensemble", "svr", "stepwise", "cart"])
        assert len(reports) == 12
        for report in reports:
            assert report == loocv_run(data20, report.scheme, report.model,
                                       settings)

    def test_shared_memo_keys_are_exact(self, data20):
        # generate_synthetic numbers its projects the same way for every
        # seed, so `other` shares data20's ids but not its values, and
        # `rescaled` shares its size features but not its PDRs
        other = generate_synthetic(6, 20)
        assert other.ids() == data20.ids()
        rescaled = Dataset(tuple(replace(p, effort=1.5 * p.effort)
                                 for p in data20))
        memo = {}
        for dataset, seed in ((data20, 3), (other, 3), (rescaled, 3),
                              (data20, 4)):
            settings = RunSettings(seed=seed)
            for scheme, model in (("kmeans", "svr"), ("kmeans", "ensemble"),
                                  ("e2", "cart"), ("none", "stepwise")):
                assert loocv_run(dataset, scheme, model, settings, memo) \
                    == loocv_run(dataset, scheme, model, settings)

    def test_grid_fits_each_local_set_once(self, data20, monkeypatch):
        # outside the ensemble's inner leave-one-out, a fold fits each
        # learner on a given local set once: the single-learner cell and
        # the ensemble cell share that fit
        where = {"inner": False}
        fits = Counter()

        def track(module, name, enter):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                saved = dict(where)
                enter(*args)
                try:
                    return original(*args, **kwargs)
                finally:
                    where.update(saved)
            monkeypatch.setattr(module, name, wrapper)

        def count(params, kind, X, y):
            if not where["inner"]:
                fits[where["scheme"], where["test"], kind, X.tobytes(),
                     y.tobytes()] += 1

        track(evaluation, "loocv_run",
              lambda dataset, scheme, *_: where.update(scheme=scheme))
        track(evaluation, "fit_local",
              lambda training, test, *_: where.update(test=test.id))
        track(ensemble, "inner_error_profile",
              lambda *_: where.update(inner=True))
        track(BaseModelParams, "fit_one", count)
        assert len(benchmark_all(data20, RunSettings(seed=3))) == 42
        assert fits and max(fits.values()) == 1

    def test_filters(self, data20):
        reports = benchmark_all(data20, RunSettings(), schemes=["e2"],
                                models=["cart", "karner"])
        assert [(r.scheme, r.model) for r in reports] == [("e2", "cart")]
