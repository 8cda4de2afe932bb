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

    def test_unclusterable_folds_fall_back(self):
        # all factor scores 3: no fold's training set has two distinct
        # factor vectors, so every k-means fold uses the full training set,
        # says why, and predicts what the no-locality cell predicts
        flat = [replace(p, env=(3,) * 8) for p in generate_synthetic(3, 20)]
        d = Dataset(tuple(flat))
        test, *training = d
        local = fit_local(Dataset(tuple(training)), test, "cart",
                          RunSettings(seed=1), "kmeans")
        assert local.fallback == ("the training set has fewer than 2 "
                                  "distinct factor vectors to cluster")
        report = loocv_run(d, "kmeans", "ensemble")
        assert all(f.fallback and f.partition_label is None
                   and f.local_size == len(d) - 1 for f in report.folds)
        assert [f.pdr_pred for f in report.folds] == \
            [f.pdr_pred for f in loocv_run(d, "none", "ensemble").folds]

        # one project scored 4 on all factors: only the fold that holds it
        # out cannot cluster; the others split off its lone vector
        flat[4] = replace(flat[4], env=(4,) * 8)
        report = loocv_run(Dataset(tuple(flat)), "kmeans", "cart",
                           RunSettings(keep_partitions=True))
        for i, fold in enumerate(report.folds):
            assert fold.fallback == (i == 4)
            assert len(fold.partition_members) == (0 if i == 4 else 2)

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

    def test_baseline_with_locality_scheme_rejected(self, data20):
        # a baseline ignores locality, so (e1, karner) is no grid cell
        with pytest.raises(ValueError, match="karner is a baseline"):
            loocv_run(data20, "e1", "karner")


class TestFitLocal:
    def test_baselines_ignore_the_partitioning(self, data20):
        test, *training = data20
        for model in ("karner", "sw"):
            local = fit_local(Dataset(tuple(training)), test, model,
                              RunSettings(seed=1), "e3")
            assert local.partition_label is None and local.fallback is None
            assert local.local_ids == tuple(p.id for p in training)

    def test_artifact_predicts_the_same(self, data20):
        test, *training = data20
        for model in ALL_MODELS:
            local = fit_local(Dataset(tuple(training)), test, model,
                              RunSettings(seed=1), "kmeans")
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

    def test_unknown_scheme_rejected_before_partitioning(self, data20,
                                                         monkeypatch):
        def refuse(*args):
            raise AssertionError("partitioned before validating")

        for name in ("partition_by_factor", "partition_each_by_kmeans"):
            monkeypatch.setattr(evaluation, name, refuse)
        for model in ("cart", "karner"):
            with pytest.raises(ValueError, match="unknown scheme 'e9'"):
                fit_local(data20, next(iter(data20)), model, RunSettings(),
                          "e9")


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
        # a scheme's cells share its fold partitionings and base-learner
        # fits; every cell must still equal its own loocv_run
        settings = RunSettings(seed=3)
        for report in benchmark_all(data20, settings):
            assert report == loocv_run(data20, report.scheme, report.model,
                                       settings)

    def test_ensemble_first_equals_standalone_runs(self, data20):
        # a scheme's cells share each fit of a local set, so results must
        # not depend on which cell fits it first
        settings = RunSettings(seed=3)
        reports = benchmark_all(
            data20, settings, schemes=["e1", "kmeans", "none"],
            models=["ensemble", "svr", "stepwise", "cart"])
        assert len(reports) == 12
        for report in reports:
            assert report == loocv_run(data20, report.scheme, report.model,
                                       settings)

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
                fits[where["scheme"], kind, X.tobytes(), y.tobytes()] += 1

        # an ensemble cell fits its folds after building all their local
        # sets, so fits are keyed by their training bytes, not by fold
        track(evaluation, "loocv_run",
              lambda dataset, scheme, *_: where.update(scheme=scheme))
        track(ensemble, "inner_error_profile",
              lambda *_: where.update(inner=True))
        track(BaseModelParams, "fit_one", count)
        assert len(benchmark_all(data20, RunSettings(seed=3))) == 42
        assert fits and max(fits.values()) == 1

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_small_dataset_rejected_before_any_work(self, data20, n,
                                                    monkeypatch):
        def refuse(*args):
            raise AssertionError("partitioned before validating")

        for name in ("partition_by_factor", "partition_each_by_kmeans"):
            monkeypatch.setattr(evaluation, name, refuse)
        small = data20.subset(data20.ids()[:n])
        for run in (lambda: benchmark_all(small),
                    lambda: benchmark_all(small, schemes=["none"]),
                    lambda: loocv_run(small, "kmeans", "ensemble")):
            with pytest.raises(ValueError,
                               match="LOOCV needs at least 10 projects"):
                run()
        with pytest.raises(ValueError, match="unknown scheme"):
            benchmark_all(data20, schemes=["e1", "e9"])

    @pytest.mark.parametrize("schemes,models,message", [
        (["e9"], ["karner"], "unknown scheme 'e9'"),
        (["none"], ["knn", "sw"], "unknown model 'knn'"),
        (["e1"], ["sw"], "select no cell"),
        (["e1", "kmeans"], ["karner", "sw"], "select no cell"),
        ([], None, "select no cell")])
    def test_selection_checked_before_any_work(self, data20, schemes, models,
                                               message, monkeypatch):
        # every requested scheme and model is checked, also one that only
        # pairs with baselines, and a request that keeps no cell is refused
        def refuse(*args):
            raise AssertionError("partitioned before validating")

        for name in ("partition_by_factor", "partition_each_by_kmeans"):
            monkeypatch.setattr(evaluation, name, refuse)
        with pytest.raises(ValueError, match=message):
            benchmark_all(data20, schemes=schemes, models=models)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            RunSettings(seed=-1)
        assert RunSettings(seed=0).seed == 0

    def test_grid_partitions_each_scheme_once(self, data20, monkeypatch):
        calls = Counter()

        def count(name):
            original = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, wrapper)

        count("partition_by_factor")
        count("partition_each_by_kmeans")
        assert len(benchmark_all(data20, RunSettings(seed=3))) == 42
        assert calls == {"partition_each_by_kmeans": 1,
                         "partition_by_factor": 8 * len(data20)}
        calls.clear()
        benchmark_all(data20, RunSettings(seed=3), schemes=["e2", "none"])
        assert calls == {"partition_by_factor": len(data20)}

    def test_grid_builds_each_local_set_once(self, data20, monkeypatch):
        # an ensemble fold's local set is built once, for the grid's inner
        # batch, and its cell fits on that same set
        models = Counter()
        local_set = evaluation._local_set

        def counting_local_set(training, test, model, *args):
            models[model] += 1
            return local_set(training, test, model, *args)

        monkeypatch.setattr(evaluation, "_local_set", counting_local_set)
        cells = Counter(r.model for r in benchmark_all(data20,
                                                       RunSettings(seed=3)))
        assert sum(cells.values()) == 42
        assert models == {model: count * len(data20)
                          for model, count in cells.items()}

    def test_filters(self, data20):
        reports = benchmark_all(data20, RunSettings(), schemes=["e2"],
                                models=["cart", "karner"])
        assert [(r.scheme, r.model) for r in reports] == [("e2", "cart")]
