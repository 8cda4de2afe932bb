import math

import numpy as np
import pytest

import ucp_locality.regressors.base as regressors_base
from ucp_locality.dataset import generate_synthetic
from ucp_locality.ensemble import (
    BASE_MODELS,
    PDR_FLOOR,
    BaseModelParams,
    combine_weights,
    ensemble_fit,
    ensemble_predict,
    inner_error_profile,
    karner_predict,
    sigmoid_weight,
    sw_productivity,
)
from ucp_locality.evaluation import RunSettings, benchmark_all, loocv_run
from ucp_locality.preprocess import minmax_apply, minmax_fit
from ucp_locality.regressors.base import model_from_dict

from conftest import stepwise_fallback_set


class TestSigmoidWeight:
    def test_midpoint(self):
        assert sigmoid_weight(0.5, 0.5, 15.0) == 0.5
        assert sigmoid_weight(0.123, 0.123, 3.0) == 0.5

    def test_low_error_near_one(self):
        w = sigmoid_weight(0.0, 0.5, 15.0)
        assert w == pytest.approx(1.0 / (1.0 + math.exp(-7.5)))
        assert w == pytest.approx(0.99945, abs=1e-5)

    def test_high_error_near_zero(self):
        w = sigmoid_weight(1.0, 0.5, 15.0)
        assert w == pytest.approx(0.000553, abs=1e-6)

    def test_strictly_decreasing_in_error(self):
        errors = np.linspace(0, 1, 50)
        weights = [sigmoid_weight(e, 0.5, 15.0) for e in errors]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert all(0 < w < 1 for w in weights)

    def test_shift_invariance(self):
        # only err - mean matters
        assert sigmoid_weight(0.3, 0.4, 15.0) == pytest.approx(
            sigmoid_weight(0.3 + 7.0, 0.4 + 7.0, 15.0))

    def test_saturation_is_finite(self):
        assert 0 < sigmoid_weight(1e6, 0.0, 15.0) < 1
        assert 0 < sigmoid_weight(-1e6, 0.0, 15.0) < 1

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            sigmoid_weight(0.1, 0.2, 0.0)


class TestCombineWeights:
    def test_equal_components(self):
        assert combine_weights(0.5, 0.5, 0.5) == 0.5

    def test_near_one(self):
        eps = 1e-9
        assert combine_weights(1 - eps, 1 - eps, 1 - eps) == pytest.approx(1 - eps)

    def test_arithmetic(self):
        assert combine_weights(0.9, 0.6, 0.3) == pytest.approx(0.6)


class TestEnsemblePredict:
    def test_equal_weights_is_mean(self):
        assert ensemble_predict([10, 20, 30], [0.4, 0.4, 0.4]) == 20

    def test_degenerate_weighting(self):
        assert ensemble_predict([10, 20, 30], [1, 0, 0]) == 10

    def test_weighted_average(self):
        assert ensemble_predict([10, 20, 30], [0.8, 0.5, 0.2]) == pytest.approx(16.0)

    def test_zero_weights_fall_back_to_mean(self):
        assert ensemble_predict([10, 20, 30], [0, 0, 0]) == 20

    def test_convexity(self, rng):
        for _ in range(100):
            preds = rng.uniform(5, 50, 3)
            weights = rng.uniform(0.001, 1, 3)
            combined = ensemble_predict(preds, weights)
            assert preds.min() - 1e-12 <= combined <= preds.max() + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_predict([1, 2], [1])


class TestKarner:
    def test_fixed_ratio(self):
        assert karner_predict(100) == 2000
        assert karner_predict(1) == 20
        assert karner_predict(366.8928) == pytest.approx(7337.856)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            karner_predict(0)


class TestSwProductivity:
    def test_all_threes_is_fair(self):
        assert sw_productivity((3,) * 8) == 20

    def test_three_unfavorable_is_low(self):
        assert sw_productivity((1, 1, 1, 3, 3, 3, 3, 3)) == 28

    def test_eight_unfavorable_is_very_low(self):
        assert sw_productivity((2, 2, 2, 2, 2, 2, 5, 5)) == 36

    def test_boundaries(self):
        assert sw_productivity((1, 1, 3, 3, 3, 3, 3, 3)) == 20     # count 2
        assert sw_productivity((1, 1, 1, 1, 3, 3, 3, 3)) == 28     # count 4
        assert sw_productivity((1, 1, 1, 1, 1, 3, 3, 3)) == 36     # count 5

    def test_high_scores_on_up_factors_do_not_count(self):
        assert sw_productivity((5, 5, 5, 5, 5, 5, 3, 3)) == 20
        assert sw_productivity((3, 3, 3, 3, 3, 3, 4, 4)) == 20     # count 2

    def test_matches_bruteforce_on_sample(self, rng):
        def oracle(env):
            count = sum(1 for e in env[:6] if e < 3)
            count += sum(1 for e in env[6:] if e > 3)
            return 20 if count <= 2 else (28 if count <= 4 else 36)

        for _ in range(500):
            env = tuple(int(v) for v in rng.integers(0, 6, 8))
            assert sw_productivity(env) == oracle(env)

    def test_invalid_assessment(self):
        with pytest.raises(ValueError):
            sw_productivity((3,) * 7)
        with pytest.raises(ValueError):
            sw_productivity((3, 3, 3, 3, 3, 3, 3, 6))


def fixture_training(rng, n=9):
    X = rng.uniform(0, 1, (n, 4))
    y = 15 + 8 * X[:, 0] + rng.normal(0, 0.8, n)
    ucp = rng.uniform(80, 400, n)
    return X, y, ucp


class TestInnerErrorProfile:
    def test_normalization_rule(self):
        from ucp_locality.ensemble import _normalize_across_models

        raw = {"svr": (10.0, 1.0, 1.0), "stepwise": (20.0, 1.0, 2.0),
               "cart": (30.0, 1.0, 3.0)}
        norm = _normalize_across_models(raw)
        assert norm["svr"][0] == 0.0
        assert norm["stepwise"][0] == 0.5
        assert norm["cart"][0] == 1.0
        # identical errors normalize to all zero
        assert norm["svr"][1] == norm["stepwise"][1] == norm["cart"][1] == 0.0

    def test_matches_scripted_fold_replay(self, rng):
        X, y, ucp = fixture_training(rng, 8)
        params = BaseModelParams()
        profile, = inner_error_profile([(X, y, ucp)], params)

        for name in BASE_MODELS:
            preds = np.empty(8)
            for i in range(8):
                keep = np.ones(8, dtype=bool)
                keep[i] = False
                model = params.fit_one(name, X[keep], y[keep])
                preds[i] = max(model.predict(X[i]), 0.01)
            actual = y * ucp
            estimate = preds * ucp
            abs_err = np.abs(actual - estimate)
            assert profile.raw[name][0] == pytest.approx(abs_err.mean())
            assert profile.raw[name][1] == pytest.approx(
                (abs_err / np.minimum(actual, estimate)).mean())
            assert profile.raw[name][2] == pytest.approx(
                (abs_err / np.maximum(actual, estimate)).mean())

    def test_one_fit_loo_call_per_learner(self, rng, monkeypatch):
        calls = []
        fit_loo = BaseModelParams.fit_loo

        def counting_fit_loo(self, kind, X, y, folds, *args):
            calls.append((kind, len(folds)))
            return fit_loo(self, kind, X, y, folds, *args)

        monkeypatch.setattr(BaseModelParams, "fit_loo", counting_fit_loo)
        inner_error_profile([fixture_training(rng, 9)])
        assert calls == [(name, 9) for name in BASE_MODELS]
        calls.clear()
        # the 27 inner problems of three sets of one size are solved together
        inner_error_profile([fixture_training(rng, 9) for _ in range(3)])
        assert calls == [(name, 27) for name in BASE_MODELS]

    def test_stepwise_fallback_fold_scores_the_training_mean(self):
        X, y = stepwise_fallback_set()
        profile, = inner_error_profile([(X, y, np.ones(12))])
        assert profile == per_fold_profile(X, y, np.ones(12),
                                           BaseModelParams())

    def test_too_small_signals_fallback(self, rng):
        X, y, ucp = fixture_training(rng, 6)
        with pytest.raises(ValueError):
            inner_error_profile([(X, y, ucp)])
        with pytest.raises(ValueError):
            inner_error_profile([fixture_training(rng, 9), (X, y, ucp)])
        assert inner_error_profile([]) == []

    def test_batch_equals_each_set_alone(self, rng, monkeypatch):
        # sets of uneven sizes, a duplicate set, three sets whose inner
        # training sets coincide in pairs (without row 0, set drop(5)
        # trains on the same rows as set drop(0) without row 4), and a set
        # with drop(0)'s features but other targets
        X, y, ucp = fixture_training(rng, 12)

        def drop(i):
            return tuple(np.delete(a, i, axis=0) for a in (X, y, ucp))

        other_targets = (drop(0)[0], drop(0)[1] + 1.0, drop(0)[2])
        sets = [drop(0), fixture_training(rng, 8), drop(5),
                fixture_training(rng, 14), drop(7), drop(5), other_targets]
        params = BaseModelParams()
        alone = [inner_error_profile([local], params)[0] for local in sets]
        for local, profile in zip(sets, alone):
            assert profile == per_fold_profile(*local, params)
        solved = count_solved_folds(monkeypatch)
        assert inner_error_profile(sets, params) == alone
        distinct = distinct_inner_training_sets(sets)
        assert distinct == 4 * 11 - 3 + 8 + 14
        assert solved == {name: distinct for name in BASE_MODELS}
        # solver stacks far narrower than the problems of one size
        monkeypatch.setattr(regressors_base, "STACK_BYTES", 1 << 12)
        solved.clear()
        assert inner_error_profile(sets, params) == alone
        assert solved == {name: distinct for name in BASE_MODELS}
        assert inner_error_profile(sets[:1], params) == alone[:1]


def per_fold_loo(params, kind, X, y, folds, sets=None, points=None,
                 at=None):
    """Reference for `fit_loo`: each fold fit on its own through `fit_one`;
    a stepwise fold that cannot evaluate a point predicts its training
    mean there."""
    if sets is None:
        X, y, sets = X[None], y[None], [0] * len(folds)
    fits = []
    for s, i in zip(sets, folds):
        keep = np.arange(y.shape[1]) != i
        fits.append((params.fit_one(kind, X[s][keep], y[s][keep]),
                     float(y[s][keep].mean())))
    if points is None:
        points, at = [X[s, i] for s, i in zip(sets, folds)], range(len(fits))
    out = []
    for k, x in zip(at, points):
        model, mean = fits[k]
        try:
            out.append(float(model.predict(x)))
        except ValueError:
            assert kind == "stepwise"
            out.append(mean)
    return out


def count_solved_folds(monkeypatch) -> dict:
    """Patch `fit_loo` to add up, per learner, the folds it solves."""
    solved = {}
    fit_loo = BaseModelParams.fit_loo

    def counting_fit_loo(self, kind, X, y, folds, *args):
        solved[kind] = solved.get(kind, 0) + len(folds)
        return fit_loo(self, kind, X, y, folds, *args)

    monkeypatch.setattr(BaseModelParams, "fit_loo", counting_fit_loo)
    return solved


def distinct_inner_training_sets(local_sets) -> int:
    """The number of distinct (X, y) training sets over every inner
    leave-one-out fold of the given (X, y, ucp) local sets."""
    return len({(np.delete(X, i, axis=0).tobytes(), np.delete(y, i).tobytes())
                for X, y, _ in local_sets for i in range(y.size)})


def inner_local_sets(data, report) -> list:
    """The (X, y, None) local sets of an ensemble report's folds that are
    large enough for inner validation, rebuilt from their ids."""
    by_id = {p.id: p for p in data}
    local_sets = []
    for fold in report.folds:
        local = [by_id[pid] for pid in fold.local_ids]
        if len(local) > 6:
            features = np.array([p.size_features() for p in local])
            local_sets.append((minmax_apply(minmax_fit(features), features),
                               np.array([p.pdr for p in local]), None))
    return local_sets


def count_profile_calls(monkeypatch) -> list:
    """Patch the harness's `inner_error_profile` to record the number of
    local sets of each call."""
    import ucp_locality.evaluation as evaluation_module

    calls = []
    profile = evaluation_module.inner_error_profile

    def counting_profile(local_sets, *args):
        calls.append(len(local_sets))
        return profile(local_sets, *args)

    monkeypatch.setattr(evaluation_module, "inner_error_profile",
                        counting_profile)
    return calls


class TestFitLoo:
    @pytest.mark.parametrize("kind", BASE_MODELS)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_equals_per_fold_fits(self, kind, stacked, rng):
        # one set, or a stack of differently scaled sets whose folds are
        # also asked at other points
        params = BaseModelParams()
        for n, folds in ((8, [3, 0, 7, 3]), (13, range(13)), (9, [])):
            X, y, _ = fixture_training(rng, n)
            if not stacked:
                assert list(params.fit_loo(kind, X, y, folds)) == \
                    per_fold_loo(params, kind, X, y, folds)
                continue
            X = np.stack([X, X * [10.0, 1.0, 0.1, 2.0],
                          fixture_training(rng, n)[0] - 0.5])
            y = np.stack([y, 0.5 * y, y[::-1]])
            sets = rng.integers(0, 3, len(folds))
            assert list(params.fit_loo(kind, X, y, folds, sets)) == \
                per_fold_loo(params, kind, X, y, folds, sets)
            points = rng.uniform(-0.2, 1.2, (2 * len(folds), 4))
            at = np.repeat(np.arange(len(folds)), 2)
            assert list(params.fit_loo(kind, X, y, folds, sets, points, at)) \
                == per_fold_loo(params, kind, X, y, folds, sets, points, at)

    def test_stepwise_fold_falls_back_to_its_training_mean(self):
        X, y = stepwise_fallback_set()
        model = BaseModelParams().fit_one("stepwise", X[1:], y[1:])
        with pytest.raises(ValueError):
            model.predict(X[0])
        query = np.tile([-0.1, 0.5], (12, 1))
        params = BaseModelParams()
        folds = range(12)
        held_out = params.fit_loo("stepwise", X, y, folds)
        at_query = params.fit_loo("stepwise", X, y, folds, points=query,
                                  at=folds)
        assert held_out[0] == at_query[0] == float(y[1:].mean())
        assert list(held_out) == per_fold_loo(params, "stepwise", X, y, folds)
        assert list(at_query) == per_fold_loo(params, "stepwise", X, y, folds,
                                              points=query, at=folds)

    def test_unknown_kind(self, rng):
        X, y, _ = fixture_training(rng, 9)
        with pytest.raises(ValueError, match="unknown base model"):
            BaseModelParams().fit_loo("knn", X, y, [0])

    def test_predict_or_fallback_stays_bound_in_ensemble(self):
        # the benchmark's tracer wraps it under the ensemble module's name
        from ucp_locality import ensemble
        from ucp_locality.regressors import stepwise

        assert ensemble.predict_or_fallback is stepwise.predict_or_fallback


class TestEnsembleFit:
    def test_weights_ordered_by_inner_error(self, rng):
        X, y, ucp = fixture_training(rng, 16)
        model = ensemble_fit(X, y, ucp)
        norm = model.profile.normalized
        mae_order = sorted(BASE_MODELS, key=lambda m: norm[m][0])
        weight_order = sorted(BASE_MODELS,
                              key=lambda m: -model.weights[m].w_mae)
        assert mae_order == weight_order

    def test_equal_weight_fallback_small_training(self, rng):
        X, y, ucp = fixture_training(rng, 6)
        model = ensemble_fit(X, y, ucp)
        assert model.profile is None
        for name in BASE_MODELS:
            assert model.weights[name].combined == 0.5

    def test_prediction_within_base_range(self, rng):
        X, y, ucp = fixture_training(rng, 14)
        model = ensemble_fit(X, y, ucp)
        for _ in range(20):
            x = rng.uniform(0, 1, 4)
            preds = list(model.base_predictions(x).values())
            assert min(preds) - 1e-12 <= model.predict(x) <= max(preds) + 1e-12

    def test_too_small_rejected(self, rng):
        X, y, ucp = fixture_training(rng, 5)
        with pytest.raises(ValueError):
            ensemble_fit(X, y, ucp)

    def test_serialization_round_trip(self, rng):
        X, y, ucp = fixture_training(rng, 12)
        model = ensemble_fit(X, y, ucp)
        clone = model_from_dict(model.to_dict())
        x = rng.uniform(0, 1, 4)
        assert clone.predict(x) == pytest.approx(model.predict(x), rel=1e-15)


def per_fold_profile(X, y, ucp, params):
    """Reference inner-validation profile: every inner fold fit on its own
    through `fit_one`, with no shared fit and no stacked solve."""
    from ucp_locality.ensemble import (
        ErrorProfile,
        _normalize_across_models,
        predict_or_fallback,
    )
    from ucp_locality.stats import mae, mbre, mibre

    n = y.size
    raw = {}
    for name in BASE_MODELS:
        preds = np.empty(n)
        for i in range(n):
            keep = np.ones(n, dtype=bool)
            keep[i] = False
            model = params.fit_one(name, X[keep], y[keep])
            pred = predict_or_fallback(model, X[i], float(y[keep].mean()))
            preds[i] = max(pred, PDR_FLOOR)
        actual, estimate = y * ucp, preds * ucp
        raw[name] = (mae(actual, estimate), mbre(actual, estimate),
                     mibre(actual, estimate))
    return ErrorProfile(raw=raw, normalized=_normalize_across_models(raw))


class TestInnerFitMemo:
    def test_loocv_folds_equal_memo_free_fits(self, monkeypatch):
        data = generate_synthetic(5, 20)
        settings = RunSettings(seed=3)
        calls = []
        fit_one = BaseModelParams.fit_one

        def counting_fit_one(self, kind, X, y):
            calls.append(kind)
            return fit_one(self, kind, X, y)

        monkeypatch.setattr(BaseModelParams, "fit_one", counting_fit_one)
        report = loocv_run(data, "none", "ensemble", settings)
        monkeypatch.undo()
        n = len(data)
        # the memo is exercised: fewer than n outer x (n - 1) inner fits
        # plus n final fits, per base model
        assert len(calls) < 3 * (n * (n - 1) + n)
        # inner CART folds are grown together by `fit_loo`, so the only
        # per-fit CART calls are the n final fits
        assert calls.count("cart") == n

        by_id = {p.id: p for p in data}
        for fold in report.folds:
            local = [by_id[pid] for pid in fold.local_ids]
            features = np.array([p.size_features() for p in local])
            scaler = minmax_fit(features)
            x_test = minmax_apply(
                scaler, np.array(by_id[fold.test_id].size_features()))
            X = minmax_apply(scaler, features)
            y = np.array([p.pdr for p in local])
            ucp = np.array([p.ucp for p in local])
            fitted = ensemble_fit(
                X, y, ucp, alpha=settings.ensemble_alpha,
                params=settings.base_params)
            assert fold.weights == fitted.weights
            assert fold.base_pdrs == fitted.base_predictions(x_test)
            assert fitted.profile == per_fold_profile(
                X, y, ucp, settings.base_params)

    def test_loocv_fits_stepwise_once_per_fold(self, monkeypatch):
        import ucp_locality.ensemble as ensemble_module
        import ucp_locality.regressors.stepwise as stepwise_module

        calls = []
        fit = stepwise_module.stepwise_fit

        def counting_fit(X, y, *args, **kwargs):
            calls.append(len(y))
            return fit(X, y, *args, **kwargs)

        for module in (ensemble_module, stepwise_module):
            monkeypatch.setattr(module, "stepwise_fit", counting_fit)
        data = generate_synthetic(5, 20)
        loocv_run(data, "none", "ensemble", RunSettings(seed=3))
        # inner stepwise folds are eliminated together by
        # `stepwise_fit_loo`; the only fits are the n final ones
        assert calls == [len(data) - 1] * len(data)

    def test_each_learner_solves_each_distinct_training_set_once(
            self, monkeypatch):
        data = generate_synthetic(5, 20)
        solved = count_solved_folds(monkeypatch)
        report = loocv_run(data, "none", "ensemble", RunSettings(seed=3))
        local_sets = inner_local_sets(data, report)
        distinct = distinct_inner_training_sets(local_sets)
        # folds whose scalers agree share inner training sets
        assert distinct < sum(len(fold.local_ids) for fold in report.folds)
        assert solved == {name: distinct for name in BASE_MODELS}

    def test_grid_solves_each_distinct_training_set_once(self, monkeypatch):
        data = generate_synthetic(5, 20)
        solved = count_solved_folds(monkeypatch)
        reports = benchmark_all(data, RunSettings(seed=3), models=["ensemble"])
        cells = [inner_local_sets(data, report) for report in reports]
        distinct = distinct_inner_training_sets(
            [local for sets in cells for local in sets])
        # cells of different schemes share inner training sets too
        assert distinct < sum(map(distinct_inner_training_sets, cells))
        assert solved == {name: distinct for name in BASE_MODELS}

    def test_one_inner_error_profile_call_per_grid(self, monkeypatch):
        calls = count_profile_calls(monkeypatch)
        reports = benchmark_all(generate_synthetic(5, 20), RunSettings(seed=3))
        assert calls == [sum(f.local_size > 6 for report in reports
                             if report.model == "ensemble"
                             for f in report.folds)]

    def test_one_inner_error_profile_call_per_ensemble_cell(
            self, monkeypatch):
        calls = count_profile_calls(monkeypatch)
        data = generate_synthetic(5, 20)
        for scheme in ("none", "e2", "kmeans"):
            calls.clear()
            report = loocv_run(data, scheme, "ensemble", RunSettings(seed=3))
            assert calls == [sum(f.local_size > 6 for f in report.folds)]


def stacked_sets(rng, sets, n):
    """`sets` equal-size training sets, and each one's leave-one-out folds
    in order, as (X, y, sets, folds)."""
    X = rng.uniform(0, 1, (sets, n, 4))
    y = 15 + 8 * X[:, :, 0] + rng.normal(0, 0.8, (sets, n))
    return X, y, np.repeat(np.arange(sets), n), np.tile(np.arange(n), sets)


def fix_stack_width(monkeypatch, module, width, solve) -> list[int]:
    """Set `STACK_BYTES` so that the first `stacks` call `solve()` makes in
    `module`, the one over its folds, cuts stacks of at most `width` folds;
    returns the widths of those stacks."""
    asked = []

    def spy(count, problem_bytes):
        asked.append((count, problem_bytes))
        return regressors_base.stacks(count, problem_bytes)

    monkeypatch.setattr(module, "stacks", spy)
    solve()
    count, problem_bytes = asked[0]
    monkeypatch.setattr(regressors_base, "STACK_BYTES", width * problem_bytes)
    return [part.stop - part.start
            for part in regressors_base.stacks(count, problem_bytes)]


class TestStackBounds:
    """Each lockstep solver cuts its folds into stacks bounded by
    `STACK_BYTES`; a fold's model is the same in any stack."""

    @pytest.mark.parametrize("kind", BASE_MODELS)
    @pytest.mark.parametrize("count,widths", [
        (12, [12]), (13, [6, 7]), (60, [12] * 5)])
    def test_stacks_equal_per_fold_fits(self, kind, count, widths, rng,
                                        monkeypatch):
        # exactly one stack wide, one fold over it, and many stacks
        from ucp_locality.regressors import cart, stepwise, svr

        X, y, sets, folds = stacked_sets(rng, 5, 13)
        sets, folds = sets[:count], folds[:count]
        params = BaseModelParams()
        module = {"svr": svr, "stepwise": stepwise, "cart": cart}[kind]
        assert fix_stack_width(
            monkeypatch, module, 12,
            lambda: params.fit_loo(kind, X, y, folds, sets)) == widths
        assert list(params.fit_loo(kind, X, y, folds, sets)) == \
            per_fold_loo(params, kind, X, y, folds, sets)
        points = rng.uniform(-0.2, 1.2, (2 * count, 4))
        at = np.repeat(np.arange(count), 2)[::-1]
        assert list(params.fit_loo(kind, X, y, folds, sets, points, at)) == \
            per_fold_loo(params, kind, X, y, folds, sets, points, at)
        # the models, built stack by stack by the solver's per-stack builder,
        # are the per-fold fits, and the solver predicts with them
        bounds = np.cumsum([0] + widths)
        parts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if kind == "svr":
            models = [m for part in parts for m in svr._fit_stack(
                X, y, sets[part], folds[part], params.svr_c,
                params.svr_epsilon, params.svr_gamma)]
            predict = [m.predict(x) for m, x in zip(models, X[sets, folds])]
            models = [m.to_dict() for m in models]
        elif kind == "stepwise":
            models = [m for part in parts
                      for m in stepwise._fit_stack(X, y, sets[part],
                                                   folds[part])[0]]
            predict = [stepwise.predict_or_fallback(
                m, X[s, i], np.delete(y[s], i).mean())
                for m, s, i in zip(models, sets, folds)]
        else:
            return
        assert list(params.fit_loo(kind, X, y, folds, sets)) == predict
        reference = [params.fit_one(kind, np.delete(X[s], i, axis=0),
                                    np.delete(y[s], i))
                     for s, i in zip(sets, folds)]
        assert models == [m.to_dict() if kind == "svr" else m
                          for m in reference]

    def test_stacks_cut_near_equal_widths(self, monkeypatch):
        monkeypatch.setattr(regressors_base, "STACK_BYTES", 100)
        widths = {count: [p.stop - p.start
                          for p in regressors_base.stacks(count, 10)]
                  for count in (0, 1, 10, 11, 35)}
        assert widths == {0: [], 1: [1], 10: [10], 11: [5, 6],
                          35: [8, 9, 9, 9]}
        # a problem larger than the budget gets a stack of its own
        assert len(regressors_base.stacks(3, 1000)) == 3

    def test_one_fit_loo_call_per_learner_and_size(self, rng, monkeypatch):
        calls = []
        fit_loo = BaseModelParams.fit_loo

        def counting_fit_loo(self, kind, X, y, folds, *args):
            calls.append((kind, y.shape[1], len(folds)))
            return fit_loo(self, kind, X, y, folds, *args)

        monkeypatch.setattr(BaseModelParams, "fit_loo", counting_fit_loo)
        # every solver stack one problem wide: the harness still hands each
        # learner all the problems of a size at once
        monkeypatch.setattr(regressors_base, "STACK_BYTES", 1)
        sets = [fixture_training(rng, 9) for _ in range(3)] + \
            [fixture_training(rng, 12) for _ in range(2)]
        inner_error_profile(sets)
        assert calls == [(name, 9, 27) for name in BASE_MODELS] + \
            [(name, 12, 24) for name in BASE_MODELS]

    @pytest.mark.parametrize("kind", BASE_MODELS)
    def test_traced_peak_stays_within_the_budget(self, kind, rng):
        # 3000 folds: unbounded, each (folds, n) array of CART's level loop
        # alone would take about 1 MB
        import tracemalloc

        X, y, sets, folds = stacked_sets(rng, 75, 40)
        params = BaseModelParams()
        tracemalloc.start()
        try:
            predictions = params.fit_loo(kind, X, y, folds, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert predictions.shape == (3000,)
        assert peak < 2 * regressors_base.STACK_BYTES
