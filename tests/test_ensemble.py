import math

import numpy as np
import pytest

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
from ucp_locality.evaluation import RunSettings, loocv_run
from ucp_locality.preprocess import minmax_apply, minmax_fit
from ucp_locality.regressors.base import model_from_dict


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
        profile = inner_error_profile(X, y, ucp, params)

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

        def counting_fit_loo(self, kind, X, y, folds, query):
            calls.append((kind, query is not None))
            return fit_loo(self, kind, X, y, folds, query)

        monkeypatch.setattr(BaseModelParams, "fit_loo", counting_fit_loo)
        X, y, ucp = fixture_training(rng, 9)
        # without a memo nothing stores a query prediction, so none is made
        inner_error_profile(X, y, ucp, query=X[0])
        assert calls == [(name, False) for name in BASE_MODELS]
        calls.clear()
        memo = {}
        for query in (X[0], X[1], X[0]):
            inner_error_profile(X, y, ucp, memo=memo, query=query)
        assert calls == [(name, True) for name in BASE_MODELS] * 3

    def test_stepwise_fallback_fold_scores_the_training_mean(self):
        X, y = stepwise_fallback_set()
        profile = inner_error_profile(X, y, np.ones(12))
        assert profile == per_fold_profile(X, y, np.ones(12),
                                           BaseModelParams())

    def test_too_small_signals_fallback(self, rng):
        X, y, ucp = fixture_training(rng, 6)
        with pytest.raises(ValueError):
            inner_error_profile(X, y, ucp)


def per_fold_loo(params, kind, X, y, folds, query):
    """Reference for `fit_loo`: each fold fit on its own through `fit_one`;
    a stepwise fold that cannot evaluate a point predicts its training
    mean there."""
    held_out, at_query = [], []
    for i in folds:
        keep = np.arange(y.size) != i
        model = params.fit_one(kind, X[keep], y[keep])
        for x, out in ((X[i], held_out), (query, at_query)):
            if x is None:
                continue
            try:
                out.append(float(model.predict(x)))
            except ValueError:
                assert kind == "stepwise"
                out.append(float(y[keep].mean()))
    return held_out, at_query


def stepwise_fallback_set():
    """12 rows whose column 0 has its unique minimum, 0, in row 0.  Without
    row 0 the column is positive and skewed, so that fold's stepwise model
    log-scales it, keeps it, and cannot evaluate row 0."""
    c0 = np.concatenate([[0.0], 2.0 ** -np.arange(10, -1, -1)])
    c1 = np.array([0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 1.0, 0.0, 0.6, 0.4, 0.8, 0.35])
    y = 20 + np.log2(np.maximum(c0, 2.0 ** -11)) + 0.1 * np.sin(np.arange(12))
    return np.column_stack([c0, c1]), y


class TestFitLoo:
    @pytest.mark.parametrize("kind", BASE_MODELS)
    @pytest.mark.parametrize("with_query", [False, True])
    def test_equals_per_fold_fits(self, kind, with_query, rng):
        params = BaseModelParams()
        for n, folds in ((8, [3, 0, 7, 3]), (13, range(13)), (9, [])):
            X, y, _ = fixture_training(rng, n)
            query = rng.uniform(-0.2, 1.2, 4) if with_query else None
            held_out, at_query = params.fit_loo(kind, X, y, folds, query)
            ref_held_out, ref_at_query = per_fold_loo(params, kind, X, y,
                                                      folds, query)
            assert list(held_out) == ref_held_out
            if with_query:
                assert list(at_query) == ref_at_query
            else:
                assert at_query is None

    def test_stepwise_fold_falls_back_to_its_training_mean(self):
        X, y = stepwise_fallback_set()
        model = BaseModelParams().fit_one("stepwise", X[1:], y[1:])
        with pytest.raises(ValueError):
            model.predict(X[0])
        query = np.array([-0.1, 0.5])
        params = BaseModelParams()
        folds = range(12)
        held_out, at_query = params.fit_loo("stepwise", X, y, folds, query)
        assert held_out[0] == at_query[0] == float(y[1:].mean())
        assert (list(held_out), list(at_query)) == per_fold_loo(
            params, "stepwise", X, y, folds, query)

    def test_unknown_kind(self, rng):
        X, y, _ = fixture_training(rng, 9)
        with pytest.raises(ValueError, match="unknown base model"):
            BaseModelParams().fit_loo("knn", X, y, [0])


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
    through `fit_one`, with no memo and no stacked SVR solve."""
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

    def test_memo_needs_query(self, rng):
        X, y, ucp = fixture_training(rng, 8)
        with pytest.raises(ValueError):
            inner_error_profile(X, y, ucp, memo={})
