import numpy as np
import pytest

from ucp_locality.preprocess import minmax_apply, minmax_fit, normality_check
from ucp_locality.regressors import stepwise_fit, stepwise_predict
from ucp_locality.regressors.base import model_from_dict


def normal_equations(design, y):
    return np.linalg.solve(design.T @ design, design.T @ y)


def exactfit_features(rng, n):
    """Feature matrix whose columns each contain a zero, so the positivity
    guard keeps every feature on the identity scale regardless of the
    normality verdict."""
    X = rng.uniform(0.05, 1.0, (n, 4))
    X[0, :] = 0.0
    return X


class TestStepwiseFit:
    def test_recovers_single_feature(self, rng):
        X = exactfit_features(rng, 40)
        y = 3.0 * X[:, 0]
        model = stepwise_fit(X, y)
        assert model.feature_indices == (0,)
        design = np.column_stack([np.ones(40), X[:, 0]])
        oracle = normal_equations(design, y)
        assert model.intercept == pytest.approx(oracle[0], abs=1e-6)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-6)

    def test_recovers_slope_and_intercept(self, rng):
        X = exactfit_features(rng, 40)
        y = 2.0 * X[:, 1] + 5.0
        model = stepwise_fit(X, y)
        assert model.feature_indices == (1,)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(5.0, abs=1e-6)

    def test_pure_noise_gives_intercept_only(self, rng):
        X = rng.uniform(0.2, 1.0, (50, 4))
        for _ in range(5):
            y = rng.normal(10, 1, 50)
            model = stepwise_fit(X, y)
            if model.feature_indices == ():
                assert model.intercept == pytest.approx(y.mean())
                break
        else:
            pytest.fail("intercept-only never reached on noise targets")

    def test_retained_p_values_below_threshold(self, rng):
        X = rng.uniform(0.2, 1.0, (60, 4))
        y = 4 * X[:, 0] - 2 * X[:, 2] + rng.normal(0, 0.1, 60)
        model = stepwise_fit(X, y)
        assert all(p <= 0.05 for p in model.p_values)
        assert 0 in model.feature_indices and 2 in model.feature_indices

    def test_residual_orthogonality(self, rng):
        X = rng.uniform(0.2, 1.0, (50, 4))
        y = 2 * X[:, 0] + X[:, 3] + rng.normal(0, 0.2, 50)
        model = stepwise_fit(X, y)
        preds = np.array([stepwise_predict(model, x) for x in X])
        residuals = y - preds
        for j in model.feature_indices:
            col = np.log(X[:, j]) if model.log_flags[j] else X[:, j]
            assert abs(residuals @ col) <= 1e-8 * max(1.0, np.abs(y).sum())

    def test_collinear_features_resolved(self, rng):
        X = rng.uniform(0.2, 1.0, (40, 4))
        X[:, 1] = 2.0 * X[:, 0]          # exact collinearity
        y = 3.0 * X[:, 0] + rng.normal(0, 0.05, 40)
        model = stepwise_fit(X, y)
        assert not (0 in model.feature_indices and 1 in model.feature_indices)
        kept = model.feature_indices[0]
        expected = 3.0 if kept == 0 else 1.5
        assert model.coefficients[0] == pytest.approx(expected, abs=0.1)

    def test_log_transform_applied_to_skewed_feature(self, rng):
        X = np.column_stack([
            rng.lognormal(0, 1.5, 200),      # heavily skewed, positive
            rng.normal(10, 1, 200),
            rng.normal(5, 1, 200),
            rng.normal(2, 0.3, 200),
        ])
        y = 4.0 * np.log(X[:, 0]) + rng.normal(0, 0.05, 200)
        model = stepwise_fit(X, y)
        assert model.log_flags[0]
        assert model.feature_indices == (0,)
        assert model.coefficients[0] == pytest.approx(4.0, abs=0.05)

    def test_log_flags_need_a_positive_non_normal_column(self, rng):
        n = 40
        skewed = rng.lognormal(0, 1.5, n)
        columns = [
            skewed,                                  # positive, not normal
            rng.normal(10, 1, n),                    # positive, normal
            (skewed - skewed.min()) / np.ptp(skewed),  # minimum exactly 0
            np.full(n, 3.0),                         # constant positive
            np.zeros(n),                             # constant zero
            skewed - 2.0,                            # negative values
        ]
        X = np.column_stack(columns)
        model = stepwise_fit(X, skewed + rng.normal(0, 0.1, n))
        expected = tuple(
            bool(not normality_check(col).is_normal and col.min() > 0)
            for col in columns)
        assert model.log_flags == expected
        assert expected[0] and expected[3] and not any(expected[1:3] + expected[4:])

    def test_no_log_flag_after_minmax_scaling_on_itself(self, rng):
        # every column's minimum scales to exactly 0, so no column is all
        # positive; this is what keeps an outer stepwise fit from raising
        raw_flags = 0
        for trial in range(150):
            n = int(rng.integers(6, 40))
            columns = [rng.lognormal(0.0, 1.5, n) + 1.0,          # skewed
                       rng.uniform(1.0, 2.0, n),
                       rng.integers(1, 4, n).astype(float),       # tied minima
                       np.where(np.arange(n) % 2, 3.0, 5.0),      # tied minima
                       np.full(n, 7.0)]                           # constant
            picked = rng.choice(len(columns), int(rng.integers(1, 6)))
            X = np.column_stack([columns[c] for c in picked])
            y = rng.uniform(5.0, 40.0, n)
            # the raw columns are all positive, so a non-normal one would
            # be log-scaled
            raw_flags += sum(not normality_check(col).is_normal for col in X.T)
            scaled = minmax_apply(minmax_fit(X), X)
            assert scaled.min(axis=0).max() == 0.0
            assert not any(stepwise_fit(scaled, y).log_flags)
        assert raw_flags > 0

    def test_too_small_rejected(self, rng):
        X = rng.uniform(0, 1, (5, 4))
        with pytest.raises(ValueError):
            stepwise_fit(X, np.ones(5))

    def test_deterministic(self, rng):
        X = rng.uniform(0.2, 1.0, (30, 4))
        y = X[:, 0] + rng.normal(0, 0.5, 30)
        assert stepwise_fit(X, y).to_dict() == stepwise_fit(X, y).to_dict()


class TestStepwisePredict:
    def test_intercept_only_predicts_mean(self, rng):
        X = rng.uniform(0.2, 1.0, (30, 4))
        y = rng.normal(50, 0.1, 30)
        model = stepwise_fit(X, y)
        if model.feature_indices == ():
            assert stepwise_predict(model, np.zeros(4)) == pytest.approx(y.mean())

    def test_exact_fit_on_training_point(self, rng):
        X = exactfit_features(rng, 40)
        y = 2.0 * X[:, 1] + 5.0
        model = stepwise_fit(X, y)
        for i in range(10):
            assert stepwise_predict(model, X[i]) == pytest.approx(y[i], rel=1e-9)

    def test_hand_evaluated_linear_form(self):
        from ucp_locality.regressors.stepwise import StepwiseModel

        model = StepwiseModel(feature_indices=(0, 2), coefficients=(2.0, -1.0),
                              intercept=10.0, log_flags=(False,) * 4,
                              p_values=(0.01, 0.02), n_train=20)
        assert stepwise_predict(model, np.array([3.0, 9.9, 4.0, 0.0])) == 12.0

    def test_log_feature_rejects_non_positive(self):
        from ucp_locality.regressors.stepwise import StepwiseModel

        model = StepwiseModel(feature_indices=(0,), coefficients=(1.0,),
                              intercept=0.0, log_flags=(True, False, False, False),
                              p_values=(0.01,), n_train=20)
        with pytest.raises(ValueError, match="positive"):
            stepwise_predict(model, np.array([0.0, 1, 1, 1]))


class TestStepwiseSerialization:
    def test_round_trip(self, rng):
        X = rng.uniform(0.2, 1.0, (30, 4))
        y = 2 * X[:, 0] + rng.normal(0, 0.1, 30)
        model = stepwise_fit(X, y)
        clone = model_from_dict(model.to_dict())
        x = rng.uniform(0.2, 1.0, 4)
        assert clone.predict(x) == model.predict(x)
