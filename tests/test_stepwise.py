import numpy as np
import pytest

from ucp_locality.preprocess import minmax_apply, minmax_fit, normality_check
from ucp_locality.regressors import stepwise, stepwise_fit, stepwise_predict
from ucp_locality.regressors.base import loo_folds, model_from_dict
from ucp_locality.regressors.stepwise import StepwiseModel, stepwise_fit_loo
from ucp_locality.stats import t_two_sided_p

from conftest import stepwise_fallback_set


def normal_equations(design, y):
    return np.linalg.solve(design.T @ design, design.T @ y)


def exactfit_features(rng, n):
    """Feature matrix whose columns each contain a zero, so the positivity
    guard keeps every feature on the identity scale regardless of the
    normality verdict."""
    X = rng.uniform(0.05, 1.0, (n, 4))
    X[0, :] = 0.0
    return X


def loop_vif_drop(Z, active, seen):
    worst_j, worst_vif = 0, -np.inf
    for j in range(len(active)):
        target = Z[:, active[j]]
        others = [active[m] for m in range(len(active)) if m != j]
        design = np.column_stack([np.ones(Z.shape[0])] + [Z[:, o] for o in others])
        fitted = design @ np.linalg.pinv(design) @ target
        ss_res = float(np.sum((target - fitted) ** 2))
        ss_tot = float(np.sum((target - target.mean()) ** 2))
        if ss_res <= 1e-12 * max(ss_tot, 1.0):
            vif = np.inf
        elif ss_tot == 0:
            seen.add("constant target")
            vif = np.inf
        else:
            vif = 1.0 / (ss_res / ss_tot)
        if vif > worst_vif:
            worst_j, worst_vif = j, vif
    return worst_j


def qr_solve(design, y):
    """One design's least-squares fit from the R-only QR of [design y], as
    (coefficients, RSS, a function giving the (X'X)^-1 diagonal), or None
    when R's diagonal flags the design rank deficient: its smallest |R_jj|
    within eps * max(n, p) of its largest."""
    n, p = design.shape
    augmented = np.zeros((max(n, p + 1), p + 1))
    augmented[:n, :p], augmented[:n, p] = design, y
    r = np.linalg.qr(augmented, mode="r")
    r_diag = np.abs(np.diag(r)[:p])
    if r_diag.min() <= np.finfo(float).eps * max(n, p) * r_diag.max():
        return None
    r_inv = np.linalg.inv(r[:p, :p])
    return r_inv @ r[:p, p], float(r[p, p] ** 2), lambda: (r_inv ** 2).sum(axis=1)


def lstsq_solve(design, y):
    """The same fit by `np.linalg.lstsq`, whose SVD rank flags a deficient
    design, with the (X'X)^-1 diagonal from the inverted Gram matrix, or
    None when that inverse fails."""
    coefs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        return None
    residuals = y - design @ coefs

    def gram_inverse_diagonal():
        try:
            return np.diag(np.linalg.inv(design.T @ design))
        except np.linalg.LinAlgError:
            return None
    return coefs, float(residuals @ residuals), gram_inverse_diagonal


def loop_stepwise_fit(X, y, seen, solve=qr_solve):
    """Reference backward elimination, one design and one step at a time,
    each step's fit by `solve`; adds to `seen` the name of each special
    branch it takes."""
    n, n_features = X.shape
    log_flags = [bool(X[:, j].min() > 0 and not normality_check(X[:, j]).is_normal)
                 for j in range(n_features)]
    Z = X.copy()
    for j, flag in enumerate(log_flags):
        if flag:
            seen.add("log flag")
            Z[:, j] = np.log(Z[:, j])
    active = list(range(n_features))
    while active:
        design = np.column_stack([np.ones(n)] + [Z[:, j] for j in active])
        p = design.shape[1]
        solved = solve(design, y)
        if solved is None:
            seen.add("rank deficient")
            del active[loop_vif_drop(Z, active, seen)]
            continue
        coefs, rss, gram_inverse_diagonal = solved
        p_values = np.empty(p)
        if n == p or rss <= 1e-24 * max(float(y @ y), 1e-300):
            seen.add("exact")
            y_scale = max(float(np.std(y)), abs(float(y.mean())), 1.0)
            for j in range(p):
                contribution = abs(coefs[j]) * max(float(np.std(design[:, j])), 1.0)
                p_values[j] = 0.0 if contribution > 1e-9 * y_scale else 1.0
        else:
            xtx_inv_diagonal = gram_inverse_diagonal()
            if xtx_inv_diagonal is None:
                seen.add("singular gram")
                del active[loop_vif_drop(Z, active, seen)]
                continue
            se = np.sqrt(np.maximum(rss / (n - p) * xtx_inv_diagonal, 0.0))
            for j in range(p):
                t = coefs[j] / se[j] if se[j] > 0 else 0.0
                p_values[j] = float(t_two_sided_p(t, n - p))
        feature_p = p_values[1:]
        worst = int(np.argmax(feature_p))
        if feature_p[worst] > 0.05:
            del active[worst]
        else:
            return StepwiseModel(
                feature_indices=tuple(active),
                coefficients=tuple(float(c) for c in coefs[1:]),
                intercept=float(coefs[0]), log_flags=tuple(log_flags),
                p_values=tuple(float(p) for p in feature_p), n_train=n)
    return StepwiseModel(feature_indices=(), coefficients=(),
                         intercept=float(y.mean()), log_flags=tuple(log_flags),
                         p_values=(), n_train=n)


def raw_design(rng, kind):
    """Designs of every kind the elimination must handle, unscaled."""
    n = int(rng.integers(8, 60))
    if kind == "random":
        X = rng.uniform(0, 1, (n, 4))
        return X, X @ rng.normal(0, 2, 4) + rng.normal(0, 0.5, n)
    if kind == "ties":
        X = rng.integers(1, 4, (n, 4)).astype(float)
        return X, rng.integers(0, 5, n).astype(float)
    if kind == "collinear":
        X = rng.uniform(0, 1, (n, 4))
        X[:, 3] = 2.0 * X[:, 0] - X[:, 1]
        return X, X[:, 0] + rng.normal(0, 0.2, n)
    if kind == "exact":
        X = rng.uniform(0.1, 2.0, (n, 3))
        return X, 1.5 + X @ np.array([1.0, 0.0, 3.0])
    if kind == "lognormal":
        X = rng.lognormal(0, 1, (n, 3))
        return X, 3.0 * np.log(X[:, 0]) + rng.normal(0, 0.3, n)
    if kind == "constant":
        X = np.column_stack([rng.uniform(0, 1, n), np.full(n, 7.0),
                             rng.lognormal(0, 1.5, n)])
        return X, 4.0 * X[:, 0] + rng.normal(0, 0.5, n)
    raise ValueError(kind)


def near_constant_design(seed):
    """A raw design with one column at 3.0 and 3.0 + 1e-9, mixed with
    constant, tied and skewed columns.  Many of these make backward
    elimination regress a constant column on the others, or reach a design
    whose R has a diagonal entry at rounding level."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    columns = [np.where(rng.uniform(size=n) < 0.5, 3.0, 3.0 + 1e-9),
               np.full(n, 7.0),
               rng.integers(1, 4, n).astype(float),
               rng.lognormal(0, 1.5, n) + 1.0]
    picked = rng.choice(4, int(rng.integers(2, 5)))
    return np.column_stack([columns[c] for c in picked]), rng.uniform(5, 40, n)


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

    def test_no_more_rows_than_design_columns(self, rng):
        # zero rows give R its residual row; with n == p the fit is exact
        for n, n_features in ((6, 5), (6, 6), (7, 8)):
            X = rng.uniform(0, 1, (n, n_features))
            X[0] = 0.0
            y = rng.uniform(5, 40, n)
            seen = set()
            model = stepwise_fit(X, y)
            assert model.to_dict() == loop_stepwise_fit(X, y, seen).to_dict()
            assert "exact" in seen
            assert_same_selection(
                model, loop_stepwise_fit(X, y, set(), solve=lstsq_solve), 1e-9)

    def test_too_small_rejected(self, rng):
        X = rng.uniform(0, 1, (5, 4))
        with pytest.raises(ValueError):
            stepwise_fit(X, np.ones(5))

    def test_deterministic(self, rng):
        X = rng.uniform(0.2, 1.0, (30, 4))
        y = X[:, 0] + rng.normal(0, 0.5, 30)
        assert stepwise_fit(X, y).to_dict() == stepwise_fit(X, y).to_dict()


def loo_models(X, y, folds, sets=None):
    """The models `stepwise_fit_loo` predicts with, from its per-stack
    builder over all folds at once; the solver's predictions at the
    held-out rows must equal theirs, or the fold's training mean where a
    model cannot evaluate its row."""
    X, y, sets, folds, points, _ = loo_folds(X, y, folds, sets)
    models = stepwise._fit_stack(X, y, sets, folds)[0]
    assert stepwise_fit_loo(X, y, folds, sets).tolist() == [
        stepwise.predict_or_fallback(model, x, np.delete(y[s], i).mean())
        for model, x, s, i in zip(models, points, sets, folds)]
    return models


def assert_same_selection(model, old, rtol):
    """`model` keeps the features and log flags of `old`, with coefficients
    and intercept within `rtol` of its own."""
    assert model.feature_indices == old.feature_indices
    assert model.log_flags == old.log_flags
    np.testing.assert_allclose((model.intercept,) + model.coefficients,
                               (old.intercept,) + old.coefficients,
                               rtol=rtol, atol=0)


class TestStepwiseFitLoo:
    KINDS = ("random", "ties", "collinear", "exact", "lognormal", "constant")

    def test_folds_equal_loop_fits_bit_for_bit(self, rng):
        seen = set()
        for trial in range(36):
            X, y = raw_design(rng, self.KINDS[trial % 6])
            if trial % 12 >= 6:
                X = minmax_apply(minmax_fit(X), X)
            models = loo_models(X, y, range(y.size))
            assert len(models) == y.size
            for i, model in enumerate(models):
                X_i, y_i = np.delete(X, i, axis=0), np.delete(y, i)
                expected = loop_stepwise_fit(X_i, y_i, seen).to_dict()
                assert model.to_dict() == expected
                assert stepwise_fit(X_i, y_i).to_dict() == expected
        assert seen >= {"log flag", "rank deficient", "exact"}

    def test_near_constant_designs_fit(self):
        # a constant regression target in the variance-inflation step and a
        # design that R's diagonal flags rank deficient both drop a feature
        seen = set()
        for seed in range(40):
            X, y = near_constant_design(seed)
            assert stepwise_fit(X, y).to_dict() == loop_stepwise_fit(X, y, seen).to_dict()
            models = loo_models(X, y, range(y.size))
            for i, model in enumerate(models):
                assert model.to_dict() == loop_stepwise_fit(
                    np.delete(X, i, axis=0), np.delete(y, i), seen).to_dict()
        assert seen >= {"constant target", "rank deficient"}

    def test_qr_rule_keeps_the_lstsq_loop_models(self, rng):
        # the old solve, one lstsq per design with t-tests from the inverted
        # Gram matrix, is a second reference: on every kind of design the
        # QR rule keeps the same features and log flags, and its
        # coefficients differ only by rounding
        rtol = 1e-9
        seen = set()
        for trial in range(24):
            X, y = raw_design(rng, self.KINDS[trial % 6])
            if trial % 12 >= 6:
                X = minmax_apply(minmax_fit(X), X)
            models = loo_models(X, y, range(y.size))
            for i, model in enumerate(models):
                old = loop_stepwise_fit(np.delete(X, i, axis=0), np.delete(y, i),
                                        seen, solve=lstsq_solve)
                assert_same_selection(model, old, rtol)
        # whole designs whose Gram matrix lstsq's loop could not invert
        for seed in (46, 49):
            X, y = near_constant_design(seed)
            old_seen = set()
            old = loop_stepwise_fit(X, y, old_seen, solve=lstsq_solve)
            assert "singular gram" in old_seen
            assert_same_selection(stepwise_fit(X, y), old, rtol)
        assert seen >= {"log flag", "rank deficient", "exact"}

    def test_near_constant_column_is_not_significant(self):
        # a column at log 3 and log(3 + 1e-9) that y does not depend on:
        # the inverted Gram matrix squares its condition number, and the
        # lstsq loop's t-test found it significant; R^-1 does not square it
        n = 12
        u = np.arange(n) * 7 % n / n + 0.05
        X = np.column_stack([np.where(np.arange(n) % 2, 3.0, 3.0 + 1e-9), u])
        y = 2.0 * u + 0.1 * np.sin(np.arange(n))
        model = stepwise_fit(X, y)
        assert model.log_flags[0] and model.feature_indices == (1,)
        assert model.to_dict() == loop_stepwise_fit(X, y, set()).to_dict()
        old = loop_stepwise_fit(X, y, set(), solve=lstsq_solve)
        assert old.feature_indices == (0, 1)

    def test_exactly_collinear_design_drops_by_variance_inflation(
            self, rng, monkeypatch):
        X = exactfit_features(rng, 30)
        X[:, 3] = 2.0 * X[:, 0] - X[:, 1]
        y = X[:, 0] + rng.normal(0, 0.2, 30)
        calls = []
        vif_drop = stepwise._vif_drop

        def spy(Z, active):
            calls.append(list(active))
            return vif_drop(Z, active)
        monkeypatch.setattr(stepwise, "_vif_drop", spy)
        model = stepwise_fit(X, y)
        assert calls[0] == [0, 1, 2, 3]
        assert not {0, 1, 3} <= set(model.feature_indices)
        seen = set()
        assert model.to_dict() == loop_stepwise_fit(X, y, seen).to_dict()
        assert "rank deficient" in seen

    def test_repeated_unordered_and_empty_folds(self, rng):
        X, y = raw_design(rng, "lognormal")
        for folds in ([3, 0, 3, 7], [5], []):
            models = loo_models(X, y, folds)
            assert [m.to_dict() for m in models] == [
                stepwise_fit(np.delete(X, i, axis=0), np.delete(y, i)).to_dict()
                for i in folds]

    def test_set_stack_equals_per_fold_fits(self, rng):
        # equal-size sets of different kinds and scales, with repeated
        # folds; each fold sees only its own set
        seen = set()
        n = 14
        raw = rng.lognormal(0, 1, (n, 3))
        collinear = rng.uniform(0, 1, (n, 3))
        collinear[:, 2] = 2.0 * collinear[:, 0] - collinear[:, 1]
        X = np.stack([raw, minmax_apply(minmax_fit(raw), raw),
                      raw * [1e3, 1.0, 1e-3],
                      rng.integers(1, 4, (n, 3)).astype(float), collinear])
        y = np.stack([3.0 * np.log(raw[:, 0]) + rng.normal(0, 0.3, n),
                      rng.uniform(5, 40, n),
                      3.0 * np.log(raw[:, 0]) + rng.normal(0, 0.3, n),
                      rng.integers(0, 5, n).astype(float),
                      collinear[:, 0] + rng.normal(0, 0.2, n)])
        sets = [0, 1, 2, 3, 4, 0, 4, 2, 1, 3, 0]
        folds = [0, 0, 5, n - 1, 3, 0, 3, 1, n - 1, 2, 9]
        models = loo_models(X, y, folds, sets)
        for model, s, i in zip(models, sets, folds):
            X_i, y_i = np.delete(X[s], i, axis=0), np.delete(y[s], i)
            expected = loop_stepwise_fit(X_i, y_i, seen).to_dict()
            assert model.to_dict() == expected
            assert stepwise_fit(X_i, y_i).to_dict() == expected
        assert seen >= {"log flag", "rank deficient"}
        assert stepwise_fit_loo(X, y, [], []).size == 0

    def test_invalid_folds_rejected(self, rng):
        X, y = rng.uniform(0, 1, (10, 3)), rng.uniform(5, 40, 10)
        for folds in ([-1], [10], [0, 10]):
            with pytest.raises(ValueError, match="fold indices"):
                stepwise_fit_loo(X, y, folds)
        with pytest.raises(ValueError, match="at least"):
            stepwise_fit_loo(X[:6], y[:6], [0])
        assert stepwise_fit_loo(X[:6], y[:6], []).size == 0

    def test_points_predicted_by_their_fold(self, rng):
        # each point by the model of fold at[j]; fold 0's model log-scales
        # column 0 and cannot evaluate a point at or below 0 there, so it
        # predicts its training mean
        X, y = stepwise_fallback_set()
        folds = [0, 5, 0]
        points = np.vstack([rng.uniform(0.1, 1.0, (3, 2)), [[-0.1, 0.5]],
                            X[:1]])
        at = [2, 1, 0, 0, 2]
        models = [stepwise_fit(np.delete(X, i, axis=0), np.delete(y, i))
                  for i in folds]
        assert models[0].log_flags[0] and 0 in models[0].feature_indices
        want = [models[k].predict(x) for x, k in zip(points[:3], at[:3])]
        want += [float(y[1:].mean())] * 2
        got = stepwise_fit_loo(X, y, folds, points=points, at=at)
        assert got.tolist() == want
        assert stepwise_fit_loo(X, y, folds, points=points[:0],
                                at=[]).size == 0


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
        clone = model_from_dict(model.to_dict(), 4)
        x = rng.uniform(0.2, 1.0, 4)
        assert clone.predict(x) == model.predict(x)
