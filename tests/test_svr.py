import numpy as np
import pytest

from ucp_locality.regressors import svr, svr_fit, svr_predict
from ucp_locality.regressors.base import loo_folds, model_from_dict
from ucp_locality.regressors.svr import (
    _BOUND_SNAP,
    _TAU,
    _dual_models,
    _kernel_rows,
    _snap_and_mark,
    resolve_gamma,
    svr_fit_loo,
)


def beta_by_row(model, X):
    """Per-training-point dual coefficient (alpha - alpha*), zero for
    non-support rows."""
    lookup = {tuple(r): c for r, c in
              zip(model.support_vectors, model.coefficients)}
    return np.array([lookup.get(tuple(row), 0.0) for row in X])


def kkt_worst_violation(model, X, y):
    """Largest violation of the epsilon-tube optimality conditions, checked
    directly from the decision function (independent of the solver)."""
    eps, C = model.epsilon, model.c
    beta = beta_by_row(model, X)
    worst = 0.0
    for i in range(len(y)):
        r = y[i] - svr_predict(model, X[i])
        b = beta[i]
        if b <= -C + 1e-9:
            v = max(0.0, r + eps)            # must sit at or below -eps
        elif b < -1e-9:
            v = abs(r + eps)                 # free negative: exactly -eps
        elif b <= 1e-9:
            v = max(0.0, abs(r) - eps)       # inside the tube
        elif b < C - 1e-9:
            v = abs(r - eps)                 # free positive: exactly +eps
        else:
            v = max(0.0, eps - r)            # must sit at or above +eps
        worst = max(worst, v)
    return worst


def random_instance(rng, n):
    X = rng.uniform(0, 1, (n, 4))
    y = 18 + 5 * np.sin(5 * X[:, 0]) + 3 * X[:, 1] + rng.normal(0, 1, n)
    return X, y


class TestSvrFit:
    def test_constant_target_inside_tube(self, rng):
        X = rng.uniform(0, 1, (12, 4))
        y = np.full(12, 7.0)
        model = svr_fit(X, y, epsilon=0.1)
        assert model.coefficients.size == 0
        for _ in range(5):
            assert svr_predict(model, rng.uniform(0, 1, 4)) == 7.0

    def test_kkt_satisfied(self, rng):
        for trial in range(20):
            n = int(rng.integers(5, 16))
            X, y = random_instance(rng, n)
            model = svr_fit(X, y, c=float(rng.choice([0.5, 1.0, 5.0, 20.0])))
            assert model.converged
            assert kkt_worst_violation(model, X, y) <= model.tol

    def test_dual_constraints(self, rng):
        for trial in range(10):
            X, y = random_instance(rng, 15)
            model = svr_fit(X, y, c=2.0)
            beta = beta_by_row(model, X)
            assert abs(beta.sum()) <= 1e-9
            assert np.all(beta <= 2.0 + 1e-12)
            assert np.all(beta >= -2.0 - 1e-12)

    def test_deterministic(self, rng):
        X, y = random_instance(rng, 20)
        m1 = svr_fit(X, y)
        m2 = svr_fit(X, y)
        assert m1.bias == m2.bias
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert np.array_equal(m1.support_vectors, m2.support_vectors)

    def test_identical_inputs_bias_only(self):
        X = np.ones((5, 4))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = svr_fit(X, y)
        assert model.coefficients.size == 0
        assert model.bias == pytest.approx(3.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            svr_fit(np.ones((1, 4)), np.ones(1))

    def test_invalid_hyperparameters(self, rng):
        X, y = random_instance(rng, 8)
        with pytest.raises(ValueError):
            svr_fit(X, y, c=0)
        with pytest.raises(ValueError):
            svr_fit(X, y, epsilon=-1)
        with pytest.raises(ValueError):
            svr_fit(X, y, gamma=0.0)

    @pytest.mark.parametrize("name", ["c", "epsilon", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hyperparameters(self, rng, name, value):
        # a NaN epsilon used to run SMO to MAX_ITER and predict NaN, and
        # an infinite gamma put inf * 0 = NaN on the kernel diagonal
        X, y = random_instance(rng, 8)
        with pytest.raises(ValueError, match="finite"):
            svr_fit(X, y, **{name: value})
        with pytest.raises(ValueError, match="finite"):
            svr_fit_loo(X, y, [0], **{name: value})

    def test_kernel_rows_equal_per_row_formula(self, rng):
        for n in (2, 7, 60):
            X = rng.uniform(0, 1, (n, 4))
            rows, curvature = _kernel_rows(X, 0.7)
            sq = np.sum(X * X, axis=1)
            for i in range(n):
                d2 = sq + sq[i] - 2.0 * (X @ X[i])
                single = np.exp(-0.7 * np.maximum(d2, 0.0))
                row = np.concatenate([single, single])
                assert np.array_equal(rows[i], row)
                assert np.array_equal(curvature[i],
                                      np.maximum(2.0 * (1.0 - row), _TAU))

    def test_gamma_auto(self, rng):
        X = rng.uniform(0, 1, (30, 4))
        expected = 1.0 / (4 * X.var(axis=0).mean())
        assert resolve_gamma(X, None) == pytest.approx(expected)
        model = svr_fit(X, 18 + X[:, 0], gamma=None)
        assert model.gamma == pytest.approx(expected)

    def test_fit_quality_on_smooth_target(self, rng):
        # generous C lets the tube track a smooth function closely
        X = rng.uniform(0, 1, (40, 4))
        y = 10 + 3 * X[:, 0]
        model = svr_fit(X, y, c=100.0, epsilon=0.05)
        preds = np.array([svr_predict(model, x) for x in X])
        assert np.max(np.abs(preds - y)) <= 0.05 + model.tol


def per_fold_fits(X, y, folds, **kwargs):
    """Reference for svr_fit_loo: one svr_fit per left-out row."""
    models = []
    for i in folds:
        keep = np.ones(len(y), dtype=bool)
        keep[i] = False
        models.append(svr_fit(X[keep], y[keep], **kwargs))
    return models


def loo_models(X, y, folds, sets=None, c=svr.DEFAULT_C,
               epsilon=svr.DEFAULT_EPSILON, gamma=None):
    """The models `svr_fit_loo` predicts with, from its per-stack builder
    over all folds at once; the solver's predictions at the held-out rows
    must equal theirs."""
    X, y, sets, folds, points, _ = loo_folds(X, y, folds, sets)
    models = svr._fit_stack(X, y, sets, folds, c, epsilon, gamma)
    assert svr_fit_loo(X, y, folds, sets, c=c, epsilon=epsilon,
                       gamma=gamma).tolist() == [
        model.predict(x) for model, x in zip(models, points)]
    return models


def assert_loo_equals_per_fold(X, y, folds=None, **kwargs):
    folds = range(len(y)) if folds is None else folds
    stacked = loo_models(X, y, folds, **kwargs)
    reference = per_fold_fits(X, y, folds, **kwargs)
    assert len(stacked) == len(reference)
    for got, want in zip(stacked, reference):
        assert got.to_dict() == want.to_dict()
    return stacked


class TestSvrFitLoo:
    def test_random_sets_with_duplicate_rows(self, rng):
        for trial in range(12):
            n = int(rng.integers(8, 40))
            X, y = random_instance(rng, n)
            X[rng.integers(0, n, 3)] = X[0]
            X[:, 3] = np.round(X[:, 3] * 2) / 2      # tied feature values
            assert_loo_equals_per_fold(X, y)

    def test_fold_with_identical_rows_is_bias_only(self):
        X = np.vstack([np.ones((5, 4)), np.zeros((1, 4))])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        models = assert_loo_equals_per_fold(X, y)
        assert models[5].coefficients.size == 0
        assert models[5].bias == pytest.approx(3.0)
        assert all(m.coefficients.size for m in models[:5])

    def test_smallest_inner_loo(self, rng):
        for trial in range(20):
            X, y = random_instance(rng, 7)
            assert_loo_equals_per_fold(X, y)

    def test_non_default_hyperparameters(self, rng):
        X, y = random_instance(rng, 25)
        for c, epsilon, gamma in ((0.3, 0.0, 0.5), (20.0, 0.5, 3.0),
                                  (5.0, 0.05, None)):
            assert_loo_equals_per_fold(X, y, c=c, epsilon=epsilon, gamma=gamma)

    def test_iteration_cap_leaves_some_folds_unconverged(self, rng,
                                                         monkeypatch):
        X, y = random_instance(rng, 30)
        free = loo_models(X, y, range(30))
        cap = int(np.median([m.n_iter for m in free]))
        monkeypatch.setattr(svr, "MAX_ITER", cap)
        models = assert_loo_equals_per_fold(X, y)
        converged = [m.converged for m in models]
        assert any(converged) and not all(converged)
        assert all(m.n_iter == cap for m in models if not m.converged)

    def test_stacked_auto_gamma_equals_per_fold(self, rng):
        # the folds' gammas come from one variance over the gathered
        # training sets; each must equal resolve_gamma on its fold alone
        for n in (7, 20, 61, 108):
            raw = rng.lognormal(3, 1, (n, 4))
            tied = np.round(rng.uniform(0, 4, (n, 4))) / 4
            for X in (raw, tied, (raw - raw.min(0)) / np.ptp(raw, axis=0)):
                y = 18 + 5 * X[:, 0] + rng.normal(0, 1, n)
                models = loo_models(X, y, range(n))
                for i, model in enumerate(models):
                    want = resolve_gamma(np.delete(X, i, axis=0), None)
                    assert model.gamma == want

    def test_bound_snap_matches_scalar_rule(self):
        # random sets rarely land within the snap distance of a bound
        c = 0.7
        values = np.array([-1e-13, 5e-13, 0.3, c - 5e-13, c + 1e-13, 2e-12])
        var = np.array([0, 1, 2, 3, 0, 2])      # 0, 1 positive; 2, 3 negative
        theta = np.full((6, 4), 0.5)
        up = np.zeros((6, 4), dtype=bool)
        low = np.zeros((6, 4), dtype=bool)
        _snap_and_mark(theta, up, low, var, values, c)
        for p, (v, idx) in enumerate(zip(values, var)):
            want = 0.0 if v < _BOUND_SNAP else c if v > c - _BOUND_SNAP else v
            assert theta[p, idx] == want
            positive = idx < 2
            assert up[p, idx] == (want < c if positive else want > 0.0)
            assert low[p, idx] == (want > 0.0 if positive else want < c)

    def test_set_stack_equals_per_fold_fits(self, rng):
        # equal-size sets on different scales, one of them with identical
        # rows once its last row is left out; each fold sees only its set
        n = 12
        X1, y1 = random_instance(rng, n)
        X2, y2 = random_instance(rng, n)
        X = np.stack([X1, X1 * [10.0, 1.0, 0.1, 3.0], X2 + 5.0,
                      np.vstack([np.ones((n - 1, 4)), np.zeros((1, 4))])])
        y = np.stack([y1, y1, 0.01 * y2, np.arange(n, dtype=float)])
        sets = [0, 1, 2, 3, 3, 1, 0, 2, 1]
        folds = [3, 3, 0, n - 1, 2, 0, 3, n - 1, 7]
        for kwargs in ({}, {"c": 5.0, "epsilon": 0.02, "gamma": 2.0}):
            stacked = loo_models(X, y, folds, sets=sets, **kwargs)
            for model, s, i in zip(stacked, sets, folds):
                want = svr_fit(np.delete(X[s], i, axis=0), np.delete(y[s], i),
                               **kwargs)
                assert model.to_dict() == want.to_dict()
            assert stacked[3].coefficients.size == 0
        assert svr_fit_loo(X, y, [], sets=[]).size == 0

    def test_dual_models_equal_the_scalar_rule(self, rng):
        # states with every variable at a bound leave one side of the
        # violation bracket empty; the bias is then that side's bound
        c, n = 0.8, 5
        states = [np.concatenate([np.full(n, c), np.zeros(n)]),
                  np.concatenate([np.zeros(n), np.full(n, c)]),
                  np.where(rng.uniform(size=2 * n) < 0.5, 0.0, c)]
        states += [rng.choice([0.0, c, 0.3, 0.7], 2 * n) for _ in range(20)]
        theta = np.array(states)
        neg_zg = rng.normal(0, 1, theta.shape)
        X = rng.uniform(0, 1, (len(states), n, 4))
        gammas = rng.uniform(0.5, 2, len(states))
        models = _dual_models(X, theta, neg_zg, gammas, c, 0.1,
                              np.arange(len(states)), [True] * len(states))
        pos = np.arange(2 * n) < n
        for p, model in enumerate(models):
            t, g = theta[p], neg_zg[p]
            up = np.where(pos, t < c, t > 0.0)
            low = np.where(pos, t > 0.0, t < c)
            if up.any() and low.any():
                want = float(np.max(g[up]) + np.min(g[low])) / 2.0
            else:
                want = float(np.max(g[up]) if up.any() else np.min(g[low]))
            assert model.bias == want
            beta = t[:n] - t[n:]
            assert model.coefficients.tolist() == beta[beta != 0].tolist()
            assert model.support_vectors.tolist() == X[p][beta != 0].tolist()
            assert (model.gamma, model.n_iter) == (gammas[p], p)

    def test_subset_of_folds_in_given_order(self, rng):
        X, y = random_instance(rng, 15)
        assert_loo_equals_per_fold(X, y, folds=[9, 2, 2, 14])
        assert svr_fit_loo(X, y, []).size == 0

    def test_points_predicted_by_their_fold(self, rng):
        # each point by the model of fold at[j], in any order, repeated, or
        # none at all
        X, y = random_instance(rng, 15)
        folds = [9, 2, 2, 14]
        points = rng.uniform(-0.2, 1.2, (6, 4))
        at = [3, 0, 0, 1, 2, 3]
        for kwargs in ({}, {"c": 5.0, "epsilon": 0.02, "gamma": 2.0}):
            models = per_fold_fits(X, y, folds, **kwargs)
            got = svr_fit_loo(X, y, folds, points=points, at=at, **kwargs)
            assert got.tolist() == [models[k].predict(x)
                                    for x, k in zip(points, at)]
        assert svr_fit_loo(X, y, folds, points=points[:0], at=[]).size == 0

    def test_invalid_folds(self, rng):
        X, y = random_instance(rng, 8)
        with pytest.raises(ValueError):
            svr_fit_loo(X, y, [8])
        with pytest.raises(ValueError):
            svr_fit_loo(X, y, [-1])
        with pytest.raises(ValueError):
            svr_fit_loo(X[:2], y[:2], [0])
        with pytest.raises(ValueError):
            svr_fit_loo(X, y, [0], c=0)


class TestSvrPredict:
    def test_bias_only_model(self):
        model = svr_fit(np.ones((4, 4)), np.full(4, 9.0))
        assert svr_predict(model, np.zeros(4)) == 9.0

    def test_far_from_support_vectors_decays_to_bias(self, rng):
        X, y = random_instance(rng, 12)
        model = svr_fit(X, y, c=10.0, gamma=2.0)
        far = np.full(4, 60.0)
        assert svr_predict(model, far) == pytest.approx(model.bias, abs=1e-9)

    def test_matches_hand_kernel_sum(self):
        sv = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        coef = np.array([0.5, -0.2, 0.3])
        from ucp_locality.regressors.svr import SvrModel

        model = SvrModel(support_vectors=sv, coefficients=coef, bias=1.5,
                         gamma=0.7, c=1.0, epsilon=0.1, tol=1e-3,
                         n_train=3, n_iter=0, converged=True)
        x = np.array([0.2, 0.1, 0.0, 0.0])
        expected = 1.5
        for b, v in zip(coef, sv):
            expected += b * np.exp(-0.7 * np.sum((v - x) ** 2))
        assert svr_predict(model, x) == pytest.approx(expected, rel=1e-15)


class TestSvrSerialization:
    def test_round_trip(self, rng):
        X, y = random_instance(rng, 15)
        model = svr_fit(X, y, c=3.0)
        clone = model_from_dict(model.to_dict(), 4)
        for _ in range(10):
            x = rng.uniform(0, 1, 4)
            assert clone.predict(x) == pytest.approx(model.predict(x), rel=1e-15)

    def test_bias_only_round_trip(self):
        model = svr_fit(np.ones((3, 4)), np.array([1.0, 2.0, 3.0]))
        clone = model_from_dict(model.to_dict(), 4)
        assert clone.predict(np.zeros(4)) == 2.0
