import numpy as np
import pytest

from ucp_locality.regressors import svr, svr_fit, svr_predict
from ucp_locality.regressors.base import model_from_dict
from ucp_locality.regressors.svr import (
    _BOUND_SNAP,
    _TAU,
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


def assert_loo_equals_per_fold(X, y, folds=None, **kwargs):
    folds = range(len(y)) if folds is None else folds
    stacked = svr_fit_loo(X, y, folds, **kwargs)
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
        free = svr_fit_loo(X, y, range(30))
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
                models = svr_fit_loo(X, y, range(n))
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

    def test_subset_of_folds_in_given_order(self, rng):
        X, y = random_instance(rng, 15)
        assert_loo_equals_per_fold(X, y, folds=[9, 2, 2, 14])
        assert svr_fit_loo(X, y, []) == []

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
        clone = model_from_dict(model.to_dict())
        for _ in range(10):
            x = rng.uniform(0, 1, 4)
            assert clone.predict(x) == pytest.approx(model.predict(x), rel=1e-15)

    def test_bias_only_round_trip(self):
        model = svr_fit(np.ones((3, 4)), np.array([1.0, 2.0, 3.0]))
        clone = model_from_dict(model.to_dict())
        assert clone.predict(np.zeros(4)) == 2.0
