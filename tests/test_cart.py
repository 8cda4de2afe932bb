import numpy as np
import pytest

from ucp_locality.dataset import generate_synthetic
from ucp_locality.preprocess import minmax_apply, minmax_fit
from ucp_locality.regressors import cart_fit, cart_predict
from ucp_locality.regressors.base import model_from_dict
from ucp_locality.regressors.cart import _best_split, cart_fit_loo


def brute_force_best_sse(X, y, min_leaf):
    """Total child SSE of the best split, scanning every feature and every
    midpoint threshold directly."""
    best = None
    n = len(y)
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2
            left = X[:, f] <= thr
            nl = left.sum()
            if nl < min_leaf or n - nl < min_leaf:
                continue
            sse = np.sum((y[left] - y[left].mean()) ** 2) \
                + np.sum((y[~left] - y[~left].mean()) ** 2)
            if best is None or sse < best:
                best = sse
    return best


def loop_best_split(X, y, min_leaf):
    """Reference split search, one feature at a time: the lowest feature
    whose best SSE is the overall minimum, at its first minimizing
    position."""
    n = y.size
    yc = y - y.mean()
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = yc[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        counts_left = np.arange(1, n)
        valid = (xs[:-1] < xs[1:])
        valid &= (counts_left >= min_leaf) & (n - counts_left >= min_leaf)
        if not valid.any():
            continue
        idx = np.nonzero(valid)[0]
        nl = counts_left[idx].astype(float)
        nr = n - nl
        sum_l = csum[idx]
        sq_l = csq[idx]
        sse = (sq_l - sum_l * sum_l / nl) \
            + ((csq[-1] - sq_l) - (csum[-1] - sum_l) ** 2 / nr)
        j = int(np.argmin(sse))
        if best is None or sse[j] < best[2]:
            threshold = (xs[idx[j]] + xs[idx[j] + 1]) / 2.0
            best = (feature, float(threshold), float(sse[j]))
    return best


def node_members(model, X):
    """Map each internal node to the indices of training rows reaching it."""
    out = []

    def walk(node, idx):
        if node.is_leaf:
            return
        out.append((node, idx))
        mask = X[idx, node.feature] <= node.threshold
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(model.root, np.arange(len(X)))
    return out


class TestCartFit:
    def test_constant_target_single_leaf(self, rng):
        X = rng.uniform(0, 1, (30, 4))
        y = np.full(30, 7.5)
        model = cart_fit(X, y)
        assert model.root.is_leaf
        assert model.root.prediction == 7.5

    def test_separable_two_leaves(self, rng):
        X = rng.uniform(0, 1, (20, 4))
        y = np.where(X[:, 0] < 0.5, 10.0, 30.0)
        model = cart_fit(X, y)
        assert not model.root.is_leaf
        assert model.root.feature == 0
        assert model.root.left.prediction == 10.0
        assert model.root.right.prediction == 30.0

        oracle = brute_force_best_sse(X, y, model.min_leaf)
        left = X[:, 0] <= model.root.threshold
        got = np.sum((y[left] - y[left].mean()) ** 2) \
            + np.sum((y[~left] - y[~left].mean()) ** 2)
        assert got <= oracle + 1e-9

    def test_small_node_stays_leaf(self, rng):
        X = rng.uniform(0, 1, (5, 4))
        y = rng.uniform(0, 100, 5)
        model = cart_fit(X, y)  # default min_split=8
        assert model.root.is_leaf
        assert model.root.prediction == pytest.approx(y.mean())

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            cart_fit(np.empty((0, 4)), np.empty(0))

    def test_split_optimality_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(8, 30))
            X = rng.uniform(0, 1, (n, 4))
            y = rng.uniform(0, 50, n)
            model = cart_fit(X, y, min_split=4, min_leaf=2, max_depth=3)
            for node, idx in node_members(model, X):
                oracle = brute_force_best_sse(X[idx], y[idx], model.min_leaf)
                left = X[idx, node.feature] <= node.threshold
                yl, yr = y[idx][left], y[idx][~left]
                got = np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2)
                assert got <= oracle * (1 + 1e-9) + 1e-9

    def test_split_search_equals_per_feature_loop(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 40))
            nodes = int(rng.integers(1, 5))
            if trial % 2:
                # coarse integer grids force tied values and tied SSEs
                X = rng.integers(0, 3, (nodes, n, 4)).astype(float)
                y = rng.integers(0, 4, (nodes, n)).astype(float)
            else:
                X = rng.uniform(0, 1, (nodes, n, 4))
                y = rng.uniform(0, 50, (nodes, n))
            min_leaf = int(rng.integers(1, 5))
            mean = y.mean(axis=1)
            feature, threshold, sse = _best_split(X, y, mean, min_leaf)
            for p in range(nodes):
                # a stacked mean is each node's own mean, bit for bit
                assert mean[p] == y[p].mean()
                got = None if feature[p] < 0 else (
                    int(feature[p]), float(threshold[p]), float(sse[p]))
                assert got == loop_best_split(X[p], y[p], min_leaf)

    def test_leaf_means_and_mass_conservation(self, rng):
        X = rng.uniform(0, 1, (60, 4))
        y = rng.uniform(5, 40, 60)
        model = cart_fit(X, y)
        leaves, stack = [], [model.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend((node.left, node.right))
        total = sum(leaf.count * leaf.prediction for leaf in leaves)
        assert total == pytest.approx(y.sum(), rel=1e-12)
        for node, idx in node_members(model, X):
            for child, mask in ((node.left, X[idx, node.feature] <= node.threshold),
                                (node.right, X[idx, node.feature] > node.threshold)):
                if child.is_leaf:
                    assert child.prediction == pytest.approx(
                        y[idx][mask].mean(), rel=1e-12)

    def test_depth_limit(self, rng):
        X = rng.uniform(0, 1, (100, 4))
        y = rng.uniform(0, 1, 100)
        model = cart_fit(X, y, min_split=2, min_leaf=1, max_depth=2)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2

    def test_deterministic(self, rng):
        X = rng.uniform(0, 1, (40, 4))
        y = rng.uniform(0, 1, 40)
        assert cart_fit(X, y).to_dict() == cart_fit(X, y).to_dict()


def assert_loo_equals_per_fold(X, y, folds, query, **limits):
    """`cart_fit_loo` gives, bit for bit, each fold's `cart_fit` prediction
    at its held-out row, and at the query when asked for it as a point."""
    folds = list(folds)
    want_held, want_query = [], []
    for i in folds:
        keep = np.arange(len(y)) != i
        model = cart_fit(X[keep], y[keep], **limits)
        want_held.append(model.predict(X[i]))
        want_query.append(model.predict(query))
    held_out = cart_fit_loo(X, y, folds, **limits)
    assert held_out.tobytes() == np.array(want_held, dtype=float).tobytes()
    k = np.arange(len(folds))
    points = np.vstack([X[folds], np.tile(query, (len(folds), 1))])
    both = cart_fit_loo(X, y, folds, points=points, at=np.concatenate([k, k]),
                        **limits)
    assert both.tobytes() == np.array(want_held + want_query,
                                      dtype=float).tobytes()


class TestCartFitLoo:
    def test_scaled_synthetic_sets(self):
        for seed, n in ((1, 20), (2, 47), (3, 80)):
            data = generate_synthetic(seed, n)
            features = np.array([p.size_features() for p in data])
            scaler = minmax_fit(features[1:])
            X = minmax_apply(scaler, features[1:])
            y = np.array([p.pdr for p in data])[1:]
            query = minmax_apply(scaler, features[0])
            assert_loo_equals_per_fold(X, y, range(n - 1), query)

    def test_integer_sets_with_many_ties(self, rng):
        for _ in range(20):
            n = int(rng.integers(7, 60))
            X = rng.integers(0, 3, (n, 4)).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            query = rng.integers(0, 3, 4).astype(float)
            assert_loo_equals_per_fold(X, y, range(n), query, min_split=4,
                                       min_leaf=2)

    def test_constant_target(self, rng):
        X = rng.uniform(0, 1, (30, 4))
        y = np.full(30, 7.5)
        assert_loo_equals_per_fold(X, y, range(30), rng.uniform(0, 1, 4))

    def test_smallest_set(self, rng):
        X = rng.uniform(0, 1, (7, 4))
        y = rng.uniform(0, 50, 7)
        query = rng.uniform(0, 1, 4)
        assert_loo_equals_per_fold(X, y, range(7), query)
        assert_loo_equals_per_fold(X, y, range(7), query, min_split=2,
                                   min_leaf=1)

    def test_repeated_and_unordered_folds(self, rng):
        X = rng.uniform(0, 1, (25, 4))
        y = rng.uniform(0, 50, 25)
        query = rng.uniform(0, 1, 4)
        assert_loo_equals_per_fold(X, y, [5, 2, 5, 0, 24, 2], query)
        assert_loo_equals_per_fold(X, y, [], query)

    @pytest.mark.parametrize("limits", [
        {"min_split": 2, "min_leaf": 1, "max_depth": 10},
        {"min_split": 5, "min_leaf": 3, "max_depth": 2},
        {"min_split": 12, "min_leaf": 6, "max_depth": 4},
        {"max_depth": 1},
        {"max_depth": 0},
    ])
    def test_tree_limits(self, rng, limits):
        X = rng.uniform(0, 1, (40, 4)) * [1.0, 10.0, 100.0, 1000.0]
        y = rng.uniform(0, 50, 40)
        assert_loo_equals_per_fold(X, y, range(40), rng.uniform(0, 500, 4),
                                   **limits)

    def test_query_on_threshold_goes_left(self):
        # fold 4 trains on the four points of the tie test: threshold 0.5
        X = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.2, 0, 0, 0],
                      [0.8, 0, 0, 0], [0.6, 0, 0, 0]])
        y = np.array([1.0, 9.0, 1.0, 9.0, 5.0])
        limits = {"min_split": 2, "min_leaf": 2, "max_depth": 2}
        probe = np.array([0.5, 0, 0, 0])
        assert cart_fit(X[:4], y[:4], **limits).root.threshold == 0.5
        assert cart_fit_loo(X, y, [4], points=[probe], at=[0],
                            **limits)[0] == 1.0
        assert cart_fit_loo(X, y, [4], **limits)[0] == 9.0
        assert_loo_equals_per_fold(X, y, range(5), probe, **limits)

    def test_midpoint_on_a_training_value(self, rng):
        # one ulp apart, the midpoint threshold rounds onto the lower value,
        # whose training rows still go left
        low = np.nextafter(0.3, 0.0)
        X = rng.uniform(0, 1, (16, 4))
        X[:, 0] = [low, 0.3] * 8
        y = np.where(X[:, 0] == low, 1.0, 9.0) + rng.uniform(0, 0.1, 16)
        assert cart_fit(X, y).root.threshold == low
        assert_loo_equals_per_fold(X, y, range(16), rng.uniform(0, 1, 4))

    def test_set_stack_equals_per_fold_fits(self, rng):
        # equal-size sets on different scales, with tied and repeated
        # folds; every fold's tree sees only its own set
        for n, limits in ((12, {}), (30, {"min_split": 4, "min_leaf": 2}),
                          (7, {"min_split": 2, "min_leaf": 1})):
            base = rng.uniform(0, 1, (n, 4))
            X = np.stack([base, base * [1.0, 10.0, 100.0, 0.5],
                          np.round(rng.uniform(0, 3, (n, 4))),
                          base + 7.0])
            y = np.stack([rng.uniform(5, 40, n), rng.uniform(0, 1, n),
                          rng.integers(0, 4, n).astype(float),
                          rng.uniform(5, 40, n)])
            sets = [0, 3, 1, 2, 2, 0, 1, 3, 2]
            folds = [0, 1, n - 1, 2, 2, 5, 3, 0, n - 2]
            want = [cart_fit(np.delete(X[s], i, axis=0), np.delete(y[s], i),
                             **limits).predict(X[s, i])
                    for s, i in zip(sets, folds)]
            got = cart_fit_loo(X, y, folds, sets, **limits)
            assert got.tobytes() == np.array(want).tobytes()
            # the same trees, asked at every set's first row
            at = np.repeat(np.arange(len(folds)), 4)
            points = np.tile(X[:, 0], (len(folds), 1))
            want = [cart_fit(np.delete(X[sets[k]], folds[k], axis=0),
                             np.delete(y[sets[k]], folds[k]),
                             **limits).predict(x) for k, x in zip(at, points)]
            got = cart_fit_loo(X, y, folds, sets, points, at, **limits)
            assert got.tobytes() == np.array(want).tobytes()

    def test_invalid_folds_refused(self, rng):
        X = rng.uniform(0, 1, (10, 4))
        y = rng.uniform(0, 50, 10)
        for folds in ([-1], [10], [3, 11]):
            with pytest.raises(ValueError, match="fold indices"):
                cart_fit_loo(X, y, folds)
        with pytest.raises(ValueError, match="empty"):
            cart_fit_loo(X[:1], y[:1], [0])
        with pytest.raises(ValueError, match="limits"):
            cart_fit_loo(X, y, [0], max_depth=-1)
        with pytest.raises(ValueError, match="set indices"):
            cart_fit_loo(X[None], y[None], [0], [1])


class TestCartPredict:
    def test_single_leaf_returns_constant(self, rng):
        X = rng.uniform(0, 1, (4, 4))
        y = np.full(4, 3.0)
        model = cart_fit(X, y)
        assert cart_predict(model, rng.uniform(0, 1, 4)) == 3.0

    def test_training_point_gets_own_leaf_mean(self, rng):
        X = rng.uniform(0, 1, (40, 4))
        y = rng.uniform(0, 100, 40)
        model = cart_fit(X, y)
        for i in range(40):
            node = model.root
            while not node.is_leaf:
                node = node.left if X[i, node.feature] <= node.threshold \
                    else node.right
            assert cart_predict(model, X[i]) == node.prediction

    def test_tie_at_threshold_goes_left(self):
        X = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0],
                      [0.2, 0, 0, 0], [0.8, 0, 0, 0]])
        y = np.array([1.0, 9.0, 1.0, 9.0])
        model = cart_fit(X, y, min_split=2, min_leaf=2, max_depth=2)
        assert not model.root.is_leaf
        thr = model.root.threshold
        probe = np.array([thr, 0, 0, 0])
        assert cart_predict(model, probe) == model.root.left.prediction


class TestCartSerialization:
    def test_round_trip(self, rng):
        X = rng.uniform(0, 1, (30, 4))
        y = rng.uniform(0, 20, 30)
        model = cart_fit(X, y)
        clone = model_from_dict(model.to_dict(), 4)
        for _ in range(20):
            x = rng.uniform(-0.2, 1.2, 4)
            assert clone.predict(x) == model.predict(x)
