import numpy as np
import pytest

import ucp_locality.locality as locality
from ucp_locality.locality import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    MergedLevel,
    Partitioning,
    assign,
    derive_seed,
    dunn_index,
    kmeans,
    merge_level,
    partition_by_factor,
    partition_by_kmeans,
    select_k,
)

from conftest import make_dataset, make_project


def pad8(xy_points):
    """Embed 2-d points into the 8-dim factor space with zero padding."""
    pts = np.zeros((len(xy_points), 8))
    pts[:, :2] = xy_points
    return pts


def blob_instance(rng, centers, per_blob, spread=0.02):
    points = []
    for c in centers:
        points.append(rng.normal(c, spread, (per_blob, 8)))
    return np.vstack(points)


def loop_kmeans(points, k, seed, reseeds):
    """Reference Lloyd run, one restart on its own; appends to `reseeds`
    each time it re-seeds an empty cluster."""
    unique = np.unique(points, axis=0)
    rng = np.random.default_rng(seed)
    centroids = unique[rng.choice(unique.shape[0], size=k, replace=False)]
    assignments = np.full(points.shape[0], -1)
    history = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_assignments = np.argmin(dists, axis=1)
        for _ in range(points.shape[0] + 1):
            empty = [c for c in range(k) if not np.any(new_assignments == c)]
            if not empty:
                break
            for cluster in empty:
                reseeds.append(cluster)
                assigned_dist = dists[np.arange(points.shape[0]), new_assignments]
                farthest = int(np.argmax(assigned_dist))
                new_assignments[farthest] = cluster
                centroids[cluster] = points[farthest]
                dists[:, cluster] = np.linalg.norm(points - centroids[cluster], axis=1)
        converged = np.array_equal(new_assignments, assignments)
        assignments = new_assignments
        for cluster in range(k):
            centroids[cluster] = points[assignments == cluster].mean(axis=0)
        diffs = points - centroids[assignments]
        history.append(float(np.sum(diffs * diffs)))
        if converged:
            break
    return assignments, centroids, n_iter, tuple(history)


def loop_best_kmeans(points, k, seed, reseeds):
    """Reference for `kmeans`: the restarts run one after another, and the
    first with the lowest final inertia is kept."""
    best = None
    for r in range(KMEANS_RESTARTS):
        run = loop_kmeans(points, k, derive_seed(seed, r), reseeds)
        if best is None or run[3][-1] < best[3][-1]:
            best = run
    return best


class TestMergeLevel:
    def test_full_mapping(self):
        assert merge_level(0) is MergedLevel.L12
        assert merge_level(1) is MergedLevel.L12
        assert merge_level(2) is MergedLevel.L12
        assert merge_level(3) is MergedLevel.L3
        assert merge_level(4) is MergedLevel.L45
        assert merge_level(5) is MergedLevel.L45

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            merge_level(6)
        with pytest.raises(ValueError):
            merge_level(-1)

    def test_order_preserving(self):
        assert MergedLevel.L12 < MergedLevel.L3 < MergedLevel.L45


class TestPartitionByFactor:
    def test_single_level(self):
        d = make_dataset([make_project(f"p{i}") for i in range(5)])
        part = partition_by_factor(d, 2)
        assert set(part.partitions) == {"L3"}
        assert len(part.partitions["L3"]) == 5

    def test_three_partitions_when_all_levels_present(self):
        projects = []
        for i, level in enumerate((1, 2, 3, 4, 5)):
            env = [3] * 8
            env[0] = level
            projects.append(make_project(f"p{i}", env=tuple(env)))
        part = partition_by_factor(make_dataset(projects), 1)
        assert set(part.partitions) == {"L12", "L3", "L45"}
        assert part.partitions["L12"] == ("p0", "p1")
        assert part.partitions["L45"] == ("p3", "p4")

    def test_conservation(self, small_synthetic):
        for i in range(1, 9):
            part = partition_by_factor(small_synthetic, i)
            sizes = sum(len(m) for m in part.partitions.values())
            assert sizes == len(small_synthetic)
            members = {pid for m in part.partitions.values() for pid in m}
            assert members == set(small_synthetic.ids())

    def test_partitioning_rejects_overlap(self):
        with pytest.raises(ValueError, match="multiple"):
            Partitioning(scheme="e1",
                         partitions={"L12": ("a", "b"), "L3": ("b",)})
        with pytest.raises(ValueError, match="empty"):
            Partitioning(scheme="e1", partitions={"L12": ()})


class TestKMeans:
    def test_two_blobs_recovered(self):
        pts = pad8([(0, 0), (0, 1), (1, 0), (1, 1),
                    (10, 10), (10, 11), (11, 10), (11, 11)])
        result = kmeans(pts, 2, seed=3)
        labels = result.assignments
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_deterministic(self, rng):
        pts = rng.uniform(0, 1, (30, 8))
        r1 = kmeans(pts, 4, seed=9)
        r2 = kmeans(pts, 4, seed=9)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_k_equals_distinct_points(self):
        pts = pad8([(0, 0), (3, 0), (0, 3), (5, 5)])
        result = kmeans(pts, 4, seed=1)
        assert sorted(result.assignments) == [0, 1, 2, 3]
        assert result.inertia_history[-1] == 0

    def test_k_exceeding_distinct_points_rejected(self):
        pts = pad8([(0, 0), (0, 0), (1, 1)])
        with pytest.raises(ValueError, match="distinct"):
            kmeans(pts, 3, seed=1)

    def test_objective_non_increasing(self, rng):
        for trial in range(10):
            pts = rng.uniform(0, 1, (40, 8))
            result = kmeans(pts, 5, seed=trial)
            hist = np.array(result.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def assert_equals_loop(self, pts, k, seed, reseeds):
        result = kmeans(pts, k, seed)
        assignments, centroids, n_iter, history = loop_best_kmeans(
            pts, k, seed, reseeds)
        assert result.assignments.dtype == assignments.dtype
        assert np.array_equal(result.assignments, assignments)
        assert result.centroids.shape == centroids.shape
        assert result.centroids.tobytes() == centroids.tobytes()
        assert type(result.n_iter) is int and result.n_iter == n_iter
        assert result.inertia_history == history

    def test_restarts_in_lockstep_equal_loop_bit_for_bit(self, rng):
        reseeds = []
        for trial in range(24):
            n = int(rng.integers(6, 60))
            if trial % 2:
                # factor scores: few levels, many ties and duplicate points
                pts = rng.integers(0, 6, (n, 8)) / 5.0
            else:
                pts = rng.uniform(0, 1, (n, 8))
            n_distinct = np.unique(pts, axis=0).shape[0]
            for k in range(2, min(10, n_distinct) + 1):
                self.assert_equals_loop(pts, k, int(rng.integers(1 << 30)),
                                        reseeds)

    def test_reseeded_runs_equal_loop_bit_for_bit(self):
        # on these six points several restarts empty a cluster mid-run
        pts = pad8([(0, 9), (2, 4), (0, 2), (2, 6), (7, 6), (9, 5)])
        reseeds = []
        for seed in range(10):
            self.assert_equals_loop(pts, 3, seed, reseeds)
        assert len(reseeds) > 0

    def test_no_empty_clusters(self, rng):
        for trial in range(10):
            pts = rng.uniform(0, 1, (25, 8))
            result = kmeans(pts, 6, seed=100 + trial)
            assert set(result.assignments) == set(range(6))


class TestDunnIndex:
    def test_hand_geometry(self):
        pts = pad8([(0, 0), (0, 1), (10, 0), (10, 1)])
        assignments = np.array([0, 0, 1, 1])
        centroids = pts[[0, 2]].copy()
        centroids[0] = pts[:2].mean(axis=0)
        centroids[1] = pts[2:].mean(axis=0)
        assert dunn_index(pts, assignments, centroids) == pytest.approx(10.0)

    def test_identical_centroids(self):
        pts = pad8([(0, 0), (0, 1), (0, 0), (0, 1)])
        assignments = np.array([0, 0, 1, 1])
        centroids = pad8([(0, 0.5), (0, 0.5)])
        assert dunn_index(pts, assignments, centroids) == 0.0

    def test_singletons_give_infinity(self):
        pts = pad8([(0, 0), (10, 0)])
        assert dunn_index(pts, np.array([0, 1]), pts.copy()) == float("inf")

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            pts = rng.uniform(0, 1, (6, 8))
            result = kmeans(pts, 2, seed=int(rng.integers(1000)))
            got = dunn_index(pts, result.assignments, result.centroids)

            # brute force over all pairs
            gaps = []
            for a in range(2):
                for b in range(a + 1, 2):
                    gaps.append(np.linalg.norm(
                        result.centroids[a] - result.centroids[b]))
            diam = 0.0
            for c in range(2):
                members = pts[result.assignments == c]
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        diam = max(diam, float(np.linalg.norm(
                            members[i] - members[j])))
            expected = float("inf") if diam == 0 else min(gaps) / diam
            assert got == pytest.approx(expected)

    def test_single_cluster_rejected(self):
        pts = pad8([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            dunn_index(pts, np.array([0, 0]), pts[:1])

    def test_scale_invariance(self, rng):
        pts = rng.uniform(0, 1, (12, 8))
        result = kmeans(pts, 3, seed=4)
        base = dunn_index(pts, result.assignments, result.centroids)
        scaled = dunn_index(pts * 37.5, result.assignments,
                            result.centroids * 37.5)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestSelectK:
    def test_two_blobs(self, rng):
        # n must exceed k_max or the all-singleton clustering (Dunn = inf)
        # legitimately wins; the harness caps k at n/2 for the same reason
        pts = blob_instance(rng, [np.zeros(8), np.ones(8)], 6)
        k, _ = select_k(pts, 10, seed=11)
        assert k == 2

    def test_three_blobs(self, rng):
        centers = [np.zeros(8), np.ones(8), np.full(8, 2.0)]
        pts = blob_instance(rng, centers, 4)
        k, _ = select_k(pts, 10, seed=11)
        assert k == 3

    def test_identical_points_rejected(self):
        pts = np.zeros((5, 8))
        with pytest.raises(ValueError):
            select_k(pts, 10, seed=1)

    def test_one_kmeans_call_per_k(self, rng, monkeypatch):
        calls = []
        kmeans_restarts = locality.kmeans

        def counting_kmeans(points, k, seed):
            calls.append(k)
            return kmeans_restarts(points, k, seed)

        monkeypatch.setattr(locality, "kmeans", counting_kmeans)
        pts = blob_instance(rng, [np.zeros(8), np.ones(8)], 6)
        select_k(pts, 10, seed=11)
        assert calls == list(range(2, 11))

    def test_matches_exhaustive_evaluation(self, rng):
        for trial in range(10):
            pts = blob_instance(rng, [np.zeros(8), np.ones(8)], 5)
            k_star, result = select_k(pts, 6, seed=trial)

            best_k, best_index = None, -np.inf
            for k in range(2, min(6, np.unique(pts, axis=0).shape[0]) + 1):
                r = kmeans(pts, k, derive_seed(trial, k))
                index = dunn_index(pts, r.assignments, r.centroids)
                if index > best_index:
                    best_k, best_index = k, index
            assert k_star == best_k


class TestAssign:
    def test_factor_scheme_uses_merge_rule(self):
        projects = []
        for i, level in enumerate((1, 3, 5, 4, 2, 3)):
            env = [3] * 8
            env[3] = level
            projects.append(make_project(f"p{i}", env=tuple(env)))
        part = partition_by_factor(make_dataset(projects), 4)
        env = [3] * 8
        env[3] = 5
        new = make_project("new", env=tuple(env))
        assert assign(new, part) == "L45"

    def test_missing_label_signals_fallback(self):
        d = make_dataset([make_project(f"p{i}") for i in range(4)])  # all L3
        part = partition_by_factor(d, 1)
        env = [3] * 8
        env[0] = 5
        new = make_project("new", env=tuple(env))
        label = assign(new, part)
        assert label == "L45"
        assert label not in part.partitions

    def test_kmeans_nearest_centroid(self):
        projects = []
        for i in range(6):
            env = [1] * 8 if i < 3 else [5] * 8
            projects.append(make_project(f"p{i}", env=tuple(env)))
        part = partition_by_kmeans(make_dataset(projects), seed=2, k_max=2)
        assert part.k == 2
        low = make_project("low", env=(1,) * 8)
        high = make_project("high", env=(5,) * 8)
        assert assign(low, part) != assign(high, part)
        got = assign(low, part)
        assert "p0" in part.partitions[got]

    def test_equidistant_goes_to_lowest_index(self):
        from ucp_locality.preprocess import minmax_fit

        scaler = minmax_fit(np.array([[0.0] * 8, [5.0] * 8]))
        # a project scored all-ones normalizes to 0.2 per factor, exactly
        # between these two centroids
        part = Partitioning(
            scheme="kmeans",
            partitions={"c0": ("a",), "c1": ("b",)},
            k=2,
            centroids=np.array([[0.25] * 8, [0.15] * 8]),
            env_scaler=scaler,
        )
        mid = make_project("mid", env=(1,) * 8)
        assert assign(mid, part) == "c0"

    def test_project_at_centroid(self):
        from ucp_locality.preprocess import minmax_fit

        scaler = minmax_fit(np.array([[0.0] * 8, [5.0] * 8]))
        part = Partitioning(
            scheme="kmeans",
            partitions={"c0": ("a",), "c1": ("b",)},
            k=2,
            centroids=np.array([[0.2] * 8, [0.9] * 8]),
            env_scaler=scaler,
        )
        on_centroid = make_project("x", env=(1,) * 8)   # scales to 0.2
        assert assign(on_centroid, part) == "c0"


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)
        assert derive_seed(1, 42) != derive_seed(42, 1)
