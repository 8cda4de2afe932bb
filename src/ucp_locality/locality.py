"""Partitioning a dataset into local datasets, either by merged influence
levels of one environmental factor or by k-means over all eight factors
with Dunn-index selection of k."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import FACTOR_MAX, FACTOR_MIN, Dataset, Project
from .preprocess import ScalerParams, minmax_apply, minmax_fit

KMEANS_MAX_ITER = 300
# k-means runs per k (best final inertia kept) and the range of k tried
KMEANS_RESTARTS = 8
KMEANS_K_MIN = 2
KMEANS_K_MAX = 10


class MergedLevel(enum.IntEnum):
    """Three-way merge of the six raw influence levels."""

    L12 = 0   # scores 0, 1, 2
    L3 = 1    # score 3
    L45 = 2   # scores 4, 5

    @property
    def label(self) -> str:
        return self.name


def merge_level(score: int) -> MergedLevel:
    """Map a raw 0..5 score onto the merged level (low boundary levels are
    pooled; 3 stays alone; 4 and 5 are pooled)."""
    if not FACTOR_MIN <= score <= FACTOR_MAX:
        raise ValueError(f"score must be in 0..5, got {score}")
    if score <= 2:
        return MergedLevel.L12
    if score == 3:
        return MergedLevel.L3
    return MergedLevel.L45


def derive_seed(*parts: int) -> int:
    """Stable derived seed from integer parts (for per-k and per-fold runs)."""
    state = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(state.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Partitioning:
    """Labeled, disjoint member-id sets covering the input dataset.

    Factor partitionings carry merged-level labels; k-means partitionings
    additionally carry the chosen k, the centroids in normalized factor
    space and the scaler that maps raw scores into that space.
    """

    scheme: str
    partitions: dict[str, tuple[str, ...]]
    k: int | None = None
    centroids: np.ndarray | None = None
    env_scaler: ScalerParams | None = None

    def __post_init__(self):
        seen: set[str] = set()
        for label, members in self.partitions.items():
            if not members:
                raise ValueError(f"partition {label!r} is empty")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"ids in multiple partitions: {sorted(overlap)}")
            seen.update(members)


def partition_by_factor(dataset: Dataset, factor_index: int) -> Partitioning:
    """Split by the merged influence level of one factor.  Empty merged
    levels are omitted, so there are at most three partitions."""
    if not 1 <= factor_index <= 8:
        raise ValueError(f"factor index must be in 1..8, got {factor_index}")
    if len(dataset) == 0:
        raise ValueError("cannot partition an empty dataset")
    buckets: dict[str, list[str]] = {}
    for p in dataset:
        label = merge_level(p.factor(factor_index)).label
        buckets.setdefault(label, []).append(p.id)
    ordered = {lvl.label: tuple(buckets[lvl.label])
               for lvl in MergedLevel if lvl.label in buckets}
    return Partitioning(scheme=f"e{factor_index}", partitions=ordered)


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    n_iter: int
    inertia_history: tuple[float, ...]


def _repopulate(points: np.ndarray, dists: np.ndarray,
                assignments: np.ndarray, centroids: np.ndarray) -> None:
    """Give every empty cluster a point, in place: its centroid is re-seeded
    from the point currently farthest from its own centroid.  A reseed can
    empty the donor cluster, so rescan until stable; this terminates because
    k never exceeds the number of distinct points."""
    n, k = dists.shape
    for _ in range(n + 1):
        empty = [c for c in range(k) if not np.any(assignments == c)]
        if not empty:
            return
        for cluster in empty:
            farthest = int(np.argmax(dists[np.arange(n), assignments]))
            assignments[farthest] = cluster
            centroids[cluster] = points[farthest]
            dists[:, cluster] = np.linalg.norm(points - centroids[cluster], axis=1)
    raise RuntimeError("could not repopulate empty clusters")


def _cluster_means(points: np.ndarray, assignments: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """(runs, k, d) centroids: each cluster's members, gathered in point
    order into a (runs, k, max members, d) array padded with -0.0, summed
    over members and divided by the counts.  -0.0 is the exact additive
    identity, so every mean equals `points[assignments == c].mean(axis=0)`
    bit for bit."""
    runs, n = assignments.shape
    run = np.arange(runs)[:, None]
    order = np.argsort(assignments, axis=1, kind="stable")
    labels = assignments[run, order]
    first = np.cumsum(counts, axis=1) - counts
    members = np.full((runs, counts.shape[1], int(counts.max()),
                       points.shape[1]), -0.0)
    members[run, labels, np.arange(n) - first[run, labels]] = points[order]
    return members.sum(axis=2) / counts[:, :, None]


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Best of `KMEANS_RESTARTS` Lloyd runs with Euclidean distance: the run
    with the lowest final inertia, the first winning ties.

    Run r starts its centroids at k distinct points chosen by a generator
    seeded with `derive_seed(seed, r)`, and stops at an assignment fixpoint
    or after 300 iterations.  If a cluster empties, its centroid is
    re-seeded from the point currently farthest from its own centroid
    (which keeps the objective non-increasing).

    The runs iterate in lockstep over a (runs, k, d) centroid stack, and a
    run leaves the stack at its fixpoint.  Distances, assignments, means
    and inertia are computed for all live runs at once, each with the
    arithmetic a lone run would use, so the result equals running the
    restarts one at a time bit for bit; only the rare reseed is done run by
    run.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    unique = np.unique(points, axis=0)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > unique.shape[0]:
        raise ValueError(
            f"k={k} exceeds the {unique.shape[0]} distinct points")

    centroids = np.stack([
        unique[np.random.default_rng(derive_seed(seed, r)).choice(
            unique.shape[0], size=k, replace=False)]
        for r in range(KMEANS_RESTARTS)])
    assignments = np.full((KMEANS_RESTARTS, points.shape[0]), -1)
    history: list[list[float]] = [[] for _ in range(KMEANS_RESTARTS)]
    live = np.arange(KMEANS_RESTARTS)
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        current = centroids[live]
        # np.linalg.norm(diffs, axis=3), squaring in place so that only one
        # (runs, n, k, d) temporary is live
        diffs = points[None, :, None] - current[:, None]
        dists = np.sqrt(np.add.reduce(np.multiply(diffs, diffs, out=diffs), axis=3))
        new_assignments = np.argmin(dists, axis=2)
        counts = (new_assignments[:, :, None] == np.arange(k)).sum(axis=1)
        for j in np.nonzero(np.any(counts == 0, axis=1))[0]:
            _repopulate(points, dists[j], new_assignments[j], current[j])
            counts[j] = np.bincount(new_assignments[j], minlength=k)

        converged = np.all(new_assignments == assignments[live], axis=1)
        assignments[live] = new_assignments
        current = _cluster_means(points, new_assignments, counts)
        centroids[live] = current
        diffs = points - current[np.arange(live.size)[:, None], new_assignments]
        inertia = np.sum(diffs * diffs, axis=(1, 2))
        for r, value in zip(live, inertia):
            history[r].append(float(value))
        live = live[~converged]
        if not live.size:
            break
    final = [h[-1] for h in history]
    best = final.index(min(final))
    return KMeansResult(assignments=assignments[best].copy(),
                        centroids=centroids[best].copy(),
                        n_iter=len(history[best]),
                        inertia_history=tuple(history[best]))


def dunn_index(points: np.ndarray, assignments: np.ndarray,
               centroids: np.ndarray) -> float:
    """Minimum pairwise centroid distance over maximum intra-cluster
    point-to-point diameter.  All-singleton clusterings (zero diameter)
    give +inf unless two centroids coincide."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    k = centroids.shape[0]
    if k < 2:
        raise ValueError("Dunn index needs at least 2 clusters")
    for cluster in range(k):
        if not np.any(assignments == cluster):
            raise ValueError(f"cluster {cluster} is empty")

    gaps = [float(np.linalg.norm(centroids[a] - centroids[b]))
            for a in range(k) for b in range(a + 1, k)]
    min_gap = min(gaps)

    max_diameter = 0.0
    for cluster in range(k):
        members = points[assignments == cluster]
        if members.shape[0] < 2:
            continue
        diffs = members[:, None, :] - members[None, :, :]
        diameter = float(np.sqrt((diffs * diffs).sum(axis=2)).max())
        max_diameter = max(max_diameter, diameter)

    if max_diameter == 0.0:
        return 0.0 if min_gap == 0.0 else float("inf")
    return min_gap / max_diameter


def select_k(points: np.ndarray, k_min: int, k_max: int,
             seed: int) -> tuple[int, KMeansResult]:
    """Run k-means for each k in [k_min, k_max] (fresh derived seed per k,
    several restarts against bad local optima) and keep the k with the
    largest Dunn index, ties toward smaller k."""
    points = np.asarray(points, dtype=float)
    n_distinct = np.unique(points, axis=0).shape[0]
    if n_distinct < 2:
        raise ValueError("need at least 2 distinct points to cluster")
    if k_min < 2 or k_max < k_min:
        raise ValueError(f"invalid k range [{k_min}, {k_max}]")
    k_max = min(k_max, n_distinct)
    if k_max < k_min:
        raise ValueError(
            f"only {n_distinct} distinct points, cannot use k >= {k_min}")

    best_k = None
    best_result = None
    best_index = -float("inf")
    for k in range(k_min, k_max + 1):
        result = kmeans(points, k, derive_seed(seed, k))
        index = dunn_index(points, result.assignments, result.centroids)
        if index > best_index:
            best_k, best_result, best_index = k, result, index
    assert best_k is not None and best_result is not None
    return best_k, best_result


def partition_by_kmeans(dataset: Dataset, k_min: int = KMEANS_K_MIN,
                        k_max: int = KMEANS_K_MAX,
                        seed: int = 0) -> Partitioning:
    """Cluster the dataset on its eight min-max-normalized factor scores and
    label partitions c0..c(k-1).  A `k_max` below `k_min` is raised to it
    (the benchmark harness caps k at half the training size)."""
    if len(dataset) == 0:
        raise ValueError("cannot partition an empty dataset")
    env = dataset.env_matrix()
    scaler = minmax_fit(env)
    normalized = minmax_apply(scaler, env)
    k_max = max(k_max, k_min)
    k, result = select_k(normalized, k_min, k_max, seed)

    ids = dataset.ids()
    partitions = {
        f"c{cluster}": tuple(ids[i] for i in range(len(dataset))
                             if result.assignments[i] == cluster)
        for cluster in range(k)
    }
    return Partitioning(scheme="kmeans", partitions=partitions, k=k,
                        centroids=result.centroids, env_scaler=scaler)


def assign(project: Project, partitioning: Partitioning) -> str:
    """Partition label for a project that was not part of the build.

    Factor partitionings map through merge_level; the label may be absent
    from the partitioning when that merged level was empty (callers fall
    back to the full training set).  K-means partitionings assign to the
    nearest centroid, ties to the lowest cluster index.
    """
    if partitioning.centroids is not None:
        assert partitioning.env_scaler is not None
        x = minmax_apply(partitioning.env_scaler,
                         np.array(project.env, dtype=float))
        dists = np.linalg.norm(partitioning.centroids - x, axis=1)
        return f"c{int(np.argmin(dists))}"
    factor_index = int(partitioning.scheme.lstrip("e"))
    return merge_level(project.factor(factor_index)).label
