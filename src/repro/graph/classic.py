"""Classic clustering algorithms on the raw embedding (Section 7.1).

The paper reports that k-Means, DBSCAN and hierarchical agglomerative
clustering "produce poor results due to the well-known curse of
dimensionality as well as their difficult parameter tuning", which is
why DarkVec clusters on the k'-NN graph instead.  These from-scratch
implementations (spherical k-Means, cosine DBSCAN, average-linkage
agglomerative via scipy) let the benchmark measure that claim.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.w2v.mathutils import unit_rows

_CHUNK = 1024


def cosine_kmeans(
    vectors: np.ndarray,
    n_clusters: int,
    seed: int | np.random.Generator | None = 0,
    max_iterations: int = 100,
) -> np.ndarray:
    """Spherical k-Means: k-Means on the unit sphere (cosine metric).

    Centroids are re-normalised each iteration; assignment maximises
    the cosine similarity.  Initialisation is k-means++-style on cosine
    distance.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be positive")
    units = unit_rows(np.asarray(vectors))
    n = len(units)
    if n_clusters > n:
        raise ValueError("more clusters than points")
    rng = make_rng(seed)

    # k-means++ seeding.
    centroids = np.empty((n_clusters, units.shape[1]))
    centroids[0] = units[rng.integers(n)]
    closest = 1.0 - units @ centroids[0]
    for i in range(1, n_clusters):
        probs = np.maximum(closest, 0.0)
        total = probs.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=probs / total))
        centroids[i] = units[pick]
        closest = np.minimum(closest, 1.0 - units @ centroids[i])

    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        scores = units @ centroids.T
        new_assignment = scores.argmax(axis=1)
        if np.array_equal(new_assignment, assignment) and _ > 0:
            break
        assignment = new_assignment
        for c in range(n_clusters):
            members = units[assignment == c]
            if len(members):
                centroid = members.sum(axis=0)
                norm = np.linalg.norm(centroid)
                if norm > 0:
                    centroids[c] = centroid / norm
            else:
                # Re-seed an empty cluster on the farthest point.
                farthest = int((1.0 - scores.max(axis=1)).argmax())
                centroids[c] = units[farthest]
    return assignment


def cosine_dbscan(
    vectors: np.ndarray,
    eps: float = 0.1,
    min_samples: int = 5,
) -> np.ndarray:
    """DBSCAN under cosine distance; noise points get label -1.

    Region queries are chunked matrix products (no spatial index is
    useful for cosine in 50 dimensions, which is part of the paper's
    point about these methods).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be positive")
    units = unit_rows(np.asarray(vectors))
    n = len(units)
    threshold = 1.0 - eps  # similarity threshold

    # Precompute neighbour lists chunk by chunk.
    neighbors: list[np.ndarray] = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        sims = units[lo:hi] @ units.T
        for row in sims:
            neighbors.append(np.flatnonzero(row >= threshold))
    core = np.array([len(nbrs) >= min_samples for nbrs in neighbors])

    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for point in range(n):
        if labels[point] != -1 or not core[point]:
            continue
        # BFS over density-connected core points.
        labels[point] = cluster
        frontier = [point]
        while frontier:
            current = frontier.pop()
            for neighbor in neighbors[current]:
                if labels[neighbor] == -1:
                    labels[neighbor] = cluster
                    if core[neighbor]:
                        frontier.append(int(neighbor))
        cluster += 1
    return labels


def cosine_agglomerative(
    vectors: np.ndarray,
    n_clusters: int,
    method: str = "average",
) -> np.ndarray:
    """Average-linkage hierarchical clustering on cosine distance.

    Uses scipy's linkage on the condensed distance matrix; quadratic
    memory, which is why the paper (and this reproduction) only applies
    it to moderate population sizes.
    """
    # scipy loads here, not with the package: the serving path imports
    # this module and never clusters this way.
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    if n_clusters < 1:
        raise ValueError("n_clusters must be positive")
    units = unit_rows(np.asarray(vectors))
    n = len(units)
    if n_clusters > n:
        raise ValueError("more clusters than points")
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    distances = np.clip(1.0 - units @ units.T, 0.0, 2.0)
    np.fill_diagonal(distances, 0.0)
    condensed = squareform(distances, checks=False)
    tree = linkage(condensed, method=method)
    labels = fcluster(tree, t=n_clusters, criterion="maxclust")
    return (labels - 1).astype(np.int64)
