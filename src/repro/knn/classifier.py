"""Cosine k-nearest-neighbour search and majority-vote classification.

The search itself lives in :mod:`repro.ann`: :func:`knn_search` builds
the backend an :class:`~repro.ann.base.AnnSpec` asks for (brute force
by default, IVF when configured) and queries it.  Callers that search
the same vectors repeatedly should build one index via
:func:`repro.ann.build_index` — or one :class:`CosineKnn`, whose
:meth:`~CosineKnn.predict_rows` takes labels and mean neighbour
distances from a single k-NN pass.  Nothing is cached between calls.
"""

from __future__ import annotations

import numpy as np

from repro.ann.base import AnnSpec, NeighborIndex, build_index
from repro.w2v.mathutils import unit_rows


def knn_search(
    units: np.ndarray,
    query_rows: np.ndarray,
    k: int,
    exclude_self: bool = True,
    workers: int = 1,
    spec: AnnSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest rows (by cosine) for each query row.

    Args:
        units: row-normalised embedding matrix, shape (N, V).
        query_rows: indices of the rows to query.
        k: neighbours per query.
        exclude_self: drop the query row from its own neighbour list.
        workers: query chunks dispatched to a thread pool (0 = all
            cores); see :meth:`repro.ann.base.NeighborIndex.search` for
            what it can change.
        spec: backend selection; None means exact brute force.

    Returns:
        ``(neighbors, similarities)`` of shape (Q, k); neighbours are
        sorted by decreasing similarity.
    """
    index = build_index(units, spec=spec, workers=workers)
    return index.search(query_rows, k, exclude_self=exclude_self, workers=workers)


class CosineKnn:
    """Majority-vote k-NN classifier in an embedding space.

    The classifier predicts the label of each query point from the
    labels of its ``k`` nearest neighbours (cosine similarity), breaking
    ties by the summed similarity of the tied labels — a deterministic
    refinement of the paper's majority vote.  ``workers`` parallelises
    the neighbour search without changing any result.

    :meth:`predict_rows` searches its rows once per call and keeps no
    state between calls, so one classifier can serve many threads.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        labels: np.ndarray,
        k: int = 7,
        workers: int = 1,
        spec: AnnSpec | None = None,
        index: NeighborIndex | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if index is not None:
            if len(index.units) != len(labels):
                raise ValueError("index and labels must align")
            self.index = index
        else:
            if len(vectors) != len(labels):
                raise ValueError("vectors and labels must align")
            self.index = build_index(
                unit_rows(np.asarray(vectors)), spec=spec, workers=workers
            )
        self.labels = np.asarray(labels, dtype=object)
        self.k = k
        self.workers = workers
        # Label-encode once: np.unique over an object array is an
        # O(N log N) python-comparison sort, far too slow to repeat
        # per query when the classifier serves point lookups — and at
        # serving scale too slow even once per snapshot promotion.
        # Hash-dedupe first: darknet label sets are tiny, so sorting
        # the distinct labels and mapping codes through a dict is O(N)
        # hashes, ~5x faster, and yields the identical sorted classes
        # and inverse codes.
        labels_list = self.labels.tolist()
        classes = sorted(set(labels_list))
        lut = {label: code for code, label in enumerate(classes)}
        self._unique_labels = np.asarray(classes, dtype=object)
        self._codes = np.fromiter(
            (lut[label] for label in labels_list),
            dtype=np.intp,
            count=len(labels_list),
        )

    def predict_rows(
        self, query_rows: np.ndarray, exclude_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted label and mean cosine *distance* (1 - similarity)
        to the k neighbours of each given row, from one search."""
        neighbors, sims = self.index.search(
            np.asarray(query_rows, dtype=np.int64),
            self.k,
            exclude_self=exclude_self,
            workers=self.workers,
        )
        labels = vote_encoded(self._unique_labels, self._codes, neighbors, sims)
        # sum / k is what sims.mean(axis=1) computes, bit for bit,
        # without mean's per-call overhead on a one-row search.
        return labels, 1.0 - sims.sum(axis=1) / sims.shape[1]


def majority_vote(
    labels: np.ndarray, neighbors: np.ndarray, similarities: np.ndarray
) -> np.ndarray:
    """Label of the majority of each row's neighbours.

    Ties break on the larger summed similarity, then lexicographically,
    so results are reproducible.  Implemented as label-encoded bincounts
    over the flattened (Q, k) neighbour matrix: per (row, label) cell,
    vote counts and similarity sums accumulate in the same left-to-right
    neighbour order as a per-row loop would, so the result (including
    float-exact tie behaviour) matches the naive implementation.
    """
    labels = np.asarray(labels, dtype=object)
    unique_labels, codes = np.unique(labels, return_inverse=True)
    return vote_encoded(unique_labels, codes, neighbors, similarities)


def vote_encoded(
    unique_labels: np.ndarray,
    codes: np.ndarray,
    neighbors: np.ndarray,
    similarities: np.ndarray,
) -> np.ndarray:
    """:func:`majority_vote` over pre-encoded labels.

    ``codes`` maps each row to its index in the sorted ``unique_labels``
    (the ``np.unique(..., return_inverse=True)`` pair).  Encoding once
    and voting many times is what keeps per-query classification O(k)
    in the serving read path instead of O(N) label comparisons.
    """
    n_queries = len(neighbors)
    predictions = np.empty(n_queries, dtype=object)
    if n_queries == 0:
        return predictions
    n_labels = len(unique_labels)
    neighbor_codes = codes[np.asarray(neighbors)]  # (Q, k)
    cells = (
        np.arange(n_queries)[:, None] * n_labels + neighbor_codes
    ).ravel()
    votes = np.bincount(cells, minlength=n_queries * n_labels).reshape(
        n_queries, n_labels
    )
    weights = np.bincount(
        cells,
        weights=np.asarray(similarities, dtype=np.float64).ravel(),
        minlength=n_queries * n_labels,
    ).reshape(n_queries, n_labels)
    best_votes = votes.max(axis=1, keepdims=True)
    tied_weights = np.where(votes == best_votes, weights, -np.inf)
    best_weights = tied_weights.max(axis=1, keepdims=True)
    tied = tied_weights == best_weights
    # unique_labels is sorted, so the *last* tied column is the
    # lexicographically largest label — matching max()'s tie-break.
    winner = n_labels - 1 - np.argmax(tied[:, ::-1], axis=1)
    predictions[:] = unique_labels[winner]
    return predictions
