"""Transfer metrics: structure preservation and task transfer."""

from __future__ import annotations

import numpy as np

from repro.graph.knn_graph import build_knn_graph
from repro.graph.louvain import louvain_communities
from repro.knn.classifier import knn_search, majority_vote
from repro.knn.report import ClassificationReport, classification_report
from repro.transfer.align import shared_tokens
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.mathutils import unit_rows


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Adjusted Rand Index between two partitions of the same items.

    1.0 means identical partitions, ~0 means chance-level agreement.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if len(labels_a) != len(labels_b):
        raise ValueError("partitions must cover the same items")
    n = len(labels_a)
    if n < 2:
        return 1.0
    _, a_idx = np.unique(labels_a, return_inverse=True)
    _, b_idx = np.unique(labels_b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = comb2(np.int64(n))
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def partition_agreement(
    embedding_a: KeyedVectors,
    embedding_b: KeyedVectors,
    k_prime: int = 3,
    seed: int = 0,
) -> float:
    """Cluster-level structure transfer between two embeddings.

    Louvain partitions the *shared* senders independently in each
    space; the ARI of the two partitions measures whether both
    embeddings discover the same coordinated groups.  Robust to the
    within-cluster neighbour shuffling that makes raw k-NN overlap
    pessimistic.
    """
    common = shared_tokens(embedding_a, embedding_b)
    if len(common) < 10:
        raise ValueError("not enough shared senders")

    def communities_of(embedding):
        vectors = embedding.vectors[embedding.rows_of(common)]
        graph = build_knn_graph(vectors, k_prime=k_prime)
        return louvain_communities(graph.symmetric_csr(), seed=seed)

    return adjusted_rand_index(
        communities_of(embedding_a), communities_of(embedding_b)
    )


def neighborhood_overlap(
    embedding_a: KeyedVectors,
    embedding_b: KeyedVectors,
    k: int = 7,
    workers: int = 1,
    spec=None,
) -> float:
    """Mean Jaccard overlap of k-NN sets over the shared senders.

    Rotation-invariant (neighbourhoods only depend on cosine geometry
    within each space), so no alignment is needed.  1.0 means both
    embeddings organise the shared senders identically; values near
    ``k / n`` mean no common structure.  ``workers`` parallelises the
    two searches and ``spec`` (an :class:`~repro.ann.base.AnnSpec`)
    selects their backend.
    """
    common = shared_tokens(embedding_a, embedding_b)
    if len(common) < k + 2:
        raise ValueError("not enough shared senders for the overlap metric")
    units_a = unit_rows(embedding_a.vectors[embedding_a.rows_of(common)])
    units_b = unit_rows(embedding_b.vectors[embedding_b.rows_of(common)])
    rows = np.arange(len(common))
    neighbors_a, _ = knn_search(units_a, rows, k, workers=workers, spec=spec)
    neighbors_b, _ = knn_search(units_b, rows, k, workers=workers, spec=spec)
    overlaps = []
    for row_a, row_b in zip(neighbors_a, neighbors_b):
        set_a, set_b = set(row_a.tolist()), set(row_b.tolist())
        overlaps.append(len(set_a & set_b) / len(set_a | set_b))
    return float(np.mean(overlaps))


def cross_embedding_report(
    reference: KeyedVectors,
    query: KeyedVectors,
    labels_of_token: dict[int, str],
    query_tokens: np.ndarray,
    k: int = 7,
) -> ClassificationReport:
    """Classify ``query`` senders against a *reference* embedding.

    This is the §8 task-transfer experiment: the reference embedding
    (and its labelled senders) come from one darknet or time window;
    the query vectors come from another.  The query embedding must
    already be aligned into the reference coordinate system (see
    :func:`repro.transfer.align.orthogonal_alignment`).

    Query tokens that also exist in the reference are excluded from
    their own neighbourhoods by matching token identity.
    """
    query_tokens = np.asarray(query_tokens, dtype=np.int64)
    query_rows = query.rows_of(query_tokens)
    if (query_rows < 0).any():
        raise ValueError("every query token must be in the query embedding")
    reference_labels = np.array(
        [labels_of_token.get(int(t), "Unknown") for t in reference.tokens],
        dtype=object,
    )
    ref_units = unit_rows(reference.vectors)
    query_units = unit_rows(query.vectors[query_rows])

    scores = query_units @ ref_units.T  # (Q, R)
    # Exclude self-matches (same sender in both embeddings).
    ref_positions = reference.rows_of(query_tokens)
    has_self = ref_positions >= 0
    scores[np.flatnonzero(has_self), ref_positions[has_self]] = -np.inf

    top = np.argpartition(scores, -k, axis=1)[:, -k:]
    top_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(top_scores, axis=1)[:, ::-1]
    neighbors = np.take_along_axis(top, order, axis=1)
    similarities = np.take_along_axis(top_scores, order, axis=1)

    predictions = majority_vote(reference_labels, neighbors, similarities)
    true_labels = np.array(
        [labels_of_token.get(int(t), "Unknown") for t in query_tokens],
        dtype=object,
    )
    return classification_report(true_labels, predictions)
