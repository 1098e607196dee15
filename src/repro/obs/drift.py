"""Model-drift monitors: displacement, neighbourhood churn, stability.

Consecutive DarkVec models of the same darknet are only comparable
once the arbitrary rotation between two Word2Vec solutions is removed,
so every monitor here works on the *retained* senders — tokens present
in both models — and, where geometry matters, aligns the spaces first
(orthogonal Procrustes, :mod:`repro.transfer.align`).  Three views,
from fine to coarse:

* **embedding drift** — per-sender cosine displacement after
  alignment (mean / median / p95 / max);
* **neighbourhood churn** — how much each sender's k-NN set changed
  (``1 - Jaccard``), which is rotation-invariant by construction and
  closest to what the paper's k-NN classifier actually consumes;
* **cluster stability** — Rand/AMI agreement between Louvain
  partitions of the retained-sender subgraphs.

All monitors are read-only over the two embeddings and use their own
seeded RNG (Louvain), so running them never perturbs the pipeline's
random streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import at runtime would cycle obs -> w2v -> obs
    from repro.w2v.keyedvectors import KeyedVectors


@dataclass
class DriftReport:
    """Cosine-displacement summary of retained senders.

    Attributes:
        n_shared: tokens present in both models.
        aligned: whether a Procrustes rotation was fitted (False when
            the shared set was smaller than the vector size).
        mean / median / p95 / max: displacement statistics, or None
            when no tokens are shared.
    """

    n_shared: int
    aligned: bool
    mean: float | None
    median: float | None
    p95: float | None
    max: float | None

    def to_dict(self) -> dict:
        """Plain-dict form for run records."""
        return {
            "n_shared": self.n_shared,
            "aligned": self.aligned,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "max": self.max,
        }


def embedding_drift(
    previous: KeyedVectors, current: KeyedVectors
) -> DriftReport:
    """Aligned cosine displacement of the senders both models retain.

    Procrustes-aligns the previous model onto the current one on their
    shared tokens, then summarises the per-token cosine distances.  An
    empty intersection yields a report with None statistics.
    """
    # Local import: keeps scipy (the Procrustes solver) off the obs
    # package's import path for runs that never compute drift.
    from repro.transfer.align import aligned_displacement

    tokens, displacement, aligned = aligned_displacement(previous, current)
    if len(tokens) == 0:
        return DriftReport(
            n_shared=0, aligned=False, mean=None, median=None, p95=None, max=None
        )
    return DriftReport(
        n_shared=int(len(tokens)),
        aligned=aligned,
        mean=float(displacement.mean()),
        median=float(np.median(displacement)),
        p95=float(np.percentile(displacement, 95)),
        max=float(displacement.max()),
    )


def neighborhood_churn(
    previous: KeyedVectors,
    current: KeyedVectors,
    k: int = 5,
    workers: int = 1,
    spec=None,
) -> float | None:
    """Mean k-NN set churn (``1 - Jaccard``) over retained senders.

    Both neighbour searches run on the shared-token subsets, so the
    node universe is identical on the two sides and the measure is
    invariant to rotation and to senders entering or leaving the
    model.  ``workers`` parallelises the two searches and ``spec`` (an
    :class:`~repro.ann.base.AnnSpec`) selects their backend.  Returns
    None when fewer than ``k + 1`` tokens are shared (no neighbourhood
    to compare).
    """
    from repro.knn.classifier import knn_search
    from repro.transfer.align import shared_tokens
    from repro.w2v.mathutils import unit_rows

    if k < 1:
        raise ValueError("k must be positive")
    tokens = shared_tokens(previous, current)
    if len(tokens) < k + 1:
        return None
    rows = np.arange(len(tokens))
    overlaps = np.zeros(len(tokens))
    neighbor_sets = []
    for model in (previous, current):
        units = unit_rows(model.vectors[model.rows_of(tokens)])
        neighbors, _ = knn_search(
            units, rows, k, exclude_self=True, workers=workers, spec=spec
        )
        neighbor_sets.append(neighbors)
    for i in rows:
        a = set(neighbor_sets[0][i].tolist())
        b = set(neighbor_sets[1][i].tolist())
        overlaps[i] = len(a & b) / len(a | b)
    return float(1.0 - overlaps.mean())


def cluster_stability(
    previous: KeyedVectors,
    current: KeyedVectors,
    k_prime: int = 3,
    seed: int = 1,
) -> tuple[float, float] | None:
    """(ARI, AMI) between Louvain partitions of the retained senders.

    Each model's shared-token subset is clustered independently
    (k'-NN graph + Louvain, both with the given ``seed``) and the two
    partitions are compared.  Returns None when fewer than
    ``k_prime + 2`` tokens are shared — too few nodes for a
    meaningful partition.
    """
    from repro.graph import (
        adjusted_mutual_info,
        adjusted_rand_index,
        build_knn_graph,
        louvain_communities,
    )
    from repro.transfer.align import shared_tokens

    tokens = shared_tokens(previous, current)
    if len(tokens) < k_prime + 2:
        return None
    partitions = []
    for model in (previous, current):
        vectors = model.vectors[model.rows_of(tokens)]
        graph = build_knn_graph(vectors, k_prime=k_prime)
        partitions.append(louvain_communities(graph.symmetric_csr(), seed=seed))
    ari = adjusted_rand_index(partitions[0], partitions[1])
    ami = adjusted_mutual_info(partitions[0], partitions[1])
    return float(ari), float(ami)
