"""Directed k'-NN similarity graph over an embedding (Section 7.1).

Each embedded sender becomes a vertex connected to its k' nearest
neighbours; edge weights are cosine similarities.  The graph is directed
(neighbourhood is not symmetric); community detection symmetrises it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ann.base import AnnSpec, NeighborIndex, build_index
from repro.graph.louvain import Csr, symmetric_csr
from repro.w2v.mathutils import unit_rows


@dataclass
class KnnGraph:
    """Edge-list representation of the directed k'-NN graph.

    Attributes:
        n_nodes: number of vertices (= embedded senders).
        sources, targets: aligned edge endpoint arrays.
        weights: cosine similarity of each edge, clipped to >= 0.
    """

    n_nodes: int
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.sources) == len(self.targets) == len(self.weights)):
            raise ValueError("edge columns must align")
        if len(self.sources) and (
            self.sources.max() >= self.n_nodes or self.targets.max() >= self.n_nodes
        ):
            raise ValueError("edge endpoint out of range")

    @property
    def n_edges(self) -> int:
        return len(self.sources)

    def symmetric_csr(self) -> Csr:
        """CSR arrays of the symmetrised graph: ``w[i][j] = w_ij + w_ji``.

        Self-loops are dropped.  Returns ``(indptr, indices, weights)``
        with node ``i``'s neighbours at ``indices[indptr[i]:indptr[i+1]]``
        (sorted ascending) and the matching summed weights alongside:
        the input of :func:`~repro.graph.louvain.louvain_communities`
        and :func:`~repro.graph.modularity.modularity`.
        """
        return symmetric_csr(self.n_nodes, self.sources, self.targets, self.weights)

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (for validation/analysis)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.n_nodes))
        graph.add_weighted_edges_from(
            (int(u), int(v), float(w))
            for u, v, w in zip(self.sources, self.targets, self.weights)
        )
        return graph


def build_knn_graph(
    vectors: np.ndarray,
    k_prime: int = 3,
    workers: int = 1,
    spec: AnnSpec | None = None,
    index: NeighborIndex | None = None,
) -> KnnGraph:
    """Connect every embedded point to its ``k_prime`` nearest points.

    Cosine similarities can be negative; negative-weight edges would
    break modularity, so weights are clipped at zero (the edge remains,
    with zero influence).  ``workers`` parallelises the neighbour
    search; the graph is identical for every value.  ``spec`` selects
    the search backend; ``index`` reuses an already-built index over
    the same vectors (``vectors`` may then be None).
    """
    if k_prime < 1:
        raise ValueError("k_prime must be positive")
    if index is None:
        index = build_index(
            unit_rows(np.asarray(vectors)), spec=spec, workers=workers
        )
    n = len(index.units)
    all_rows = np.arange(n)
    with obs.span("graph.knn_graph", k_prime=k_prime, nodes=n) as sp:
        obs.set_gauge("graph.nodes", n)
        obs.add("graph.edges", n * k_prime)
        sp.set(items=n * k_prime, items_unit="edges")
        neighbors, sims = index.search(
            all_rows, k_prime, exclude_self=True, workers=workers
        )
    sources = np.repeat(all_rows, k_prime)
    targets = neighbors.reshape(-1)
    weights = np.clip(sims.reshape(-1), 0.0, None)
    return KnnGraph(n_nodes=n, sources=sources, targets=targets, weights=weights)
