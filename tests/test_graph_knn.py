"""Tests for repro.graph.knn_graph."""

import numpy as np
import pytest

from repro.graph.knn_graph import KnnGraph, build_knn_graph


@pytest.fixture()
def clustered_vectors():
    rng = np.random.default_rng(1)
    a = np.array([1.0, 0.0]) + rng.normal(0, 0.02, size=(8, 2))
    b = np.array([0.0, 1.0]) + rng.normal(0, 0.02, size=(8, 2))
    return np.vstack([a, b])


class TestBuildKnnGraph:
    def test_edge_count(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=3)
        assert graph.n_nodes == 16
        assert graph.n_edges == 16 * 3

    def test_no_self_loops(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=3)
        assert (graph.sources != graph.targets).all()

    def test_edges_stay_within_clusters(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=3)
        same_side = (graph.sources < 8) == (graph.targets < 8)
        assert same_side.all()

    def test_weights_nonnegative(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=3)
        assert (graph.weights >= 0).all()
        assert graph.weights.max() <= 1.0 + 1e-6

    def test_invalid_k(self, clustered_vectors):
        with pytest.raises(ValueError):
            build_knn_graph(clustered_vectors, k_prime=0)


class TestSymmetricAdjacency:
    """``symmetric_csr``: the undirected graph Louvain consumes."""

    @staticmethod
    def _rows(graph):
        indptr, indices, weights = graph.symmetric_csr()
        return [
            dict(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()))
            for lo, hi in zip(indptr[:-1], indptr[1:])
        ]

    def test_symmetry(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=3)
        adjacency = self._rows(graph)
        for u, neighbors in enumerate(adjacency):
            for v, w in neighbors.items():
                assert adjacency[v][u] == pytest.approx(w)

    def test_mutual_edges_double_weight(self):
        graph = KnnGraph(
            n_nodes=2,
            sources=np.array([0, 1]),
            targets=np.array([1, 0]),
            weights=np.array([0.5, 0.5]),
        )
        adjacency = self._rows(graph)
        assert adjacency[0][1] == pytest.approx(1.0)

    def test_self_loop_dropped(self):
        graph = KnnGraph(
            n_nodes=1,
            sources=np.array([0]),
            targets=np.array([0]),
            weights=np.array([1.0]),
        )
        assert self._rows(graph) == [{}]


class TestNetworkxExport:
    def test_digraph_matches(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, k_prime=2)
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 16
        assert nx_graph.number_of_edges() <= 32  # parallel edges merge

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            KnnGraph(
                n_nodes=1,
                sources=np.array([0]),
                targets=np.array([5]),
                weights=np.array([1.0]),
            )
