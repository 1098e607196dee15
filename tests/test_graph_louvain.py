"""Tests for repro.graph.louvain and repro.graph.modularity.

The from-scratch Louvain is validated against networkx's reference
implementation on random graphs: partitions need not be identical, but
modularity must be comparable.

It is also checked against the dict-of-dicts implementation it
replaced, kept below as reference code: on the same graph, with each
row's neighbours in the same order, the CSR port must return the
identical partition and the same ``louvain.passes`` / ``louvain.moves``
counts, and its modularity must agree to 1e-12.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph.knn_graph import build_knn_graph
from repro.graph.louvain import _aggregate, louvain_communities, symmetric_csr
from repro.graph.modularity import modularity
from repro.utils.rng import make_rng

# ----------------------------------------------------------------------
# Reference: the dict-of-dicts Louvain and modularity, as they were
# before the port to CSR arrays.
# ----------------------------------------------------------------------


def _reference_louvain(adjacency, resolution=1.0, seed=0, min_gain=1e-9):
    rng = make_rng(seed)
    n = len(adjacency)
    if n == 0:
        return np.empty(0, dtype=np.int64)

    with obs.span("graph.louvain", nodes=n) as sp:
        membership = np.arange(n, dtype=np.int64)
        current = adjacency

        while True:
            obs.add("louvain.passes", 1)
            local, improved = _reference_one_level(
                current, resolution, rng, min_gain
            )
            membership = local[membership]
            if not improved or len(np.unique(local)) == len(current):
                break
            current = _reference_aggregate(current, local)
        _, contiguous = np.unique(membership, return_inverse=True)
        sp.set(items=n, items_unit="nodes")
    return contiguous.astype(np.int64)


def _reference_one_level(adjacency, resolution, rng, min_gain):
    n = len(adjacency)
    community = np.arange(n, dtype=np.int64)
    degree = np.array([sum(neigh.values()) for neigh in adjacency])
    community_degree = degree.astype(float).copy()
    two_m = degree.sum()
    if two_m == 0:
        return community, False

    any_move = False
    n_moves = 0
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n):
            u = int(u)
            own = int(community[u])
            links = {}
            for v, w in adjacency[u].items():
                if v == u:
                    continue
                c = int(community[v])
                links[c] = links.get(c, 0.0) + w

            community_degree[own] -= degree[u]
            base = links.get(own, 0.0) - resolution * community_degree[own] * degree[
                u
            ] / two_m
            best_community, best_gain = own, 0.0
            for c, w_in in links.items():
                if c == own:
                    continue
                gain = (
                    w_in
                    - resolution * community_degree[c] * degree[u] / two_m
                    - base
                )
                if gain > best_gain + min_gain or (
                    abs(gain - best_gain) <= min_gain
                    and best_community != own
                    and c < best_community
                ):
                    best_community, best_gain = c, gain
            community_degree[best_community] += degree[u]
            if best_community != own:
                community[u] = best_community
                moved = True
                any_move = True
                n_moves += 1

    obs.add("louvain.moves", n_moves)
    _, contiguous = np.unique(community, return_inverse=True)
    return contiguous.astype(np.int64), any_move


def _reference_aggregate(adjacency, community):
    n_communities = int(community.max()) + 1
    aggregated = [dict() for _ in range(n_communities)]
    for u, neigh in enumerate(adjacency):
        cu = int(community[u])
        for v, w in neigh.items():
            cv = int(community[v])
            if u == v:
                aggregated[cu][cu] = aggregated[cu].get(cu, 0.0) + w
            else:
                aggregated[cu][cv] = aggregated[cu].get(cv, 0.0) + w
    return aggregated


def _reference_modularity(adjacency, communities, resolution=1.0):
    communities = np.asarray(communities)
    n = len(adjacency)
    if len(communities) != n:
        raise ValueError("communities must align with adjacency")
    degrees = np.array([sum(neigh.values()) for neigh in adjacency])
    two_m = degrees.sum()
    if two_m == 0:
        return 0.0

    internal = 0.0
    for u, neigh in enumerate(adjacency):
        for v, w in neigh.items():
            if communities[u] == communities[v]:
                internal += w

    community_degree = {}
    for u in range(n):
        c = int(communities[u])
        community_degree[c] = community_degree.get(c, 0.0) + degrees[u]
    expected = sum(d * d for d in community_degree.values()) / (two_m * two_m)
    return internal / two_m - resolution * expected


def _reference_edge_loop(n_nodes, sources, targets, weights):
    """Symmetric dict-of-dicts adjacency of an edge list, self-loops dropped."""
    adjacency = [dict() for _ in range(n_nodes)]
    for u, v, w in zip(sources, targets, weights):
        u, v, w = int(u), int(v), float(w)
        if u == v:
            continue
        adjacency[u][v] = adjacency[u].get(v, 0.0) + w
        adjacency[v][u] = adjacency[v].get(u, 0.0) + w
    return adjacency


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _dicts(csr):
    """The reference's input: one dict per row, in CSR row order."""
    indptr, indices, weights = csr
    return [
        dict(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()))
        for lo, hi in zip(indptr[:-1], indptr[1:])
    ]


def _csr(n_nodes, edges):
    """Symmetric CSR of ``[(u, v, w), ...]``."""
    sources, targets, weights = (np.array(column) for column in zip(*edges))
    return symmetric_csr(n_nodes, sources, targets, weights.astype(float))


def _csr_from_nx(graph):
    edges = [(u, v, data.get("weight", 1.0)) for u, v, data in graph.edges(data=True)]
    return _csr(graph.number_of_nodes(), edges)


def _nx_graph(csr):
    indptr, indices, weights = csr
    graph = nx.Graph()
    graph.add_nodes_from(range(len(indptr) - 1))
    for u in range(len(indptr) - 1):
        for j in range(indptr[u], indptr[u + 1]):
            graph.add_edge(u, int(indices[j]), weight=float(weights[j]))
    return graph


def _counted(fn, *args, **kwargs):
    """``fn``'s result, its Louvain counters and its span names."""
    telemetry = obs.Telemetry()
    with obs.session(telemetry):
        result = fn(*args, **kwargs)
    counters = telemetry.snapshot()["counters"]
    counts = {name: counters.get(name) for name in ("louvain.passes", "louvain.moves")}
    spans = [span.name for span in telemetry.root.children]
    return result, counts, spans


def _assert_matches_reference(csr, seed):
    ours, our_counts, our_spans = _counted(louvain_communities, csr, seed=seed)
    theirs, their_counts, their_spans = _counted(
        _reference_louvain, _dicts(csr), seed=seed
    )
    np.testing.assert_array_equal(ours, theirs)
    assert our_counts == their_counts
    assert our_spans == their_spans
    our_q = modularity(csr, ours)
    assert our_q == pytest.approx(_reference_modularity(_dicts(csr), ours), abs=1e-12)
    if csr[2].sum() > 0:
        graph = _nx_graph(csr)
        sets = [set(np.flatnonzero(ours == c).tolist()) for c in np.unique(ours)]
        assert our_q == pytest.approx(nx.community.modularity(graph, sets), abs=1e-9)


def _two_cliques(n=8, bridge_weight=0.1):
    graph = nx.Graph()
    for base in (0, n):
        for i in range(base, base + n):
            for j in range(i + 1, base + n):
                graph.add_edge(i, j, weight=1.0)
    graph.add_edge(0, n, weight=bridge_weight)
    return graph


EMPTY = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


class TestModularity:
    def test_perfect_split_positive(self):
        csr = _csr_from_nx(_two_cliques())
        communities = np.array([0] * 8 + [1] * 8)
        assert modularity(csr, communities) > 0.4

    def test_single_community_zero_ish(self):
        csr = _csr_from_nx(_two_cliques())
        communities = np.zeros(16, dtype=int)
        assert modularity(csr, communities) == pytest.approx(0.0, abs=1e-9)

    def test_matches_networkx(self):
        graph = nx.gnm_random_graph(30, 90, seed=2)
        csr = _csr_from_nx(graph)
        communities = np.array([i % 3 for i in range(30)])
        sets = [set(np.flatnonzero(communities == c)) for c in range(3)]
        ours = modularity(csr, communities)
        theirs = nx.community.modularity(graph, sets)
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_empty_graph(self):
        isolated = (np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        assert modularity(isolated, np.array([0, 1])) == 0.0

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            modularity((np.zeros(2, dtype=np.int64),) + EMPTY[1:], np.array([0, 1]))


class TestLouvain:
    def test_two_cliques_split(self):
        csr = _csr_from_nx(_two_cliques())
        communities = louvain_communities(csr, seed=0)
        assert len(np.unique(communities)) == 2
        assert len(set(communities[:8])) == 1
        assert len(set(communities[8:])) == 1
        assert communities[0] != communities[8]

    def test_empty_graph(self):
        assert len(louvain_communities(EMPTY)) == 0

    def test_disconnected_components_separate(self):
        csr = _csr(4, [(0, 1, 1.0), (2, 3, 1.0)])
        communities = louvain_communities(csr, seed=0)
        assert communities[0] == communities[1]
        assert communities[2] == communities[3]
        assert communities[0] != communities[2]

    def test_deterministic_for_seed(self):
        csr = _csr_from_nx(nx.gnm_random_graph(40, 120, seed=4))
        a = louvain_communities(csr, seed=7)
        b = louvain_communities(csr, seed=7)
        assert np.array_equal(a, b)

    def test_contiguous_ids(self):
        csr = _csr_from_nx(nx.gnm_random_graph(40, 120, seed=4))
        communities = louvain_communities(csr, seed=7)
        ids = np.unique(communities)
        assert ids.tolist() == list(range(len(ids)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_modularity_comparable_to_networkx(self, seed):
        graph = nx.planted_partition_graph(4, 15, 0.6, 0.05, seed=seed)
        csr = _csr_from_nx(graph)
        ours = louvain_communities(csr, seed=seed)
        our_q = modularity(csr, ours)
        nx_partition = nx.community.louvain_communities(graph, seed=seed)
        nx_q = nx.community.modularity(graph, nx_partition)
        assert our_q >= nx_q - 0.05

    def test_isolated_nodes_fine(self):
        # Nodes 0 and 1 have no edges; node 2 has a zero-weight edge.
        csr = (np.array([0, 0, 0, 1]), np.array([1]), np.array([0.0]))
        communities = louvain_communities(csr, seed=0)
        assert len(communities) == 3


class TestSymmetricCsr:
    def test_matches_edge_loop_exactly(self):
        # Parallel edges in both directions, self-loops and repeats:
        # the sums must equal the edge loop's bit for bit, in row order.
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            e = int(rng.integers(0, 150))
            sources, targets = rng.integers(0, n, e), rng.integers(0, n, e)
            weights = rng.random(e)
            csr = symmetric_csr(n, sources, targets, weights)
            reference = _reference_edge_loop(n, sources, targets, weights)
            assert [sorted(row.items()) for row in reference] == [
                list(row.items()) for row in _dicts(csr)
            ]

    def test_empty_edge_list(self):
        indptr, indices, weights = symmetric_csr(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert indptr.tolist() == [0, 0, 0, 0]
        assert len(indices) == len(weights) == 0


class TestMatchesReference:
    """Identical partitions and counters to the dict-of-dicts Louvain."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.lists(
            st.tuples(
                st.integers(0, 39), st.integers(0, 39), st.floats(0.01, 3.0)
            ),
            min_size=1,
            max_size=160,
        ),
        st.integers(0, 3),
    )
    def test_random_weighted_graphs(self, n, edges, seed):
        edges = [(u % n, v % n, w) for u, v, w in edges]
        _assert_matches_reference(_csr(n, edges), seed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 10),
        st.integers(1, 6),
        st.integers(12, 90),
        st.integers(0, 1),
    )
    def test_knn_graphs_of_clustered_vectors(self, data_seed, k_prime, centres, n, seed):
        rng = np.random.default_rng(data_seed)
        means = rng.normal(size=(centres, 8))
        vectors = means[rng.integers(0, centres, n)] + 0.3 * rng.normal(size=(n, 8))
        graph = build_knn_graph(vectors, k_prime=k_prime)
        _assert_matches_reference(graph.symmetric_csr(), seed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 25),
        st.integers(1, 12),
        st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 11), st.integers(1, 50)),
            min_size=1,
            max_size=120,
        ),
        st.integers(0, 1),
    )
    def test_bipartite_sender_port_graphs(self, n_senders, n_ports, edges, seed):
        # The sender-port graph as repro.baselines.bipartite builds it:
        # unique (sender, port) edges sorted sender-major, log weights.
        pairs = sorted({(s % n_senders, p % n_ports): c for s, p, c in edges}.items())
        senders = np.array([s for (s, _), _ in pairs])
        ports = np.array([p for (_, p), _ in pairs]) + n_senders
        weights = 1.0 + np.log(np.array([c for _, c in pairs], dtype=float))
        csr = symmetric_csr(n_senders + n_ports, senders, ports, weights)
        # The dict loop the baseline used, insertion order and all.
        adjacency = [dict() for _ in range(n_senders + n_ports)]
        for s, p, w in zip(senders.tolist(), ports.tolist(), weights.tolist()):
            adjacency[s][p] = adjacency[s].get(p, 0.0) + w
            adjacency[p][s] = adjacency[p].get(s, 0.0) + w
        assert [list(row.items()) for row in adjacency] == [
            list(row.items()) for row in _dicts(csr)
        ]
        _assert_matches_reference(csr, seed)


class TestAggregate:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.integers(1, 8))
    def test_rows_order_and_sums_match_reference(self, data_seed, n, n_communities):
        # Two levels, the second with self-loops: each aggregated row
        # lists communities in first-appearance order, and its weights
        # are the reference's sequential sums bit for bit.
        rng = np.random.default_rng(data_seed)
        e = int(rng.integers(1, 6 * n))
        ours = symmetric_csr(n, rng.integers(0, n, e), rng.integers(0, n, e), rng.random(e))
        theirs = _dicts(ours)
        for groups in (n_communities, max(1, n_communities // 2)):
            size = len(ours[0]) - 1
            community = np.unique(rng.integers(0, groups, size), return_inverse=True)[1]
            ours = _aggregate(ours, community)
            theirs = _reference_aggregate(theirs, community)
            assert [list(row.items()) for row in _dicts(ours)] == [
                list(row.items()) for row in theirs
            ]
