"""Louvain community detection, implemented from scratch.

Blondel et al., "Fast unfolding of communities in large networks"
(2008): repeat (1) greedy local moving of nodes between communities to
maximise modularity gain, (2) aggregation of communities into
super-nodes, until no move improves modularity.  The implementation is
deterministic for a given seed and validated against networkx's
``louvain_communities`` in the test suite.

The graph is given as symmetric CSR arrays ``(indptr, indices,
weights)``: node ``u``'s neighbours are ``indices[indptr[u]:indptr[u +
1]]`` with the edge weights alongside, and ``w[u][v] == w[v][u]``.
:func:`symmetric_csr` builds them from an edge list.  Each level's
local moves run over plain Python lists made once per level (indexing
numpy scalars in the move loop would cost more than the moves), and
aggregation is one vectorised pass.  Neighbours are visited in row
order, and aggregated rows list their neighbour communities in the
order a scan of the finer level first meets them; with the
sequential sums below, the partition depends on nothing else.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.rng import make_rng

#: ``(indptr, indices, weights)`` of a symmetric weighted graph.
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]


def symmetric_csr(
    n_nodes: int, sources: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> Csr:
    """Symmetric CSR arrays of an edge list: ``w[u][v] = w_uv + w_vu``.

    Each edge ``(u, v, w)`` adds ``w`` to both ``w[u][v]`` and
    ``w[v][u]``; parallel edges sum in edge-list order, exactly as an
    edge loop over ``get(v, 0.0) + w`` would.  Self-loops are dropped
    and each row's neighbours are sorted ascending.  One stable sort
    plus one ``bincount``; no Python-level edge loop.
    """
    keep = sources != targets
    u = sources[keep].astype(np.int64)
    v = targets[keep].astype(np.int64)
    w = weights[keep].astype(np.float64)
    # Interleave each edge with its reverse so that the stable sort
    # keeps edge-list order within a (head, tail) pair.
    heads = np.column_stack([u, v]).reshape(-1)
    tails = np.column_stack([v, u]).reshape(-1)
    key = heads * n_nodes + tails
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    first = np.ones(len(key_sorted), dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    segment = np.cumsum(first) - 1
    summed = np.bincount(segment, weights=np.repeat(w, 2)[order])
    unique_keys = key_sorted[first]
    rows = unique_keys // n_nodes
    indices = unique_keys - rows * n_nodes
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr, indices, summed


def louvain_communities(
    csr: Csr,
    resolution: float = 1.0,
    seed: int | np.random.Generator | None = 0,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """Community id per node (ids are contiguous, 0-based).

    Args:
        csr: symmetric CSR arrays ``(indptr, indices, weights)`` (see
            :func:`symmetric_csr`).
        resolution: modularity resolution gamma.
        seed: node-visit order randomisation.
        min_gain: minimum modularity gain to accept a move.
    """
    rng = make_rng(seed)
    n = len(csr[0]) - 1
    if n == 0:
        return np.empty(0, dtype=np.int64)

    with obs.span("graph.louvain", nodes=n) as sp:
        # node -> community of the *original* graph, refined every level.
        membership = np.arange(n, dtype=np.int64)
        current = csr

        while True:
            obs.add("louvain.passes", 1)
            local, improved = _one_level(current, resolution, rng, min_gain)
            membership = local[membership]
            if not improved or len(np.unique(local)) == len(local):
                break
            current = _aggregate(current, local)
        # Renumber to contiguous ids.
        _, contiguous = np.unique(membership, return_inverse=True)
        sp.set(items=n, items_unit="nodes")
    return contiguous.astype(np.int64)


def _one_level(
    csr: Csr,
    resolution: float,
    rng: np.random.Generator,
    min_gain: float,
) -> tuple[np.ndarray, bool]:
    """Greedy local moving; returns (node -> community, any_move)."""
    indptr, indices, weights = csr
    n = len(indptr) - 1
    bounds = indptr.tolist()
    targets = indices.tolist()
    edge_weights = weights.tolist()
    # Degrees are Python's sum() of each row in row order, as in the
    # dict reference the tests pin partitions to; from 3.12 on sum() is
    # compensated, so a numpy sum would drift from it in the last bits.
    degree = np.array(
        [sum(edge_weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    )
    two_m = float(degree.sum())
    if two_m == 0:
        return np.arange(n, dtype=np.int64), False
    degree = degree.tolist()
    # Neighbour (node, weight) pairs per node; self-loops add to the
    # degree only, never to the links between communities.
    neighbours = [
        [(v, w) for v, w in zip(targets[lo:hi], edge_weights[lo:hi]) if v != u]
        for u, lo, hi in zip(range(n), bounds, bounds[1:])
    ]
    community = list(range(n))
    community_degree = list(degree)

    any_move = False
    n_moves = 0
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n).tolist():
            own = community[u]
            # Weight from u to each neighbouring community.
            links: dict[int, float] = {}
            for v, w in neighbours[u]:
                c = community[v]
                links[c] = links.get(c, 0.0) + w

            degree_u = degree[u]
            community_degree[own] -= degree_u
            base = (
                links.get(own, 0.0)
                - resolution * community_degree[own] * degree_u / two_m
            )
            best_community, best_gain = own, 0.0
            for c, w_in in links.items():
                if c == own:
                    continue
                gain = (
                    w_in - resolution * community_degree[c] * degree_u / two_m - base
                )
                if gain > best_gain + min_gain or (
                    best_community != own
                    and c < best_community
                    and abs(gain - best_gain) <= min_gain
                ):
                    best_community, best_gain = c, gain
            community_degree[best_community] += degree_u
            if best_community != own:
                community[u] = best_community
                moved = True
                any_move = True
                n_moves += 1

    obs.add("louvain.moves", n_moves)
    _, contiguous = np.unique(community, return_inverse=True)
    return contiguous.astype(np.int64), any_move


def _aggregate(csr: Csr, community: np.ndarray) -> Csr:
    """Collapse communities into super-nodes, keeping self-loops.

    Row ``c`` lists its neighbour communities in the order a scan of
    the finer rows (node ascending, each row in order) first meets
    them, and each weight is the sequential sum of its finer edges in
    that scan order (``bincount``, not a pairwise reduce).
    """
    indptr, indices, weights = csr
    n_communities = int(community.max()) + 1
    heads = np.repeat(community, np.diff(indptr))
    key = heads * n_communities + community[indices]
    unique_keys, first_seen, slot = np.unique(
        key, return_index=True, return_inverse=True
    )
    summed = np.bincount(slot, weights=weights, minlength=len(unique_keys))
    rows = unique_keys // n_communities
    order = np.lexsort((first_seen, rows))
    aggregated_indptr = np.zeros(n_communities + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(rows, minlength=n_communities), out=aggregated_indptr[1:]
    )
    return (
        aggregated_indptr,
        unique_keys[order] - rows[order] * n_communities,
        summed[order],
    )
