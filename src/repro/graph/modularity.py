"""Weighted undirected modularity (Newman).

Louvain maximises this quantity; it is also reported directly in
Figure 10 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.graph.louvain import Csr


def modularity(
    csr: Csr,
    communities: np.ndarray,
    resolution: float = 1.0,
) -> float:
    """Modularity of a node->community assignment.

    Args:
        csr: symmetric CSR arrays ``(indptr, indices, weights)`` (see
            :func:`~repro.graph.louvain.symmetric_csr`).
        communities: community id per node.
        resolution: resolution parameter gamma (1.0 = classic).
    """
    indptr, indices, weights = csr
    communities = np.asarray(communities)
    n = len(indptr) - 1
    if len(communities) != n:
        raise ValueError("communities must align with adjacency")
    heads = np.repeat(np.arange(n), np.diff(indptr))
    degrees = np.bincount(heads, weights=weights, minlength=n)
    two_m = degrees.sum()
    if two_m == 0:
        return 0.0

    # Each undirected edge appears in both rows, so it counts twice.
    internal = weights[communities[heads] == communities[indices]].sum()
    _, ids = np.unique(communities, return_inverse=True)
    community_degree = np.bincount(ids, weights=degrees)
    expected = (community_degree @ community_degree) / (two_m * two_m)
    return float(internal / two_m - resolution * expected)
