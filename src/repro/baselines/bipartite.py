"""Bipartite sender-port graph clustering (Soro et al., MedComNet'20).

The related-work approach the paper cites as [39]: model darknet
traffic as a bipartite graph between senders and the (port, protocol)
pairs they target, run Louvain community detection on it, and read the
sender communities off the partition.  Unlike DarkVec this uses no
temporal information at all, which is exactly what the comparison
benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.louvain import louvain_communities, symmetric_csr
from repro.graph.modularity import modularity
from repro.services.ports import port_keys
from repro.trace.packet import Trace


@dataclass
class BipartiteCommunities:
    """Result of the bipartite clustering.

    Attributes:
        senders: sender indices that appear in the graph.
        communities: community id per entry of ``senders``.
        modularity: Louvain modularity of the full bipartite partition.
        n_ports: number of port nodes in the graph.
    """

    senders: np.ndarray
    communities: np.ndarray
    modularity: float
    n_ports: int

    @property
    def n_clusters(self) -> int:
        return len(np.unique(self.communities)) if len(self.communities) else 0


def bipartite_communities(
    trace: Trace,
    senders: np.ndarray | None = None,
    weight: str = "log",
    seed: int = 0,
) -> BipartiteCommunities:
    """Cluster senders through the sender-port bipartite graph.

    Args:
        trace: packet trace.
        senders: sender indices to include; defaults to the active
            senders (>= 10 packets).
        weight: ``"log"`` (1 + log packets, dampening heavy hitters,
            as in the original paper) or ``"count"``.
        seed: Louvain seed.
    """
    if weight not in ("log", "count"):
        raise ValueError("weight must be 'log' or 'count'")
    if senders is None:
        senders = trace.active_senders(10)
    senders = np.asarray(senders, dtype=np.int64)
    sub = trace.from_senders(senders)
    if not len(sub):
        return BipartiteCommunities(
            senders=senders,
            communities=np.zeros(len(senders), dtype=np.int64),
            modularity=0.0,
            n_ports=0,
        )

    # Aggregate (sender, port) edge weights.
    keys = sub.senders.astype(np.int64) * 2**24 + port_keys(sub.ports, sub.protos)
    uniq, counts = np.unique(keys, return_counts=True)
    edge_senders = (uniq // 2**24).astype(np.int64)
    edge_ports = (uniq % 2**24).astype(np.int64)

    sender_ids, sender_index = np.unique(edge_senders, return_inverse=True)
    port_ids, port_index = np.unique(edge_ports, return_inverse=True)
    n_senders, n_ports = len(sender_ids), len(port_ids)

    weights = counts.astype(float)
    if weight == "log":
        weights = 1.0 + np.log(weights)

    csr = symmetric_csr(
        n_senders + n_ports, sender_index, port_index + n_senders, weights
    )
    communities = louvain_communities(csr, seed=seed)
    score = modularity(csr, communities)

    # Map back: community per requested sender (absent senders get -1).
    by_sender = {int(s): int(c) for s, c in zip(sender_ids, communities)}
    assigned = np.array(
        [by_sender.get(int(s), -1) for s in senders], dtype=np.int64
    )
    return BipartiteCommunities(
        senders=senders,
        communities=assigned,
        modularity=score,
        n_ports=n_ports,
    )
