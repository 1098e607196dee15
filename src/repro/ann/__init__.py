"""Approximate and exact nearest-neighbour indexes (see :mod:`.base`)."""

from repro.ann.base import (
    BACKENDS,
    AnnSpec,
    NeighborIndex,
    build_index,
    can_evolve,
)
from repro.ann.exact import ExactIndex, score_chunk_rows
from repro.ann.hnsw import HNSWIndex
from repro.ann.ivf import IVFIndex
from repro.ann.ivfpq import IVFPQIndex

__all__ = [
    "BACKENDS",
    "AnnSpec",
    "NeighborIndex",
    "ExactIndex",
    "HNSWIndex",
    "IVFIndex",
    "IVFPQIndex",
    "build_index",
    "can_evolve",
    "score_chunk_rows",
]
