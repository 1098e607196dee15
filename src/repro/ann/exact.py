"""Brute-force cosine k-NN: the exact backend and shared top-k core.

This is the historical ``knn_search`` algorithm moved behind the
:class:`~repro.ann.base.NeighborIndex` interface.  The only change from
the fixed ``_CHUNK_ROWS = 1024`` era is memory-budgeted chunk sizing:
the per-chunk score buffer is ``chunk x N`` float64, which blows RSS at
large N, so the chunk shrinks once N crosses the budget.

What is deterministic: a search is reproducible bit for bit for the
same query rows, N and ``workers``.  Each query row is scored on its
own, so a row's neighbours do not depend on the chunk it lands in or
on the batch it is searched in, unless two candidates tie to within
float64 rounding.  Its similarities can: the BLAS kernel behind
``units[chunk] @ units.T`` depends on the chunk's row count, so one
row searched alone and within a batch may differ in the last bit
(measured: up to 4.4e-16 on 713 of 715 rows of a 5,000-sender model).
Chunks are 1,024 rows for every ``workers`` value while N <= 8192 /
``workers``; past that the chunk plan depends on ``workers`` too.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.ann.base import AnnSpec, NeighborIndex, check_query
from repro.parallel.pool import WorkerPool

#: Per-chunk score-buffer budget (bytes).  64 MiB keeps the historical
#: 1024-row chunks for every N <= 8192 while bounding RSS at large N.
_CHUNK_BUDGET_BYTES = 64 << 20
_MIN_CHUNK_ROWS = 16
_MAX_CHUNK_ROWS = 1024


def score_chunk_rows(n: int, itemsize: int = 8, concurrency: int = 1) -> int:
    """Query rows per chunk so the score buffers stay within budget.

    ``concurrency`` is the number of chunks that can be resident at
    once (worker count): the budget bounds the *total* score-buffer
    footprint, not just one chunk's, so a huge query fan-out across
    many workers cannot multiply past the 64 MiB ceiling.  The floor of
    :data:`_MIN_CHUNK_ROWS` rows is kept even when it overshoots — a
    narrower chunk would stop amortising the ``units.T`` access.
    """
    if n <= 0:
        return _MAX_CHUNK_ROWS
    by_budget = _CHUNK_BUDGET_BYTES // (max(1, concurrency) * n * itemsize)
    return int(min(_MAX_CHUNK_ROWS, max(_MIN_CHUNK_ROWS, by_budget)))


def exact_topk(
    units: np.ndarray,
    query_rows: np.ndarray,
    k: int,
    exclude_self: bool = True,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Uninstrumented exact top-k; the core of :class:`ExactIndex`.

    Also serves the IVF backends as recall-audit oracle and as fallback
    for queries whose probed lists held fewer than ``k`` candidates,
    where it must not double-count ``knn.*`` metrics.
    """
    n = len(units)
    query_rows = check_query(n, query_rows, k, exclude_self)
    neighbors = np.empty((len(query_rows), k), dtype=np.int64)
    sims = np.empty((len(query_rows), k))

    def search_chunk(bounds: tuple[int, int]):
        # Chunks return their slices instead of writing shared outputs:
        # process-backend workers see copy-on-write memory, so in-place
        # writes would be lost.  The parent assembles — same result,
        # bit-identical, under both pool backends.
        lo, hi = bounds
        chunk = query_rows[lo:hi]
        scores = units[chunk] @ units.T  # (chunk, N)
        if exclude_self:
            scores[np.arange(len(chunk)), chunk] = -np.inf
        top = np.argpartition(scores, -k, axis=1)[:, -k:]
        top_scores = np.take_along_axis(scores, top, axis=1)
        order = np.argsort(top_scores, axis=1)[:, ::-1]
        return (
            lo,
            hi,
            np.take_along_axis(top, order, axis=1),
            np.take_along_axis(top_scores, order, axis=1),
        )

    pool = WorkerPool(workers) if workers != 1 else None
    concurrency = pool.workers if pool is not None else 1
    step = score_chunk_rows(n, concurrency=concurrency)
    chunks = [
        (lo, min(lo + step, len(query_rows)))
        for lo in range(0, len(query_rows), step)
    ]
    if pool is None or len(chunks) <= 1:
        results = [search_chunk(bounds) for bounds in chunks]
    else:
        with pool:
            results = pool.map(search_chunk, chunks)
    for lo, hi, chunk_neighbors, chunk_sims in results:
        neighbors[lo:hi] = chunk_neighbors
        sims[lo:hi] = chunk_sims
    return neighbors, sims


class ExactIndex(NeighborIndex):
    """Exhaustive cosine search — every query scores every row.

    Building is free (the index is the matrix), searching is
    O(Q x N x V).  This backend defines correctness: with one worker
    its results are bit-identical to the pre-ANN ``knn_search`` (see
    the module docstring for what holds across batches and workers).
    """

    def __init__(self, units: np.ndarray) -> None:
        self.units = np.asarray(units, dtype=np.float64)

    @classmethod
    def build(
        cls, units: np.ndarray, spec: AnnSpec, workers: int = 1
    ) -> "ExactIndex":
        """The index is the matrix itself; ``spec`` has no knobs for it."""
        return cls(units)

    def search(
        self,
        query_rows: np.ndarray,
        k: int,
        exclude_self: bool = True,
        workers: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        query_rows = check_query(len(self.units), query_rows, k, exclude_self)
        n = len(self.units)
        rec = obs.current()
        t0 = time.perf_counter() if rec.enabled else 0.0
        obs.add("knn.queries", len(query_rows))
        obs.add("knn.distance_computations", len(query_rows) * n)
        neighbors, sims = exact_topk(
            self.units, query_rows, k, exclude_self, workers=workers
        )
        obs.observe_many("knn.neighbor_distance", 1.0 - sims.ravel())
        if rec.enabled:
            obs.observe("knn.search_seconds", time.perf_counter() - t0)
        return neighbors, sims
