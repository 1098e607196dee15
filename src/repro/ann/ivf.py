"""Inverted-file (IVF) approximate cosine k-NN, pure numpy.

The index partitions the corpus with a spherical k-means coarse
quantizer (``nlist`` centroids trained on a seeded sample) and stores
each row in the inverted list of its nearest centroid.  A query scores
the ``nlist`` centroids once (float32), probes its ``nprobe`` best
lists, takes the float32 top-k of their members, and rescores the
winners in float64 against the original vectors — so the similarities
returned to callers are exact for the neighbours found, and directly
comparable with the exact backend's.  Queries whose probed lists held
fewer than ``k`` candidates silently fall back to exhaustive search.

The float32 rows are stored once, in list order, so every inverted
list is one contiguous slice.  A query chunk is scored one of two
ways, chosen by how many of its queries share each probed list:

* **gathered** (few queries per list — the serve daemon's single and
  64-sender requests): each query's probed lists are gathered into one
  block, scored with one batched matmul, and cut to one top-k per
  query, in sub-blocks of at most :data:`_GATHER_BUDGET_BYTES`;
* **per list** (many queries per list — the all-sender k'-NN graph):
  each probed list is scored once with one matmul against every chunk
  query that probes it, cut to a per-list top-k, and the survivors are
  merged.

The cut is :data:`_GATHER_QUERIES_PER_LIST` expected queries per
probed list.

Both paths select the same float32 top-k and feed the same float64
rescoring, sort and fallback, so the path never changes an answer
beyond float32 rounding of near-tied candidates.

Cost per query is ``nlist + nprobe * N/nlist`` similarity computations
instead of ``N``; with the auto ``nlist = sqrt(N)`` both terms are
``O(sqrt(N))``.  The trade-off is recall, which the index measures
itself: every search exact-rescores a seeded sample of queries and
records ``ann.recall_at_k`` (see :mod:`repro.ann.audit`), so a
mis-tuned index is visible in telemetry and health reports instead of
silently degrading accuracy.

:meth:`IVFIndex.updated` supports warm daily retrains: retained rows
keep their list assignment, fresh rows are appended to their nearest
list, evicted rows are dropped, and the quantizer is retrained from
scratch only when list imbalance crosses a threshold.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.ann import audit
from repro.ann.base import AnnSpec, NeighborIndex, check_query
from repro.ann.exact import exact_topk
from repro.parallel.pool import WorkerPool

#: Lloyd iterations for the spherical k-means quantizer.
_KMEANS_ITERS = 10

#: Temp-buffer budget (bytes) for coarse-assignment and per-list
#: scoring matmuls; bounds chunk sizes the same way the exact
#: backend's score-buffer budget does.
_SCORE_BUDGET_BYTES = 16 << 20

#: Expected queries per probed list (``queries x nprobe / nlist``)
#: below which a chunk is scored gathered.  The per-list path pays a
#: dozen numpy calls per probed list and wins once enough queries share
#: each list.  Calibrated at k = 3 on serve_read's 5,000 x 32 model
#: (nlist 71, nprobe 8; 2-core VM, one BLAS thread): the paths cross at
#: ~256 queries, 29 per list (64 queries: 2.1 ms gathered, 3.9 per
#: list; 512: 15.9 and 12.2).  A larger k moves the crossover up, past
#: 1,024 queries at k = 7, as the per-list top-k and merge grow with k.
#: 16 leaves room for less even lists, which the gathered path pads to
#: the longest.  On serve_read, single and 64-sender requests (7 per
#: list) gather; the all-sender k'-NN graph (chunks of 4,096 and 904
#: rows: 461 and 102 per list) goes per list.
_GATHER_QUERIES_PER_LIST = 16

#: Byte budget of one gathered scoring block (candidate vectors plus
#: their positions, scores and partition indices), and of the slices
#: in which the list-order float32 rows are laid out.  Once a block
#: over 128 KiB is freed, glibc serves blocks up to its size from
#: per-thread heaps that keep up to twice it resident, and the
#: daemon's handler threads search concurrently.  On serve_read's
#: model a 64-query block would be 5.6 MiB; with two threads running
#: the serve query mix, peak RSS was 60.5 MB at a 1 MiB budget, 58.0
#: at 512 KiB and 56.1 at 256 KiB (per-list scoring: 56.5), while a
#: 64-query search took 2.2, 2.3 and 2.4 ms (one block: 2.0; per
#: list: 4.5).
_GATHER_BUDGET_BYTES = 256 << 10

#: Default list-imbalance ratio (largest list vs perfectly even) above
#: which :meth:`IVFIndex.updated` retrains the quantizer.  Calibrated
#: loosely: k-means on unit vectors rarely exceeds 3x even splits, so
#: 4x means the incoming data has drifted away from the trained
#: partition.
RETRAIN_IMBALANCE = 4.0


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise in float64, leaving zero rows untouched."""
    norms = np.linalg.norm(matrix, axis=1)
    ok = norms > 0
    matrix[ok] /= norms[ok, None]
    return matrix


def _nearest_centroid(units32: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (max dot product) per row, chunked for memory."""
    nlist = len(centroids)
    step = max(1024, _SCORE_BUDGET_BYTES // max(1, 4 * nlist))
    out = np.empty(len(units32), dtype=np.int64)
    for lo in range(0, len(units32), step):
        out[lo : lo + step] = np.argmax(
            units32[lo : lo + step] @ centroids.T, axis=1
        )
    return out


def _train_centroids(
    units32: np.ndarray, nlist: int, seed: int, iters: int = _KMEANS_ITERS
) -> np.ndarray:
    """Spherical k-means on a seeded sample; returns unit centroids.

    Empty clusters are reseeded to random sample points each
    iteration, so every centroid stays live.  Fully deterministic for
    a given (units32, nlist, seed).
    """
    n, dim = units32.shape
    rng = np.random.default_rng(seed)
    sample_size = min(n, max(4096, 64 * nlist))
    if sample_size < n:
        sample = units32[np.sort(rng.choice(n, sample_size, replace=False))]
    else:
        sample = units32
    centroids = sample[
        np.sort(rng.choice(len(sample), nlist, replace=False))
    ].astype(np.float32)
    for _ in range(iters):
        assign = _nearest_centroid(sample, centroids)
        # Mean of members via sort + reduceat (no slow np.add.at).
        order = np.argsort(assign, kind="stable")
        sorted_assign = assign[order]
        bounds = np.flatnonzero(np.r_[True, np.diff(sorted_assign) != 0])
        sums = np.add.reduceat(
            sample[order].astype(np.float64), bounds, axis=0
        )
        new = np.zeros((nlist, dim), dtype=np.float64)
        new[sorted_assign[bounds]] = sums
        _normalize_rows(new)
        dead = np.linalg.norm(new, axis=1) == 0
        if dead.any():
            reseed = rng.choice(len(sample), int(dead.sum()), replace=False)
            new[dead] = sample[reseed]
        centroids = new.astype(np.float32)
    return centroids


def _float32_rows(units: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``units[order]`` as float32, converted in bounded slices so no
    second full-size copy is ever resident."""
    out = np.empty((len(order), units.shape[1]), dtype=np.float32)
    step = max(1, _GATHER_BUDGET_BYTES // max(1, 8 * units.shape[1]))
    for lo in range(0, len(order), step):
        out[lo : lo + step] = units[order[lo : lo + step]]
    return out


class IVFIndex(NeighborIndex):
    """Multi-probe inverted-file index over row-normalised vectors.

    Construct through :meth:`build` (trains the quantizer) or
    :meth:`updated` (evolves an existing quantizer); the bare
    constructor wires pre-computed parts (store loads).

    Attributes:
        members: row ids grouped by inverted list (stable order);
            list ``l`` is ``members[offsets[l]:offsets[l + 1]]``.
        lists32: the rows in ``members`` order as float32 — the only
            float32 copy, so every list is a contiguous slice.
    """

    #: :class:`AnnSpec` fields the index is built from; the others
    #: (``nprobe``, ``recall_sample``) only steer searches.
    BUILD_FIELDS = ("nlist", "seed")

    def __init__(
        self,
        units: np.ndarray,
        spec: AnnSpec,
        centroids: np.ndarray,
        assign: np.ndarray,
        lists32: np.ndarray | None = None,
    ) -> None:
        self.units = np.asarray(units, dtype=np.float64)
        self.spec = spec
        self.centroids = np.asarray(centroids, dtype=np.float32)
        self.assign = np.asarray(assign, dtype=np.int64)
        if len(self.assign) != len(self.units):
            raise ValueError("assignments and units must align")
        self.nlist = len(self.centroids)
        self.members = np.argsort(self.assign, kind="stable")
        counts = np.bincount(self.assign, minlength=self.nlist)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        #: Position of each row in list order (inverse of ``members``).
        self._slot = np.empty_like(self.members)
        self._slot[self.members] = np.arange(len(self.members))
        self.lists32 = (
            lists32
            if lists32 is not None
            else _float32_rows(self.units, self.members)
        )
        max_list = int(counts.max())
        #: Column offsets of a gathered list padded to the longest list.
        self._list_span = np.arange(max_list)
        self._chunk_rows = max(
            64,
            min(
                4096,
                _SCORE_BUDGET_BYTES // max(4 * max(self.nlist, max_list), 1),
            ),
        )
        #: recall@k measured by the most recent search's audit.
        self.last_recall: float | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, units: np.ndarray, spec: AnnSpec, workers: int = 1
    ) -> "IVFIndex":
        """Train the quantizer and assign every row to a list."""
        units = np.asarray(units, dtype=np.float64)
        n = len(units)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        nlist = min(n, spec.nlist or max(1, int(round(math.sqrt(n)))))
        units32 = units.astype(np.float32)
        with obs.span("ann.build", n=n, nlist=nlist):
            centroids = _train_centroids(units32, nlist, spec.seed)
            assign = _nearest_centroid(units32, centroids)
        # Freed before the index lays out its own list-order copy.
        del units32
        return cls(units, spec, centroids, assign)

    def updated(
        self,
        units: np.ndarray,
        prior_rows: np.ndarray,
        workers: int = 1,
        retrain_threshold: float = RETRAIN_IMBALANCE,
        spec: AnnSpec | None = None,
    ) -> "IVFIndex":
        """Index for the next model generation, reusing this quantizer.

        Args:
            units: row-normalised vectors of the *new* model.
            prior_rows: for each new row, its row in this index, or -1
                for senders this index has never seen.
            workers: parallelism for a retrain, if one is triggered.
            retrain_threshold: list-imbalance ratio (largest list over
                the perfectly even share) above which the quantizer is
                retrained from scratch instead of evolved.
            spec: knobs of the new index (default: this index's).  Its
                :attr:`BUILD_FIELDS` should match this index's (see
                :func:`repro.ann.base.can_evolve`); its search knobs
                take effect.

        Retained rows keep their list even though a warm refit nudged
        their vectors — the recall audit and the ``ann_recall`` health
        monitor guard that approximation.  Evicted rows simply drop
        out; fresh rows join their nearest list.
        """
        units = np.asarray(units, dtype=np.float64)
        prior_rows = np.asarray(prior_rows, dtype=np.int64)
        spec = spec or self.spec
        if len(prior_rows) != len(units):
            raise ValueError("prior_rows and units must align")
        n = len(units)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        assign = np.empty(n, dtype=np.int64)
        kept = prior_rows >= 0
        assign[kept] = self.assign[prior_rows[kept]]
        if (~kept).any():
            assign[~kept] = _nearest_centroid(
                units[~kept].astype(np.float32), self.centroids
            )
        counts = np.bincount(assign, minlength=self.nlist)
        imbalance = float(counts.max()) / max(n / self.nlist, 1e-9)
        if imbalance > retrain_threshold:
            obs.add("ann.retrains")
            return IVFIndex.build(units, spec, workers=workers)
        return IVFIndex(units, spec, self.centroids, assign)

    # -- search --------------------------------------------------------

    def search(
        self,
        query_rows: np.ndarray,
        k: int,
        exclude_self: bool = True,
        workers: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = check_query(len(self.units), query_rows, k, exclude_self)
        q = len(rows)
        neighbors = np.empty((q, k), dtype=np.int64)
        sims = np.empty((q, k))
        step = self._chunk_rows
        chunks = [(lo, min(lo + step, q)) for lo in range(0, q, step)]

        def search_chunk(bounds: tuple[int, int]) -> tuple:
            # Returns the chunk's outputs instead of writing shared
            # arrays: process-backend workers see copy-on-write memory,
            # so the parent assembles (bit-identical either way).
            lo, hi = bounds
            nb, s64, chunk_stats = self._search_chunk(rows[lo:hi], k, exclude_self)
            return lo, hi, nb, s64, chunk_stats

        n = len(self.units)
        rec = obs.current()
        t0 = time.perf_counter() if rec.enabled else 0.0
        obs.add("knn.queries", q)
        if workers == 1 or len(chunks) <= 1:
            results = [search_chunk(bounds) for bounds in chunks]
        else:
            with WorkerPool(workers) as pool:
                results = pool.map(search_chunk, chunks)
        stats = []
        for lo, hi, nb, s64, chunk_stats in results:
            neighbors[lo:hi] = nb
            sims[lo:hi] = s64
            stats.append(chunk_stats)
        probes = sum(s["probes"] for s in stats)
        scored = sum(s["scored"] for s in stats)
        fallbacks = sum(s["fallbacks"] for s in stats)
        computed = q * self.nlist + scored + fallbacks * n
        obs.add("knn.distance_computations", computed)
        obs.add("ann.probes", probes)
        obs.add("ann.candidates_scored", scored)
        obs.observe_many("knn.neighbor_distance", 1.0 - sims.ravel())
        if rec.enabled:
            obs.observe("knn.search_seconds", time.perf_counter() - t0)
        self._audit(rows, neighbors, k, exclude_self)
        return neighbors, sims

    def _search_chunk(
        self,
        rows: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Search one query chunk; returns (neighbors, sims, stats)."""
        c = len(rows)
        q32 = self.units[rows].astype(np.float32)
        coarse = q32 @ self.centroids.T  # (c, nlist) float32
        p = min(self.spec.nprobe, self.nlist)
        if p < self.nlist:
            probe_lists = np.argpartition(coarse, -p, axis=1)[:, -p:]
        else:
            probe_lists = np.broadcast_to(np.arange(self.nlist), (c, self.nlist))
        if self._gathers(c):
            score = self._top_gathered
        else:
            score = self._top_per_list
        nb, found, scored = score(rows, q32, probe_lists, k, exclude_self)
        # Rescore winners in float64 so returned similarities are exact
        # (and ordering resolves on full precision, not float32; exact
        # ties by row id, whichever path selected them).  Queries that
        # found fewer than k candidates rescore stand-ins (-1 is the
        # last row) and the fallback below replaces them.
        s64 = np.einsum(
            "ij,ij->i", self.units[np.repeat(rows, k)], self.units[nb.ravel()]
        ).reshape(c, k)
        resort = np.lexsort((nb, -s64)) + np.arange(0, c * k, k)[:, None]
        nb = np.take(nb, resort)
        s64 = np.take(s64, resort)
        short = found < k
        fallbacks = int(np.count_nonzero(short))
        if fallbacks:
            fb_nb, fb_s = exact_topk(self.units, rows[short], k, exclude_self)
            nb[short] = fb_nb
            s64[short] = fb_s
        return nb, s64, {"probes": c * p, "scored": scored, "fallbacks": fallbacks}

    def _gathers(self, queries: int) -> bool:
        """Whether a chunk of ``queries`` is scored gathered (see
        :data:`_GATHER_QUERIES_PER_LIST`) rather than list by list."""
        pairs = queries * min(self.spec.nprobe, self.nlist)
        return pairs < _GATHER_QUERIES_PER_LIST * self.nlist

    def _top_gathered(
        self,
        rows: np.ndarray,
        q32: np.ndarray,
        probe_lists: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Float32 top-k per query over its probed lists, gathered.

        Each query's probed lists are laid side by side, each padded to
        the longest inverted list, and scored in one batched matmul;
        queries go in sub-blocks of at most :data:`_GATHER_BUDGET_BYTES`.
        Returns (neighbors, the candidates found per query, candidates
        scored); a query that found fewer than k candidates holds
        stand-in neighbours, for the fallback to replace.
        """
        c, p = probe_lists.shape
        starts = self.offsets[probe_lists]
        sizes = self.offsets[probe_lists + 1] - starts
        span = self._list_span
        width = p * len(span)
        # Dead columns: padding past a list's end, and the query itself
        # where its own list is probed.
        dead = (span >= sizes[:, :, None]).reshape(c, width)
        if exclude_self:
            qi, pi = np.nonzero(probe_lists == self.assign[rows][:, None])
            own = self._slot[rows[qi]] - starts[qi, pi]
            dead[qi, pi * len(span) + own] = True
        found = width - dead.sum(axis=1)
        kk = min(k, width)
        # Per candidate: its float32 vector, position, index and score.
        per_query = width * (4 * self.lists32.shape[1] + 20)
        block = max(1, _GATHER_BUDGET_BYTES // per_query)
        cols = np.empty((c, kk), dtype=np.int64)
        for lo in range(0, c, block):
            hi = min(lo + block, c)
            # Padding positions are clipped into range for the gather.
            pos = (starts[lo:hi, :, None] + span).reshape(hi - lo, width)
            vecs = np.take(self.lists32, pos, axis=0, mode="clip")
            scores = np.matmul(vecs, q32[lo:hi, :, None])[:, :, 0]
            scores[dead[lo:hi]] = -np.inf
            top = np.argpartition(scores, width - kk, axis=1)
            cols[lo:hi] = top[:, width - kk :]
        picked = starts[np.arange(c)[:, None], cols // len(span)]
        nb = np.take(self.members, picked + cols % len(span), mode="clip")
        if kk < k:  # fewer columns than k: every query falls back
            nb = np.pad(nb, ((0, 0), (0, k - kk)), constant_values=-1)
        return nb, found, int(sizes.sum())

    def _top_per_list(
        self,
        rows: np.ndarray,
        q32: np.ndarray,
        probe_lists: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Float32 top-k per query, scoring list by list.

        Groups (query, list) pairs by list so each inverted list is
        scored once per chunk with one batched matmul, keeps a per-list
        top-k, and merges the survivors.  Same returns as
        :meth:`_top_gathered`.
        """
        c, p = probe_lists.shape
        flat_q = np.repeat(np.arange(c), p)
        flat_l = probe_lists.ravel()
        order = np.argsort(flat_l, kind="stable")
        fq, fl = flat_q[order], flat_l[order]
        group_starts = np.flatnonzero(np.r_[True, np.diff(fl) != 0])
        group_ends = np.r_[group_starts[1:], len(fl)]
        cand_q: list[np.ndarray] = []
        cand_m: list[np.ndarray] = []
        cand_s: list[np.ndarray] = []
        scored = 0
        for start, end in zip(group_starts, group_ends):
            list_id = fl[start]
            m0, m1 = self.offsets[list_id], self.offsets[list_id + 1]
            members = self.members[m0:m1]
            if len(members) == 0:
                continue
            qs = fq[start:end]
            scores = q32[qs] @ self.lists32[m0:m1].T  # (|qs|, |list|)
            scored += scores.size
            if exclude_self:
                scores[members[None, :] == rows[qs][:, None]] = -np.inf
            # Per-list top-k prunes the merge from nprobe * N/nlist
            # candidates per query down to nprobe * k.
            kk = min(k, scores.shape[1])
            if kk < scores.shape[1]:
                top = np.argpartition(scores, -kk, axis=1)[:, -kk:]
                cand_q.append(np.repeat(qs, kk))
                cand_m.append(members[top].ravel())
                cand_s.append(np.take_along_axis(scores, top, axis=1).ravel())
            else:
                cand_q.append(np.repeat(qs, scores.shape[1]))
                cand_m.append(np.tile(members, len(qs)))
                cand_s.append(scores.ravel())
        if cand_q:
            merged_q = np.concatenate(cand_q)
            merged_m = np.concatenate(cand_m)
            merged_s = np.concatenate(cand_s)
        else:
            merged_q = np.empty(0, dtype=np.int64)
            merged_m = np.empty(0, dtype=np.int64)
            merged_s = np.empty(0, dtype=np.float32)
        finite = np.isfinite(merged_s)
        merged_q, merged_m, merged_s = (
            merged_q[finite],
            merged_m[finite],
            merged_s[finite],
        )
        # Global per-query top-k over the merged survivors.  A query
        # keeps min(k, candidates) per list, so it has fewer than k
        # survivors exactly when its lists held fewer than k.
        sel = np.lexsort((-merged_s, merged_q))
        merged_q, merged_m = merged_q[sel], merged_m[sel]
        counts = np.bincount(merged_q, minlength=c)
        seg_starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        ranks = np.arange(len(merged_q)) - np.repeat(seg_starts, counts)
        take = ranks < k
        nb = np.full((c, k), -1, dtype=np.int64)
        nb[merged_q[take], ranks[take]] = merged_m[take]
        return nb, counts, scored

    # -- self-audit ----------------------------------------------------

    def _audit(
        self,
        rows: np.ndarray,
        neighbors: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> None:
        """Exact-rescore a seeded query sample; record recall@k."""
        recall = audit.audit_recall(
            self.units,
            rows,
            neighbors,
            k,
            exclude_self,
            self.spec.recall_sample,
            self.spec.seed,
        )
        if recall is not None:
            self.last_recall = recall
