"""Product-quantized inverted-file (IVF-PQ) cosine k-NN, pure numpy.

Builds on the IVF layout (:mod:`repro.ann.ivf`): rows partition into
``nlist`` inverted lists by a spherical k-means coarse quantizer.  The
PQ layer then compresses each row's *residual* (vector minus its list
centroid) into ``m`` uint8 codes — one per subspace — against per-
subspace codebooks of ``2**pq_bits`` entries trained with Euclidean
k-means.  At ``m = 16`` and 8 bits a float32 embedding row of V = 50
shrinks from 200 bytes to 16, so the scan structure of a million-row
index fits comfortably in cache-friendly memory.

Search is asymmetric distance computation (ADC): a query builds one
lookup table of ``q · codebook`` dot products per subspace — the table
is independent of which list is probed — and scores every candidate as

    q · x_hat  =  q · c_list  +  sum_j  LUT[j, codes[x, j]]

i.e. one coarse term plus ``m`` table lookups, no float vector math per
candidate.  Because ADC scores are approximate, each query keeps a
*shortlist* several times larger than ``k``, rescored exactly in
float64 against the original vectors; returned similarities are
therefore exact for the neighbours found and directly comparable with
the exact backend's, just like plain IVF.  Queries whose probed lists
held fewer than ``k`` candidates fall back to exhaustive search.

Every search self-audits recall on a seeded query sample
(:func:`repro.ann.audit.audit_recall`), so a mis-tuned quantizer is
visible in ``ann.recall_at_k`` and the ``ann_recall`` health monitor
instead of silently degrading accuracy.  :meth:`IVFPQIndex.updated`
supports warm daily retrains exactly like IVF, re-encoding codes
against the retained codebooks and retraining everything only when
list imbalance crosses the threshold.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.ann import audit
from repro.ann.base import AnnSpec, NeighborIndex, check_query
from repro.ann.exact import exact_topk
from repro.ann.ivf import (
    RETRAIN_IMBALANCE,
    _SCORE_BUDGET_BYTES,
    _nearest_centroid,
    _train_centroids,
)
from repro.parallel.pool import WorkerPool

#: Lloyd iterations for the per-subspace Euclidean codebooks.
_PQ_KMEANS_ITERS = 10

#: Shortlist multiplier: ADC keeps ``max(_MIN_SHORTLIST, mult * k)``
#: candidates per query for exact rescoring.  Deep relative to ``k``
#: on purpose: quantization noise can shuffle near-tied candidates, and
#: the exact rescore of a few-hundred-row shortlist costs almost
#: nothing next to the scan it replaces.
_SHORTLIST_MULT = 16
_MIN_SHORTLIST = 64


def default_pq_m(dim: int) -> int:
    """The auto subspace count: ~4 dims per subspace, capped at 16."""
    return min(16, max(1, dim // 4))


def _subspace_slices(dim: int, m: int) -> list[np.ndarray]:
    """Index arrays of the ``m`` (near-)even subspaces of ``dim``."""
    return [s for s in np.array_split(np.arange(dim), m)]


def _train_codebook(
    points: np.ndarray, ksub: int, rng: np.random.Generator
) -> np.ndarray:
    """Euclidean k-means codebook over one subspace's residual sample."""
    n = len(points)
    ksub = min(ksub, n)
    centers = points[np.sort(rng.choice(n, ksub, replace=False))].astype(
        np.float32
    )
    for _ in range(_PQ_KMEANS_ITERS):
        # argmin ||p - c||^2 == argmax p.c - ||c||^2 / 2
        bias = 0.5 * np.einsum("kd,kd->k", centers, centers)
        assign = np.argmax(points @ centers.T - bias, axis=1)
        order = np.argsort(assign, kind="stable")
        sorted_assign = assign[order]
        bounds = np.flatnonzero(np.r_[True, np.diff(sorted_assign) != 0])
        sums = np.add.reduceat(points[order].astype(np.float64), bounds, axis=0)
        counts = np.diff(np.r_[bounds, n])
        new = np.zeros_like(centers, dtype=np.float64)
        new[sorted_assign[bounds]] = sums / counts[:, None]
        live = np.zeros(ksub, dtype=bool)
        live[sorted_assign[bounds]] = True
        if not live.all():
            reseed = rng.choice(n, int((~live).sum()), replace=False)
            new[~live] = points[reseed]
        centers = new.astype(np.float32)
    return centers


class IVFPQIndex(NeighborIndex):
    """Inverted-file index with product-quantized residual scoring.

    Construct through :meth:`build` (trains quantizer + codebooks) or
    :meth:`updated` (evolves an existing one); the bare constructor
    wires pre-computed parts (store loads).

    Attributes:
        centroids: coarse quantizer, shape (nlist, dim) float32.
        assign: list id per row, shape (n,).
        codes: PQ codes, shape (n, m) uint8.
        codebooks: zero-padded codebook tensor, shape (m, ksub, maxd)
            float32 — subspace ``j`` uses only its first ``subdim_j``
            columns; the zero padding makes the ADC lookup-table einsum
            uniform across uneven subspaces.
    """

    #: :class:`AnnSpec` fields the index is built from; the others
    #: (``nprobe``, ``recall_sample``) only steer searches.
    BUILD_FIELDS = ("nlist", "seed", "pq_m", "pq_bits")

    def __init__(
        self,
        units: np.ndarray,
        spec: AnnSpec,
        centroids: np.ndarray,
        assign: np.ndarray,
        codes: np.ndarray,
        codebooks: np.ndarray,
        units32: np.ndarray | None = None,
    ) -> None:
        self.units = np.asarray(units, dtype=np.float64)
        self.spec = spec
        self.centroids = np.asarray(centroids, dtype=np.float32)
        self.assign = np.asarray(assign, dtype=np.int64)
        self.codes = np.asarray(codes, dtype=np.uint8)
        self.codebooks = np.asarray(codebooks, dtype=np.float32)
        if len(self.assign) != len(self.units):
            raise ValueError("assignments and units must align")
        if self.codes.shape != (len(self.units), len(self.codebooks)):
            raise ValueError("codes must be (n, m)")
        self.nlist = len(self.centroids)
        self.m = len(self.codebooks)
        self.units32 = (
            units32 if units32 is not None else self.units.astype(np.float32)
        )
        dim = self.units.shape[1]
        self.subspaces = _subspace_slices(dim, self.m)
        self.members = np.argsort(self.assign, kind="stable")
        counts = np.bincount(self.assign, minlength=self.nlist)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        #: recall@k measured by the most recent search's audit.
        self.last_recall: float | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, units: np.ndarray, spec: AnnSpec, workers: int = 1
    ) -> "IVFPQIndex":
        """Train quantizer + codebooks and encode every row."""
        units = np.asarray(units, dtype=np.float64)
        n, dim = units.shape if units.ndim == 2 else (len(units), 0)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        nlist = min(n, spec.nlist or max(1, int(round(math.sqrt(n)))))
        m = min(spec.pq_m or default_pq_m(dim), dim)
        ksub = 1 << spec.pq_bits
        units32 = units.astype(np.float32)
        with obs.span("ann.build", n=n, nlist=nlist, backend="ivfpq", pq_m=m):
            centroids = _train_centroids(units32, nlist, spec.seed)
            assign = _nearest_centroid(units32, centroids)
            codebooks = cls._train_codebooks(
                units32, centroids, assign, m, ksub, dim, spec.seed
            )
            codes = cls._encode(units32, centroids, assign, codebooks, dim)
        return cls(
            units, spec, centroids, assign, codes, codebooks, units32=units32
        )

    @staticmethod
    def _train_codebooks(
        units32: np.ndarray,
        centroids: np.ndarray,
        assign: np.ndarray,
        m: int,
        ksub: int,
        dim: int,
        seed: int,
    ) -> np.ndarray:
        """Per-subspace codebooks over a seeded residual sample."""
        n = len(units32)
        rng = np.random.default_rng([seed, 17])
        sample_size = min(n, max(4096, 64 * ksub))
        if sample_size < n:
            rows = np.sort(rng.choice(n, sample_size, replace=False))
        else:
            rows = np.arange(n)
        residuals = units32[rows] - centroids[assign[rows]]
        subspaces = _subspace_slices(dim, m)
        maxd = max(len(s) for s in subspaces)
        actual_ksub = min(ksub, len(rows))
        codebooks = np.zeros((m, actual_ksub, maxd), dtype=np.float32)
        for j, sub in enumerate(subspaces):
            codebooks[j, :, : len(sub)] = _train_codebook(
                residuals[:, sub], actual_ksub, rng
            )
        return codebooks

    @staticmethod
    def _encode(
        units32: np.ndarray,
        centroids: np.ndarray,
        assign: np.ndarray,
        codebooks: np.ndarray,
        dim: int,
    ) -> np.ndarray:
        """Nearest-codeword codes for every row, chunked for memory."""
        n = len(units32)
        m, ksub, _ = codebooks.shape
        subspaces = _subspace_slices(dim, m)
        codes = np.empty((n, m), dtype=np.uint8)
        step = max(1024, _SCORE_BUDGET_BYTES // max(1, 4 * ksub))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            residual = units32[lo:hi] - centroids[assign[lo:hi]]
            for j, sub in enumerate(subspaces):
                cb = codebooks[j, :, : len(sub)]
                bias = 0.5 * np.einsum("kd,kd->k", cb, cb)
                codes[lo:hi, j] = np.argmax(
                    residual[:, sub] @ cb.T - bias, axis=1
                )
        return codes

    def updated(
        self,
        units: np.ndarray,
        prior_rows: np.ndarray,
        workers: int = 1,
        retrain_threshold: float = RETRAIN_IMBALANCE,
        spec: AnnSpec | None = None,
    ) -> "IVFPQIndex":
        """Index for the next model generation, reusing this quantizer.

        Retained rows keep their list; fresh rows join their nearest
        list; every row is **re-encoded** against the retained
        codebooks (warm refits move vectors, so stale codes would decay
        ADC quality even where the list layout is still fine).  The
        full quantizer + codebooks retrain only when list imbalance
        crosses ``retrain_threshold`` — the same evolution contract as
        :meth:`repro.ann.ivf.IVFIndex.updated`, guarded by the same
        recall audit and health monitor.  ``spec`` (default: this
        index's) supplies the new index's search knobs, also as there.
        """
        units = np.asarray(units, dtype=np.float64)
        prior_rows = np.asarray(prior_rows, dtype=np.int64)
        spec = spec or self.spec
        if len(prior_rows) != len(units):
            raise ValueError("prior_rows and units must align")
        n = len(units)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        units32 = units.astype(np.float32)
        assign = np.empty(n, dtype=np.int64)
        kept = prior_rows >= 0
        assign[kept] = self.assign[prior_rows[kept]]
        if (~kept).any():
            assign[~kept] = _nearest_centroid(units32[~kept], self.centroids)
        counts = np.bincount(assign, minlength=self.nlist)
        imbalance = float(counts.max()) / max(n / self.nlist, 1e-9)
        if imbalance > retrain_threshold:
            obs.add("ann.retrains")
            return IVFPQIndex.build(units, spec, workers=workers)
        codes = self._encode(
            units32, self.centroids, assign, self.codebooks, units.shape[1]
        )
        return IVFPQIndex(
            units,
            spec,
            self.centroids,
            assign,
            codes,
            self.codebooks,
            units32=units32,
        )

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
        ksub = self.codebooks.shape[1]
        list_sizes = self.offsets[1:] - self.offsets[:-1]
        max_list = int(list_sizes.max()) if self.nlist else 1
        # Chunk so the per-chunk LUT (c x m x ksub f32) and the widest
        # per-list ADC block both stay inside the score budget.
        widest = max(self.nlist, max_list, self.m * ksub, 1)
        step = max(64, min(4096, _SCORE_BUDGET_BYTES // (4 * widest)))
        chunks = [(lo, min(lo + step, q)) for lo in range(0, q, step)]

        def search_chunk(bounds: tuple[int, int]) -> tuple:
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
        rescored = sum(s["rescored"] for s in stats)
        fallbacks = sum(s["fallbacks"] for s in stats)
        computed = q * self.nlist + scored + rescored + fallbacks * n
        obs.add("knn.distance_computations", computed)
        obs.add("ann.probes", probes)
        obs.add("ann.candidates_scored", scored)
        obs.observe_many("knn.neighbor_distance", 1.0 - sims.ravel())
        if rec.enabled:
            obs.observe("knn.search_seconds", time.perf_counter() - t0)
        self._audit(rows, neighbors, k, exclude_self)
        return neighbors, sims

    def _lookup_tables(self, q32: np.ndarray) -> np.ndarray:
        """ADC tables ``q · codeword`` per (query, subspace, codeword).

        List-independent: built once per chunk and reused for every
        probed list.  Queries are zero-padded into the codebook tensor's
        ``maxd`` so one einsum covers uneven subspaces.
        """
        c = len(q32)
        maxd = self.codebooks.shape[2]
        padded = np.zeros((c, self.m, maxd), dtype=np.float32)
        for j, sub in enumerate(self.subspaces):
            padded[:, j, : len(sub)] = q32[:, sub]
        return np.einsum("cjd,jkd->cjk", padded, self.codebooks)

    def _search_chunk(
        self,
        rows: np.ndarray,
        k: int,
        exclude_self: bool,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Search one query chunk; returns (neighbors, sims, stats)."""
        c = len(rows)
        q32 = self.units32[rows]
        coarse = q32 @ self.centroids.T  # (c, nlist) float32
        lut = self._lookup_tables(q32)  # (c, m, ksub) float32
        p = min(self.spec.nprobe, self.nlist)
        if p < self.nlist:
            probe_lists = np.argpartition(coarse, -p, axis=1)[:, -p:]
        else:
            probe_lists = np.broadcast_to(np.arange(self.nlist), (c, self.nlist))
        shortlist = max(_MIN_SHORTLIST, _SHORTLIST_MULT * k)
        # Group (query, list) pairs by list, as in the IVF backend.
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
            member_codes = self.codes[members]  # (|list|, m)
            lut_q = lut[qs]  # (|qs|, m, ksub)
            scores = np.broadcast_to(
                coarse[qs, list_id][:, None], (len(qs), len(members))
            ).copy()
            for j in range(self.m):
                scores += lut_q[:, j, :][:, member_codes[:, j]]
            scored += scores.size
            if exclude_self:
                scores[members[None, :] == rows[qs][:, None]] = -np.inf
            kk = min(shortlist, scores.shape[1])
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
        # Global per-query top-shortlist over the merged ADC scores.
        sel = np.lexsort((-merged_s, merged_q))
        merged_q, merged_m = merged_q[sel], merged_m[sel]
        counts = np.bincount(merged_q, minlength=c)
        seg_starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        ranks = np.arange(len(merged_q)) - np.repeat(seg_starts, counts)
        keep = ranks < shortlist
        short_q, short_m = merged_q[keep], merged_m[keep]
        # Exact float64 rescore of the shortlist: similarities returned
        # to callers are true cosines, and ranking inside the shortlist
        # is immune to quantization error.
        s_exact = np.einsum(
            "ij,ij->i", self.units[rows[short_q]], self.units[short_m]
        )
        rescored = len(s_exact)
        sel2 = np.lexsort((-s_exact, short_q))
        short_q, short_m, s_exact = short_q[sel2], short_m[sel2], s_exact[sel2]
        counts2 = np.bincount(short_q, minlength=c)
        seg2 = np.concatenate(([0], np.cumsum(counts2[:-1])))
        ranks2 = np.arange(len(short_q)) - np.repeat(seg2, counts2)
        take = ranks2 < k
        nb = np.full((c, k), -1, dtype=np.int64)
        s64 = np.full((c, k), -np.inf)
        nb[short_q[take], ranks2[take]] = short_m[take]
        s64[short_q[take], ranks2[take]] = s_exact[take]
        short = counts < k
        fallbacks = int(short.sum())
        if fallbacks:
            fb_nb, fb_s = exact_topk(self.units, rows[short], k, exclude_self)
            nb[short] = fb_nb
            s64[short] = fb_s
        return nb, s64, {
            "probes": c * p,
            "scored": scored,
            "rescored": rescored,
            "fallbacks": fallbacks,
        }

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
