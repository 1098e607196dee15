"""Hierarchical navigable small-world (HNSW) cosine k-NN, pure numpy.

The index is a Malkov-Yashunin-style layered proximity graph.  Every
node draws a geometric level (``floor(-ln(U) / ln(M))``); level 0 holds
all nodes with up to ``2M`` links each, higher levels hold a
geometrically thinning subset with up to ``M`` links.  A query greedily
descends the upper layers to a good global entry point, then runs an
``ef_search``-wide best-first beam over the layer-0 graph — so search
cost tracks the (logarithmic) graph diameter and the beam width, not
N, unlike the IVF backends' linear probed-list scans.

Staying pure numpy forces a few deliberate departures from the
textbook sequential algorithm; each is an implementation strategy, not
a semantic change, and the recall self-audit measures whatever
approximation remains:

* **Cluster-local node ids.**  Graph nodes live in an *internal* id
  space ordered by a coarse spherical k-means over the vectors, with
  the cells themselves laid out along a greedy nearest-centroid tour
  (:attr:`HNSWIndex.node_row` maps internal id -> embedding row).  A
  query's neighbourhood therefore occupies a short *contiguous* run
  of ids, which turns beam seeding into dense BLAS work and keeps the
  visited set cache-resident — numpy fancy-indexing is memory-bound,
  and this relabeling is worth an order of magnitude over the naive
  layout.  The clustering only relabels: results do not depend on
  its quality.
* **Lockstep beams.**  Queries are processed in chunks that advance
  *together*: each iteration expands the best few unexpanded
  candidates of every still-active query at once and scores all
  gathered neighbours with one batched float32 einsum.  Termination
  stays per query and conservative (a query only retires when its
  best unexpanded candidate cannot improve its beam), so recall never
  drops below one-at-a-time expansion.
* **Window-scan seeding.**  Every consumer in this codebase queries
  *rows of the index* (the LOO classifier, the k'-NN graph, drift
  churn, the serve read path), so each beam is seeded by exhaustively
  scoring the query's own id window — :data:`_SCAN_WINDOW` contiguous
  rows around its node, one shared BLAS matmul per aligned window —
  alongside the global entry found by the upper-layer descent.  A
  contiguous window row costs a fraction of one gathered graph
  candidate, and the beam then only chases what the window missed
  (clusters split across distant cells, drifted warm-update vectors)
  through graph edges.  The descent walks the geometrically small
  levels >= 2; level-1 refinement is subsumed by the layer-0 beam
  (every level-1 node is a layer-0 node), which the scan has already
  placed in the right region.
* **Heuristic neighbour selection.**  Forward links are chosen with
  the distance-based heuristic (Malkov-Yashunin Alg. 4) — candidates
  closer to an already-selected neighbour than to the new node are
  skipped, spreading edges across directions — then topped up with
  the nearest pruned candidates (the ``keepPrunedConnections``
  variant), which keeps dense same-cluster neighbourhoods reachable.
* **f32 traversal, f64 answers.**  Graph traversal scores in float32;
  the final candidate set is rescored in float64 against the original
  vectors, so returned similarities are exact for the neighbours
  found and directly comparable with the exact backend's.

:meth:`HNSWIndex.updated` supports warm daily retrains in O(new):
internal ids are *stable* across generations, so retained rows keep
their links (their vectors moved slightly — the recall audit and the
``ann_recall`` health monitor guard that, exactly as they guard IVF's
kept list assignments), fresh rows are appended and inserted
incrementally, and evicted rows become *tombstones*: their last live
vector stays navigable inside the graph but is filtered from every
result.  When total nodes exceed live rows by the occupancy threshold
the graph is rebuilt from scratch (mirroring IVF's imbalance retrain)
and ``ann.retrains`` is counted.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.ann import audit
from repro.ann.base import AnnSpec, NeighborIndex, check_query
from repro.ann.exact import exact_topk
from repro.ann.ivf import _nearest_centroid, _train_centroids
from repro.parallel.pool import WorkerPool

#: Temp-buffer budget (bytes) for exact candidate matmuls and
#: candidate-vector gathers (same role as the IVF score budget).
_SCORE_BUDGET_BYTES = 16 << 20

#: Budget (bytes) for the per-chunk ``queries x nodes`` visited bitmap
#: of the layer-0 beam; bounds query chunk sizes.
_VISITED_BUDGET_BYTES = 256 << 20

#: Beam candidates expanded per lockstep iteration and query.  More
#: than 1 trades some over-expansion (candidates a strict best-first
#: order would have pruned) for far fewer synchronised iterations —
#: and so far less interpreter overhead.
_EXPAND_WIDTH = 8

#: Entry seeds per query when inserting into a partially built layer 0
#: (searches use the upper-layer descent plus warm self-seeds instead).
_PROBE_SEEDS = 4
_PROBE_SAMPLE = 512

#: Hard cap on drawn levels (reached with probability ~M^-24).
_LEVEL_CAP = 24

#: Rows of the id space exhaustively scanned around each query to
#: seed its beam (node ids are cluster-sorted, so this window holds
#: the query's own neighbourhood), and the alignment of window starts
#: (queries sharing an aligned window share one contiguous matmul).
_SCAN_WINDOW = 2560
_SCAN_BLOCK = 512

#: Greedy-descent hop cap per upper level: convergence typically takes
#: a handful of hops, and a straggler pinned between near-equal upper
#: nodes costs a full lockstep round each extra hop.
_DESCENT_CAP = 8

#: Layer-0 insertion chunk cap: one chunk is one lockstep beam batch.
_MAX_INSERT_CHUNK = 4096

#: Default tombstone occupancy ratio — total graph nodes over live
#: rows — above which :meth:`HNSWIndex.updated` rebuilds the graph
#: instead of evolving it.  4.0 means the graph is rebuilt once
#: tombstones outnumber live rows three to one, the same trigger shape
#: as IVF's list-imbalance retrain.
RETRAIN_OCCUPANCY = 4.0


def _geometric_levels(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a geometric level per node: P(level >= l) = M^-l."""
    u = np.maximum(rng.random(n), 1e-300)
    levels = np.floor(-np.log(u) / math.log(m)).astype(np.int64)
    return np.minimum(levels, _LEVEL_CAP)


def _centroid_tour(centroids: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbour tour position of every centroid.

    Orders the k-means cells so that *adjacent cell ids are spatially
    adjacent cells*: the tour starts at cell 0 and repeatedly hops to
    the nearest unvisited centroid.  Without it, two neighbouring
    regions of the sphere could land at opposite ends of the id space
    and every cross-cell neighbour would fall outside the query's scan
    window.  Returns ``position[cell]`` in the tour.
    """
    c = len(centroids)
    sims = centroids @ centroids.T
    position = np.empty(c, dtype=np.int64)
    cur = 0
    for step in range(c):
        position[cur] = step
        sims[:, cur] = -np.inf
        if step < c - 1:
            cur = int(np.argmax(sims[cur]))
    return position


def _exact_candidates(
    vecs32: np.ndarray, cand: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``cand`` neighbours of every row among all rows (no self).

    Returns ``(ids, sims)`` of shape (C, cand) in local positions,
    -1 / -inf padded, sorted by decreasing similarity.  Used for the
    geometrically small upper layers and the layer-0 seed block.
    """
    c = len(vecs32)
    cand = max(0, min(cand, c - 1))
    ids = np.full((c, cand), -1, dtype=np.int64)
    sims = np.full((c, cand), -np.inf, dtype=np.float32)
    if cand == 0:
        return ids, sims
    step = max(16, _SCORE_BUDGET_BYTES // max(1, 4 * c))
    for lo in range(0, c, step):
        hi = min(lo + step, c)
        scores = vecs32[lo:hi] @ vecs32.T
        scores[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        top = np.argpartition(scores, -cand, axis=1)[:, -cand:]
        top_scores = np.take_along_axis(scores, top, axis=1)
        order = np.argsort(-top_scores, axis=1, kind="stable")
        ids[lo:hi] = np.take_along_axis(top, order, axis=1)
        sims[lo:hi] = np.take_along_axis(top_scores, order, axis=1)
    return ids, sims


def _select_links(
    vectors32: np.ndarray,
    cand_ids: np.ndarray,
    cand_sims: np.ndarray,
    m: int,
    fill: int = 0,
) -> np.ndarray:
    """Neighbour selection: diversity heuristic plus pruned top-up.

    First applies the distance-based heuristic, batched across
    queries: repeatedly keep the closest remaining candidate, then
    discard every candidate closer to an already-kept neighbour than
    to the query, so the ``m`` kept links fan out across directions
    instead of piling into one cluster.  With ``fill > 0`` the result
    is then topped up to ``m + fill`` links with the highest-similarity
    *pruned* candidates (``keepPrunedConnections``): on corpora with
    dense near-duplicate clumps the heuristic alone keeps a single
    link into a clump, which starves intra-clump recall.

    ``cand_ids`` indexes ``vectors32``; -1 pads.  Returns
    (B, m + fill) selected ids, -1 padded, duplicate-free per row.
    """
    b, c = cand_ids.shape
    selected = np.full((b, m + fill), -1, dtype=np.int64)
    if c == 0 or b == 0:
        return selected
    dim = vectors32.shape[1]
    step = max(16, _SCORE_BUDGET_BYTES // max(1, 4 * c * dim))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        ids = cand_ids[lo:hi]
        alive = ids >= 0
        sims = np.where(alive, cand_sims[lo:hi], -np.inf).astype(np.float32)
        pruned = np.full_like(sims, -np.inf)
        cand_vecs = vectors32[ids.clip(min=0)]  # (chunk, c, V)
        rows = np.arange(hi - lo)
        for j in range(m):
            best = np.argmax(np.where(alive, sims, -np.inf), axis=1)
            ok = alive[rows, best]
            if not ok.any():
                break
            pick = ids[rows, best]
            selected[lo:hi][ok, j] = pick[ok]
            alive[rows, best] = False
            dom = np.einsum(
                "bcv,bv->bc", cand_vecs, vectors32[pick.clip(min=0)]
            )
            # Candidates closer to the picked neighbour than to the
            # query are pruned (no-op for rows with an invalid pick —
            # they have no alive candidates left).
            cut = alive & (dom > sims)
            pruned[cut] = sims[cut]
            alive &= ~cut
        if fill:
            # A tiny corpus may offer fewer than ``fill`` candidates;
            # the top-up takes what there is and the rest stays -1.
            order = np.argsort(-pruned, axis=1)[:, :fill]
            fills = np.where(
                np.take_along_axis(pruned, order, axis=1) > -np.inf,
                np.take_along_axis(ids, order, axis=1),
                -1,
            )
            selected[lo:hi, m : m + fills.shape[1]] = fills
    return selected


class HNSWIndex(NeighborIndex):
    """Layered small-world graph over row-normalised vectors.

    Construct through :meth:`build` (grows the graph) or
    :meth:`updated` (evolves an existing graph); the bare constructor
    wires pre-computed parts (store loads).

    Attributes:
        units: the indexed float64 matrix, original row order.
        node_row: internal node id -> embedding row; -1 marks a
            tombstone (an evicted row still navigable in the graph but
            filtered from every result).
        levels: drawn level per internal node.
        links0: (T, 2M) layer-0 adjacency, -1 padded, internal ids.
        upper_nodes / upper_links: per level >= 1, the member node ids
            and their (len(members), M) adjacency.
        entry: internal id the upper-layer descent starts from.
    """

    #: :class:`AnnSpec` fields the graph is built from; the others
    #: (``hnsw_ef_search``, ``recall_sample``) only steer searches.
    BUILD_FIELDS = ("hnsw_m", "hnsw_ef_build", "seed")

    def __init__(
        self,
        units: np.ndarray,
        spec: AnnSpec,
        node_row: np.ndarray,
        levels: np.ndarray,
        links0: np.ndarray,
        upper_nodes: list[np.ndarray],
        upper_links: list[np.ndarray],
        entry: int,
        ghost_vecs: np.ndarray | None = None,
        units32: np.ndarray | None = None,
    ) -> None:
        self.units = np.asarray(units, dtype=np.float64)
        self.spec = spec
        self.node_row = np.asarray(node_row, dtype=np.int64)
        self.levels = np.asarray(levels, dtype=np.int64)
        self.links0 = np.asarray(links0, dtype=np.int64)
        self.upper_nodes = [np.asarray(x, dtype=np.int64) for x in upper_nodes]
        self.upper_links = [np.asarray(x, dtype=np.int64) for x in upper_links]
        self.entry = int(entry)
        n, dim = self.units.shape
        t = len(self.node_row)
        if len(self.levels) != t or len(self.links0) != t:
            raise ValueError("graph arrays and node_row must align")
        self.units32 = (
            units32 if units32 is not None else self.units.astype(np.float32)
        )
        live = self.node_row >= 0
        if int(live.sum()) != n:
            raise ValueError("node_row must cover every row exactly once")
        self.nav32 = np.empty((t, dim), dtype=np.float32)
        self.nav32[live] = self.units32[self.node_row[live]]
        n_ghost = t - n
        if n_ghost:
            if ghost_vecs is None or len(ghost_vecs) != n_ghost:
                raise ValueError("ghost_vecs must cover every tombstone")
            self.nav32[~live] = np.asarray(ghost_vecs, dtype=np.float32)
        self.row_node = np.empty(n, dtype=np.int64)
        self.row_node[self.node_row[live]] = np.flatnonzero(live)
        self._rebuild_upper_pos()
        self._spans: tuple[np.ndarray, np.ndarray] | None = None
        #: recall@k measured by the most recent search's audit.
        self.last_recall: float | None = None

    def _link_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (min, max) layer-0 link id, cached between
        searches and invalidated by link mutation.  A node whose span
        sits inside a query's scan window has nothing new to offer
        that query's beam.  Unlinked nodes get an empty span
        (lo = int64 max, hi = -1), which never looks useful."""
        if self._spans is None:
            valid = self.links0 >= 0
            lo = np.where(
                valid, self.links0, np.iinfo(np.int64).max
            ).min(axis=1)
            hi = np.where(valid, self.links0, -1).max(axis=1)
            self._spans = (lo, hi)
        return self._spans

    @property
    def ghost_vecs(self) -> np.ndarray:
        """Frozen f32 vectors of the tombstoned nodes, internal order."""
        return self.nav32[self.node_row < 0]

    def _rebuild_upper_pos(self) -> None:
        self.max_level = len(self.upper_nodes)
        t = len(self.node_row)
        self._upper_pos = []
        for nodes in self.upper_nodes:
            pos = np.full(t, -1, dtype=np.int64)
            pos[nodes] = np.arange(len(nodes))
            self._upper_pos.append(pos)

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, units: np.ndarray, spec: AnnSpec, workers: int = 1
    ) -> "HNSWIndex":
        """Grow the layered graph over ``units`` from scratch."""
        units = np.asarray(units, dtype=np.float64)
        n = len(units)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        m = spec.hnsw_m
        t0 = time.perf_counter()
        with obs.span(
            "ann.build", n=n, backend="hnsw", m=m, ef_build=spec.hnsw_ef_build
        ):
            units32 = units.astype(np.float32)
            # Cluster-local internal ids: order nodes by a coarse
            # spherical k-means so a beam's gathers and visited-bitmap
            # writes stay within a few contiguous pages (see module
            # docstring).  The clustering only relabels — graph
            # topology and results do not depend on its quality.
            nlist = max(1, int(round(math.sqrt(n))))
            centroids = _train_centroids(units32, nlist, spec.seed)
            tour = _centroid_tour(centroids)
            node_row = np.argsort(
                tour[_nearest_centroid(units32, centroids)], kind="stable"
            )
            rng = np.random.default_rng(spec.seed)
            levels = _geometric_levels(n, m, rng)
            index = cls._grow(units, spec, node_row, levels, units32)
        obs.observe("ann.graph_build_seconds", time.perf_counter() - t0)
        return index

    @classmethod
    def _grow(
        cls,
        units: np.ndarray,
        spec: AnnSpec,
        node_row: np.ndarray,
        levels: np.ndarray,
        units32: np.ndarray,
    ) -> "HNSWIndex":
        n = len(units)
        m = spec.hnsw_m
        nav32 = units32[node_row]
        # Upper layers are geometrically small (about n / M^level
        # nodes), so they are built *exactly*: full top-candidate
        # lists, then the selection heuristic — better navigation than
        # incrementally grown layers, at negligible cost.
        max_level = int(levels.max())
        upper_nodes: list[np.ndarray] = []
        upper_links: list[np.ndarray] = []
        for level in range(1, max_level + 1):
            nodes = np.flatnonzero(levels >= level)
            cand_ids, cand_sims = _exact_candidates(
                nav32[nodes], min(len(nodes) - 1, 3 * m)
            )
            sel = _select_links(nav32[nodes], cand_ids, cand_sims, m)
            upper_nodes.append(nodes)
            upper_links.append(np.where(sel >= 0, nodes[sel.clip(min=0)], -1))
        links0 = np.full((n, 2 * m), -1, dtype=np.int64)
        # Insert in descending-level order: hub nodes enter the
        # layer-0 graph first, so every later batch can navigate
        # through them.
        order = np.argsort(-levels, kind="stable")
        index = cls(
            units,
            spec,
            node_row,
            levels,
            links0,
            upper_nodes,
            upper_links,
            entry=int(order[0]),
            units32=units32,
        )
        s0 = min(n, max(4 * m, 64))
        seed = order[:s0]
        cand_ids, cand_sims = _exact_candidates(
            nav32[seed], min(s0 - 1, 3 * m)
        )
        sel = _select_links(nav32[seed], cand_ids, cand_sims, m, fill=m // 2)
        index._link_new(seed, np.where(sel >= 0, seed[sel.clip(min=0)], -1))
        pos = s0
        while pos < n:
            chunk = max(64, _VISITED_BUDGET_BYTES // max(1, n))
            take = min(n - pos, max(256, pos), chunk, _MAX_INSERT_CHUNK)
            index._insert_chunk(order[pos : pos + take], order[:pos])
            pos += take
        return index

    def _insert_chunk(
        self, new_ids: np.ndarray, inserted: np.ndarray
    ) -> None:
        """Insert ``new_ids`` into layer 0, searching ``inserted``."""
        m = self.spec.hnsw_m
        q32 = self.nav32[new_ids]
        # A coarse probe over a spread sample of inserted nodes picks
        # the beam entry (the hierarchy is not usable while layer 0 is
        # partially built).
        stride = max(1, len(inserted) // _PROBE_SAMPLE)
        sample = inserted[::stride][:_PROBE_SAMPLE]
        scores = (q32 @ self.nav32[sample].T).astype(np.float32)
        s = min(_PROBE_SEEDS, len(sample))
        top = np.argpartition(scores, -s, axis=1)[:, -s:]
        seeds = sample[top]
        seed_sims = np.take_along_axis(scores, top, axis=1)
        ef = max(self.spec.hnsw_ef_build, m + 1)
        ids, sims, _, _ = self._layer0_beam(q32, seeds, seed_sims, ef)
        sel = _select_links(self.nav32, ids, sims, m, fill=m // 2)
        self._link_new(new_ids, sel)

    def _link_new(self, new_ids: np.ndarray, sel: np.ndarray) -> None:
        """Set forward links of ``new_ids`` and add the reverse edges."""
        self._spans = None
        c = sel.shape[1]
        self.links0[new_ids, :c] = sel
        valid = sel >= 0
        src = np.repeat(new_ids, c)[valid.ravel()]
        dst = sel.ravel()[valid.ravel()]
        if len(dst):
            self._add_reverse(dst, src)

    def _add_reverse(self, dst: np.ndarray, src: np.ndarray) -> None:
        """Insert each ``src`` into ``dst``'s layer-0 list, pruning
        overflow by keeping the ``2M`` highest-similarity links."""
        m0 = self.links0.shape[1]
        sims = np.einsum(
            "ev,ev->e", self.nav32[dst], self.nav32[src]
        ).astype(np.float32)
        # Per-destination top-m0 pre-truncation bounds the padded
        # incoming matrix even if one hub receives a whole chunk.
        order = np.lexsort((-sims, dst))
        dst_s, src_s, sims_s = dst[order], src[order], sims[order]
        starts = np.flatnonzero(np.r_[True, np.diff(dst_s) != 0])
        counts = np.diff(np.r_[starts, len(dst_s)])
        rank = np.arange(len(dst_s)) - np.repeat(starts, counts)
        keep = rank < m0
        dst_s, src_s, sims_s, rank = (
            dst_s[keep],
            src_s[keep],
            sims_s[keep],
            rank[keep],
        )
        starts = np.flatnonzero(np.r_[True, np.diff(dst_s) != 0])
        counts = np.diff(np.r_[starts, len(dst_s)])
        u = dst_s[starts]
        maxc = int(counts.max())
        gidx = np.repeat(np.arange(len(u)), counts)
        inc = np.full((len(u), maxc), -1, dtype=np.int64)
        inc_sims = np.full((len(u), maxc), -np.inf, dtype=np.float32)
        inc[gidx, rank] = src_s
        inc_sims[gidx, rank] = sims_s
        exist = self.links0[u]
        evalid = exist >= 0
        exist_sims = np.where(
            evalid,
            np.einsum(
                "umv,uv->um", self.nav32[exist.clip(min=0)], self.nav32[u]
            ),
            -np.inf,
        ).astype(np.float32)
        cand = np.concatenate([exist, inc], axis=1)
        cand_sims = np.concatenate([exist_sims, inc_sims], axis=1)
        # Drop duplicate ids within a row (an incoming reverse edge may
        # already be a forward link): link rows must stay duplicate-free
        # or beams would double-count a candidate.
        id_order = np.argsort(cand, axis=1, kind="stable")
        cand = np.take_along_axis(cand, id_order, axis=1)
        cand_sims = np.take_along_axis(cand_sims, id_order, axis=1)
        dup = np.zeros_like(cand, dtype=bool)
        dup[:, 1:] = (cand[:, 1:] == cand[:, :-1]) & (cand[:, 1:] >= 0)
        cand[dup] = -1
        cand_sims[dup] = -np.inf
        kept = np.argpartition(cand_sims, -m0, axis=1)[:, -m0:]
        self.links0[u] = np.take_along_axis(cand, kept, axis=1)

    # -- incremental update --------------------------------------------

    def updated(
        self,
        units: np.ndarray,
        prior_rows: np.ndarray,
        workers: int = 1,
        retrain_threshold: float = RETRAIN_OCCUPANCY,
        spec: AnnSpec | None = None,
    ) -> "HNSWIndex":
        """Index for the next model generation, reusing this graph.

        Args:
            units: row-normalised vectors of the *new* model.
            prior_rows: for each new row, its row in this index, or -1
                for senders this index has never seen.
            workers: parallelism for a rebuild, if one is triggered.
            retrain_threshold: occupancy ratio — total graph nodes
                over live rows — above which the graph is rebuilt from
                scratch instead of evolved.
            spec: knobs of the new index (default: this index's); its
                :attr:`BUILD_FIELDS` should match this index's (see
                :func:`repro.ann.base.can_evolve`).

        Internal node ids are stable across generations: retained rows
        keep their node (and links) with the refreshed vector, evicted
        rows become tombstones frozen at their last live vector, and
        fresh rows are appended and inserted incrementally — O(new)
        work on a no-eviction day.
        """
        units = np.asarray(units, dtype=np.float64)
        prior_rows = np.asarray(prior_rows, dtype=np.int64)
        spec = spec or self.spec
        if len(prior_rows) != len(units):
            raise ValueError("prior_rows and units must align")
        n = len(units)
        if n == 0:
            raise ValueError("cannot build an index over zero vectors")
        kept = prior_rows >= 0
        fresh = np.flatnonzero(~kept)
        t_old = len(self.node_row)
        if (t_old + len(fresh)) / n > retrain_threshold:
            obs.add("ann.retrains")
            return HNSWIndex.build(units, spec, workers=workers)
        node_row = np.full(t_old + len(fresh), -1, dtype=np.int64)
        node_row[self.row_node[prior_rows[kept]]] = np.flatnonzero(kept)
        node_row[t_old:] = fresh
        old_live = self.node_row >= 0
        ghost_vecs = np.ascontiguousarray(
            self.nav32[node_row[: t_old] < 0]
        )
        m = self.spec.hnsw_m
        # Seed on (base seed, population, generation size) so
        # consecutive days draw fresh — but reproducible — levels.
        rng = np.random.default_rng([self.spec.seed, n, t_old])
        levels = np.concatenate(
            [self.levels, _geometric_levels(len(fresh), m, rng)]
        )
        links0 = np.concatenate(
            [
                self.links0,
                np.full((len(fresh), 2 * m), -1, dtype=np.int64),
            ]
        )
        index = HNSWIndex(
            units,
            spec,
            node_row,
            levels,
            links0,
            [nodes.copy() for nodes in self.upper_nodes],
            [links.copy() for links in self.upper_links],
            entry=self.entry,
            ghost_vecs=ghost_vecs,
            units32=units.astype(np.float32),
        )
        del old_live
        if len(fresh):
            new_nodes = np.arange(t_old, t_old + len(fresh))
            index._insert_upper(new_nodes)
            prior_nodes = np.arange(t_old)
            chunk = min(
                max(64, _VISITED_BUDGET_BYTES // max(1, len(node_row))),
                _MAX_INSERT_CHUNK,
            )
            for lo in range(0, len(new_nodes), chunk):
                index._insert_chunk(new_nodes[lo : lo + chunk], prior_nodes)
        return index

    def _insert_upper(self, new_nodes: np.ndarray) -> None:
        """Link new nodes into the upper layers they drew (rare:
        ~1/M of fresh nodes reach level 1, 1/M^2 level 2, ...)."""
        m = self.spec.hnsw_m
        climbers = new_nodes[self.levels[new_nodes] >= 1]
        for node in climbers:
            for level in range(1, int(self.levels[node]) + 1):
                if level > self.max_level:
                    self.upper_nodes.append(np.array([node], dtype=np.int64))
                    self.upper_links.append(
                        np.full((1, m), -1, dtype=np.int64)
                    )
                    self.max_level = level
                    self.entry = int(node)
                    continue
                members = self.upper_nodes[level - 1]
                links = self.upper_links[level - 1]
                sims = (self.nav32[members] @ self.nav32[node]).astype(
                    np.float32
                )
                c = min(len(members), 3 * m)
                top = (
                    np.argpartition(sims, -c)[-c:]
                    if c < len(members)
                    else np.arange(len(members))
                )
                sel = _select_links(
                    self.nav32,
                    members[top][None, :],
                    sims[top][None, :],
                    m,
                )[0]
                sel = sel[sel >= 0]
                row = np.full(m, -1, dtype=np.int64)
                row[: len(sel)] = sel
                self.upper_nodes[level - 1] = np.append(members, node)
                self.upper_links[level - 1] = np.vstack([links, row])
                # Reverse edges, top-M pruned by similarity.
                for nbr in sel:
                    pos = int(
                        np.flatnonzero(self.upper_nodes[level - 1] == nbr)[0]
                    )
                    nbr_links = self.upper_links[level - 1][pos]
                    if node in nbr_links:
                        continue
                    slot = np.flatnonzero(nbr_links < 0)
                    if len(slot):
                        nbr_links[slot[0]] = node
                        continue
                    cand = np.append(nbr_links, node)
                    cand_sims = self.nav32[cand] @ self.nav32[nbr]
                    drop = int(np.argmin(cand_sims))
                    self.upper_links[level - 1][pos] = np.delete(cand, drop)
        self._rebuild_upper_pos()

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
        t = len(self.node_row)
        step = max(16, _VISITED_BUDGET_BYTES // max(1, min(t, _SCAN_WINDOW)))
        chunks = [(lo, min(lo + step, q)) for lo in range(0, q, step)]

        def search_chunk(bounds: tuple[int, int]) -> tuple:
            # Returns the chunk's outputs instead of writing shared
            # arrays: process-backend workers see copy-on-write memory,
            # so the parent assembles (bit-identical either way).
            lo, hi = bounds
            nb, s64, chunk_stats = self._search_chunk(
                rows[lo:hi], k, exclude_self
            )
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
        hops = sum(s["hops"] for s in stats)
        scored = sum(s["scored"] for s in stats)
        fallbacks = sum(s["fallbacks"] for s in stats)
        computed = scored + fallbacks * n
        obs.add("knn.distance_computations", computed)
        obs.add("ann.hops", hops)
        obs.add("ann.candidates_scored", scored)
        if stats:  # a search for zero rows has no chunks
            obs.observe_many(
                "ann.candidate_set_size",
                np.concatenate([s["beam_sizes"] for s in stats]),
            )
        obs.observe_many("knn.neighbor_distance", 1.0 - sims.ravel())
        if rec.enabled:
            obs.observe("knn.search_seconds", time.perf_counter() - t0)
        self._audit(rows, neighbors, k, exclude_self)
        return neighbors, sims

    def _search_chunk(
        self, rows: np.ndarray, k: int, exclude_self: bool
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Search one query chunk; returns (neighbors, sims, stats)."""
        qnodes = self.row_node[rows]
        q32 = self.nav32[qnodes]
        qn = len(rows)
        t = len(self.node_row)
        entries, d_hops, d_scored = self._descend(q32)
        # Seed the beam with an exhaustive scan of the query's own
        # id window.  Node ids are cluster-sorted along a centroid
        # tour, so the window holds the query's neighbourhood as
        # *contiguous* rows — queries sharing an aligned window share
        # one BLAS matmul, which scores a window row for a fraction of
        # the cost of one gathered graph candidate.  The beam then
        # only has to chase neighbourhoods the window missed (clusters
        # split across distant cells, drifted warm-update vectors)
        # through graph edges, starting from the query's own node —
        # scanned at similarity ~1, hence expanded first.
        w = min(_SCAN_WINDOW, t)
        base = np.clip(
            (qnodes - w // 2) // _SCAN_BLOCK * _SCAN_BLOCK, 0, t - w
        )
        order = np.argsort(base, kind="stable")
        scores = np.empty((qn, w), dtype=np.float32)
        ob = base[order]
        bounds = np.flatnonzero(np.r_[True, np.diff(ob) != 0])
        for i, j in zip(bounds, np.r_[bounds[1:], len(ob)]):
            g = order[i:j]
            b = int(ob[i])
            scores[g] = q32[g] @ self.nav32[b : b + w].T
        d_scored += qn * w
        ef = max(
            self.spec.hnsw_ef_search,
            k + (1 if exclude_self else 0),
        )
        efw = min(ef, w)
        # Two-stage top-ef: a per-row introselect over the whole window
        # is the price of w elements per query; reducing 8-wide groups
        # to their max first shrinks the partition input 8x.  Any
        # element outside the top-efw groups (ranked by group max) is
        # bounded by the efw-th group max, so the result is the exact
        # top-efw up to ties.
        grp = 8
        ngrp = w // grp
        if ngrp >= efw and w % grp == 0:
            gmax = scores.reshape(qn, ngrp, grp).max(axis=2)
            gpart = np.argpartition(gmax, -efw, axis=1)[:, -efw:]
            cols = (
                gpart[:, :, None] * grp + np.arange(grp)
            ).reshape(qn, efw * grp)
            sub = np.take_along_axis(scores, cols, axis=1)
            sp = np.argpartition(sub, -efw, axis=1)[:, -efw:]
            part = np.take_along_axis(cols, sp, axis=1)
        else:
            part = np.argpartition(scores, -efw, axis=1)[:, -efw:]
        seed_sims = np.take_along_axis(scores, part, axis=1)
        seeds = base[:, None] + part
        # The descent's global entry rides along as one extra seed
        # (unless the scan already covered it).
        ent_sims = np.einsum(
            "av,av->a", self.nav32[entries], q32
        ).astype(np.float32)
        in_scan = (entries >= base) & (entries < base + w)
        seeds = np.concatenate(
            [seeds, np.where(in_scan, -1, entries)[:, None]], axis=1
        )
        seed_sims = np.concatenate(
            [seed_sims, np.where(in_scan, -np.inf, ent_sims)[:, None]],
            axis=1,
        )
        ids, _, b_hops, b_scored = self._layer0_beam(
            q32,
            seeds,
            seed_sims,
            efw + 1,
            base=base,
            window=w,
            stop=max(k + 1, efw // 4),
        )
        # The windowed visited bitmap can let a far candidate into the
        # beam twice; keep candidate rows duplicate-free before ranking.
        order = np.argsort(ids, axis=1, kind="stable")
        ids = np.take_along_axis(ids, order, axis=1)
        dup = np.zeros_like(ids, dtype=bool)
        dup[:, 1:] = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
        ids[dup] = -1
        out_rows = np.where(ids >= 0, self.node_row[ids.clip(min=0)], -1)
        live = out_rows >= 0
        if exclude_self:
            live &= out_rows != rows[:, None]
        counts = live.sum(axis=1)
        # Exact float64 rescore of the surviving candidate set: the
        # returned similarities are exact for the neighbours found.
        s64 = np.einsum(
            "qcv,qv->qc",
            self.units[np.where(live, out_rows, 0)],
            self.units[rows],
        )
        s64[~live] = -np.inf
        order = np.argsort(-s64, axis=1, kind="stable")[:, :k]
        nb = np.take_along_axis(np.where(live, out_rows, -1), order, axis=1)
        s = np.take_along_axis(s64, order, axis=1)
        short = counts < k
        fallbacks = int(short.sum())
        if fallbacks:
            fb_nb, fb_s = exact_topk(self.units, rows[short], k, exclude_self)
            nb[short] = fb_nb
            s[short] = fb_s
        stats = {
            "hops": d_hops + b_hops,
            "scored": d_scored + b_scored + int(live.sum()),
            "fallbacks": fallbacks,
            "beam_sizes": counts.astype(np.float64),
        }
        return nb, s, stats

    def _descend(
        self, q32: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Greedy best-neighbour descent through levels >= 2.

        Stops above level 1: every level-1 node is also a layer-0
        node, so the refinement the level-1 pass would buy is subsumed
        by the ``ef_search`` beam — which the warm self-seeds have
        already placed in the right region.  Walking level 1 (by far
        the largest upper layer) would roughly double query cost for
        a marginal recall gain.
        """
        a = len(q32)
        cur = np.full(a, self.entry, dtype=np.int64)
        hops = 0
        scored = a
        if self.max_level < 2:
            return cur, hops, scored
        cur_sim = (q32 @ self.nav32[self.entry]).astype(np.float32)
        for level in range(self.max_level, 1, -1):
            links = self.upper_links[level - 1]
            pos = self._upper_pos[level - 1]
            active = np.ones(a, dtype=bool)
            for _ in range(_DESCENT_CAP):
                if not active.any():
                    break
                sel = np.flatnonzero(active)
                nb = links[pos[cur[sel]]]
                valid = nb >= 0
                s = np.einsum(
                    "amv,av->am", self.nav32[nb.clip(min=0)], q32[sel]
                ).astype(np.float32)
                s[~valid] = -np.inf
                hops += len(sel)
                scored += int(valid.sum())
                best = np.argmax(s, axis=1)
                arange = np.arange(len(sel))
                best_sim = s[arange, best]
                better = best_sim > cur_sim[sel]
                cur[sel[better]] = nb[arange, best][better]
                cur_sim[sel[better]] = best_sim[better]
                active[sel[~better]] = False
        return cur, hops, scored

    def _layer0_beam(
        self,
        q32: np.ndarray,
        seeds: np.ndarray,
        seed_sims: np.ndarray,
        ef: int,
        base: np.ndarray | None = None,
        window: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Lockstep best-first beam over the layer-0 graph.

        All queries of the chunk advance together: every iteration
        expands up to :data:`_EXPAND_WIDTH` best unexpanded candidates
        per still-active query, scores the union of their neighbours
        in one batched einsum, and folds them back into the per-query
        top-``ef`` beams.  A query retires when its best unexpanded
        candidate cannot reach the top ``stop`` of its beam
        (``stop = ef``, the classic rule, when not given): with a
        scan-seeded beam most candidates are known-good window rows
        whose expansion the scan already covered, so search passes a
        small ``stop`` to spend expansions only where they can still
        change the top of the beam.

        ``seeds`` rows must be duplicate-free (-1 pads allowed, with
        ``seed_sims`` -inf there); rows wider than ``ef`` keep their
        top-``ef`` seeds by similarity.

        With ``base``/``window`` given (the scan-seeded search path),
        no visited set is kept at all: the scan has already scored the
        whole window ``[base[q], base[q] + window)`` — and seeded the
        beam with its exact top — so in-window neighbours are dropped
        outright, and the expansion of one iteration collapses into a
        single vectorised gather.  Out-of-window candidates may be
        rediscovered later; the merge de-duplicates them beam-side,
        and callers de-duplicate the returned candidate rows.
        Without ``base`` a zeroed full-width (Q, T) bitmap dedups
        visits and seeds are marked here (the build path, whose
        insert beams have no windows).

        Returns (ids, sims) of shape (Q, ef) — -1 / -inf padded, in no
        particular order — plus hop and scored-candidate counts.
        """
        qn = len(q32)
        t = len(self.node_row)
        s = seeds.shape[1]
        if s > ef:
            keep = np.argpartition(seed_sims, -ef, axis=1)[:, -ef:]
            seeds = np.take_along_axis(seeds, keep, axis=1)
            seed_sims = np.take_along_axis(seed_sims, keep, axis=1)
            s = ef
        if base is None:
            visited = np.zeros((qn, t), dtype=bool)
            fq = np.repeat(np.arange(qn), s)
            fn = seeds.ravel()
            ok = fn >= 0
            visited[fq[ok], fn[ok]] = True
        else:
            span_lo, span_hi = self._link_spans()
        ids = np.full((qn, ef), -1, dtype=np.int64)
        sims = np.full((qn, ef), -np.inf, dtype=np.float32)
        expanded = np.zeros((qn, ef), dtype=bool)
        ids[:, :s] = seeds
        sims[:, :s] = seed_sims
        ids[:, :s][~np.isfinite(sims[:, :s])] = -1
        active = np.ones(qn, dtype=bool)
        width = min(_EXPAND_WIDTH, ef)
        stop = min(stop, ef) if stop else ef
        hops = 0
        scored = 0
        while active.any():
            rows = np.flatnonzero(active)
            bsims = sims[rows]
            bids = ids[rows]
            masked = np.where(expanded[rows] | (bids < 0), -np.inf, bsims)
            # The stop-th best similarity of each beam (-inf while the
            # beam holds fewer than stop candidates, keeping it open).
            stopv = -np.partition(-bsims, stop - 1, axis=1)[:, stop - 1]
            done = masked.max(axis=1) <= stopv
            active[rows[done]] = False
            rows = rows[~done]
            if not len(rows):
                break
            masked = masked[~done]
            stopv = stopv[~done]
            if width < ef:
                part = np.argpartition(-masked, width - 1, axis=1)[:, :width]
            else:
                part = np.broadcast_to(np.arange(ef), masked.shape)
            wsims = np.take_along_axis(masked, part, axis=1)
            allow = wsims > stopv[:, None]
            if base is not None:
                # All allowed expansions of the iteration in one
                # vectorised gather.  No visited set: in-window
                # neighbours are wholly covered by the scan (its exact
                # top seeded the beam, so the rest cannot reach the
                # top-k), and out-of-window repeats are cheaper to drop
                # at the dedup below than to track per query.
                aq, ae = np.nonzero(allow)
                qe = rows[aq]
                se = part[aq, ae]
                expanded[qe, se] = True
                nodes = ids[qe, se]
                # Skip expansions whose whole link list falls inside
                # the scan window — common once the scan has done its
                # work.
                useful = (span_lo[nodes] < base[qe]) | (
                    span_hi[nodes] >= base[qe] + window
                )
                qe = qe[useful]
                nodes = nodes[useful]
                hops += len(qe)
                if not len(qe):
                    continue
                nbrs = self.links0[nodes]
                fq = np.repeat(qe, nbrs.shape[1])
                fn = nbrs.ravel()
                off = fn - base[fq]
                keep = (fn >= 0) & ((off < 0) | (off >= window))
                fq, fn = fq[keep], fn[keep]
            else:
                # Expand wave by wave: visited is updated between
                # waves, so two expansions of one query never enqueue
                # the same neighbour twice (link rows themselves are
                # duplicate-free).
                wave_q: list[np.ndarray] = []
                wave_n: list[np.ndarray] = []
                for e in range(width):
                    take = allow[:, e]
                    if not take.any():
                        continue
                    qe = rows[take]
                    se = part[take, e]
                    expanded[qe, se] = True
                    hops += len(qe)
                    nbrs = self.links0[ids[qe, se]]
                    fq = np.repeat(qe, nbrs.shape[1])
                    fn = nbrs.ravel()
                    ok = fn >= 0
                    fq, fn = fq[ok], fn[ok]
                    unseen = ~visited[fq, fn]
                    fq, fn = fq[unseen], fn[unseen]
                    visited[fq, fn] = True
                    wave_q.append(fq)
                    wave_n.append(fn)
                if not wave_q:
                    continue
                fq = np.concatenate(wave_q)
                fn = np.concatenate(wave_n)
            if not len(fq):
                continue
            order = np.lexsort((fn, fq))
            fq, fn = fq[order], fn[order]
            if base is not None:
                # The window bitmap cannot dedup out-of-window visits,
                # and expanded near-duplicate candidates share most far
                # links — drop repeat (query, node) pairs before paying
                # the gathered einsum for each copy.
                fresh = np.ones(len(fq), dtype=bool)
                fresh[1:] = (fq[1:] != fq[:-1]) | (fn[1:] != fn[:-1])
                fq, fn = fq[fresh], fn[fresh]
                # Score in node-id order: candidates of different
                # queries concentrate in the same few cells, so the
                # sorted gather walks nav32 nearly sequentially.
                forder = np.argsort(fn, kind="stable")
                fsims = np.empty(len(fn), dtype=np.float32)
                fsims[forder] = np.einsum(
                    "cv,cv->c", self.nav32[fn[forder]], q32[fq[forder]]
                ).astype(np.float32)
            else:
                fsims = np.einsum(
                    "cv,cv->c", self.nav32[fn], q32[fq]
                ).astype(np.float32)
            scored += len(fq)
            counts = np.bincount(fq, minlength=qn)
            if int(counts.max()) > ef:
                # Keep at most the top-ef new candidates per query
                # before the rectangular merge below: the beam prunes
                # to ef anyway, and one fat query (a whole link set out
                # of window) would otherwise widen the merge for every
                # query of the iteration.
                order = np.lexsort((-fsims, fq))
                fq, fn, fsims = fq[order], fn[order], fsims[order]
                starts = np.concatenate(([0], np.cumsum(counts)))
                posi = np.arange(len(fq)) - starts[fq]
                keep = posi < ef
                fq, fn, fsims = fq[keep], fn[keep], fsims[keep]
                counts = np.minimum(counts, ef)
            upd = np.flatnonzero(counts > 0)
            maxc = int(counts.max())
            starts = np.concatenate(([0], np.cumsum(counts)))
            posi = np.arange(len(fq)) - starts[fq]
            cid = np.full((len(upd), maxc), -1, dtype=np.int64)
            csim = np.full((len(upd), maxc), -np.inf, dtype=np.float32)
            local = np.full(qn, -1, dtype=np.int64)
            local[upd] = np.arange(len(upd))
            cid[local[fq], posi] = fn
            csim[local[fq], posi] = fsims
            all_ids = np.concatenate([ids[upd], cid], axis=1)
            all_sims = np.concatenate([sims[upd], csim], axis=1)
            all_exp = np.concatenate(
                [expanded[upd], np.zeros_like(cid, dtype=bool)], axis=1
            )
            if base is not None:
                # An out-of-window candidate may be rediscovered in a
                # later iteration (it is never marked visited); drop
                # duplicates, keeping the already-expanded copy so it
                # is not re-walked.  The full-bitmap path cannot see
                # duplicates and skips the pass.
                key = all_ids * 2 + np.where(all_exp, 0, 1)
                korder = np.argsort(key, axis=1, kind="stable")
                all_ids = np.take_along_axis(all_ids, korder, axis=1)
                all_sims = np.take_along_axis(all_sims, korder, axis=1)
                all_exp = np.take_along_axis(all_exp, korder, axis=1)
                dup = np.zeros_like(all_ids, dtype=bool)
                dup[:, 1:] = (
                    all_ids[:, 1:] == all_ids[:, :-1]
                ) & (all_ids[:, 1:] >= 0)
                all_ids[dup] = -1
                all_sims[dup] = -np.inf
            keep = np.argpartition(all_sims, -ef, axis=1)[:, -ef:]
            ids[upd] = np.take_along_axis(all_ids, keep, axis=1)
            sims[upd] = np.take_along_axis(all_sims, keep, axis=1)
            expanded[upd] = np.take_along_axis(all_exp, keep, axis=1)
        return ids, sims, hops, scored

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
