"""Pluggable nearest-neighbour indexes behind one interface.

Every DarkVec result — the k = 7 LOO classifier, the k' = 3 Louvain
graph, drift churn, new-sender extension — reduces to cosine k-NN over
the row-normalised embedding.  :class:`NeighborIndex` is the single
contract those consumers search through, and :data:`BACKENDS` is the
one table that names its implementations; :func:`build_index` builds
the one an :class:`AnnSpec` names:

* ``"exact"`` — :class:`repro.ann.exact.ExactIndex`, the brute-force
  chunked matmul search (bit-identical to the historical
  ``knn_search`` at one worker).
* ``"ivf"`` — :class:`repro.ann.ivf.IVFIndex`, an inverted-file index
  with a spherical k-means coarse quantizer and multi-probe search.
* ``"ivfpq"`` — :class:`repro.ann.ivfpq.IVFPQIndex`, the inverted file
  with product-quantized residuals: candidates are scored from a
  compressed code table (ADC lookups) and only a shortlist is rescored
  exactly, cutting both memory and scan cost at large N.
* ``"hnsw"`` — :class:`repro.ann.hnsw.HNSWIndex`, a hierarchical
  navigable small-world graph: greedy descent through geometrically
  thinning upper layers, then an ``ef_search``-wide beam over the
  layer-0 graph, so per-query cost tracks the graph diameter
  (logarithmic in N) instead of the probed-list mass.

All backends return ``(neighbors, similarities)`` of shape (Q, k) with
neighbours sorted by decreasing float64 cosine similarity, so callers
never need to know which backend served them.  The approximate
backends also define ``updated``, which carries an index over to the
next model generation of a warm update (see :func:`can_evolve`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AnnSpec:
    """Backend selection and tuning knobs for a neighbour index.

    Attributes:
        backend: ``"exact"`` (brute force, the default), ``"ivf"``,
            ``"ivfpq"`` (inverted file + product-quantized residuals),
            or ``"hnsw"`` (hierarchical navigable small-world graph).
        nlist: IVF coarse-quantizer centroids; ``0`` (default) picks
            ``round(sqrt(N))`` at build time, which balances the coarse
            scan (Q x nlist) against the list scans (Q x nprobe x N/nlist).
        nprobe: inverted lists probed per query.  Higher values trade
            speed for recall; ``nprobe >= nlist`` degenerates to exact
            scoring through the list layout.
        recall_sample: queries per search that are re-run exactly to
            measure ``ann.recall_at_k``.  ``0`` disables the audit.
            The audit observes — it never changes returned results —
            so it is deliberately absent from stage fingerprints.
        seed: seed for the k-means sample, centroid init, and the
            recall-audit query sample.
        pq_m: product-quantizer subspaces (``"ivfpq"`` only); ``0``
            (default) picks ``min(16, max(1, dim // 4))`` at build.
        pq_bits: bits per PQ code (``"ivfpq"`` only); each subspace
            trains a codebook of ``2**pq_bits`` entries, 1..8 so codes
            fit one uint8 per subspace.
        hnsw_m: HNSW links per node on the upper layers (layer 0 holds
            ``2 * hnsw_m``); also sets the level decay ``1 / ln(M)``.
        hnsw_ef_build: beam width while inserting nodes at build time.
            Wider beams find better links — a one-time cost paid at
            construction, not per query.
        hnsw_ef_search: beam width at query time; the recall/speed
            knob (IVF's ``nprobe`` analogue).  Values below ``k`` are
            raised to ``k`` (+1 with self-exclusion) per search.
    """

    backend: str = "exact"
    nlist: int = 0
    nprobe: int = 8
    recall_sample: int = 32
    seed: int = 1
    pq_m: int = 0
    pq_bits: int = 8
    hnsw_m: int = 16
    hnsw_ef_build: int = 80
    hnsw_ef_search: int = 8

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"ann backend must be one of {tuple(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.nlist < 0:
            raise ValueError("nlist must be >= 0 (0 means sqrt(N) auto)")
        if self.nprobe < 1:
            raise ValueError("nprobe must be positive")
        if self.recall_sample < 0:
            raise ValueError("recall_sample must be >= 0")
        if self.pq_m < 0:
            raise ValueError("pq_m must be >= 0 (0 means auto)")
        if not 1 <= self.pq_bits <= 8:
            raise ValueError("pq_bits must be in 1..8")
        if self.hnsw_m < 2:
            raise ValueError("hnsw_m must be >= 2")
        if self.hnsw_ef_build < 1:
            raise ValueError("hnsw_ef_build must be positive")
        if self.hnsw_ef_search < 1:
            raise ValueError("hnsw_ef_search must be positive")


class NeighborIndex(ABC):
    """A searchable snapshot of one row-normalised vector set.

    Attributes:
        units: the indexed row-normalised float64 matrix, shape (N, V).
            Consumers (e.g. :class:`repro.knn.classifier.CosineKnn`)
            read it back instead of re-normalising.
    """

    units: np.ndarray

    def __len__(self) -> int:
        return len(self.units)

    @classmethod
    @abstractmethod
    def build(
        cls, units: np.ndarray, spec: AnnSpec, workers: int = 1
    ) -> "NeighborIndex":
        """Index the row-normalised ``units`` with ``spec``'s knobs."""

    @abstractmethod
    def search(
        self,
        query_rows: np.ndarray,
        k: int,
        exclude_self: bool = True,
        workers: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest indexed rows (by cosine) per query row.

        Args:
            query_rows: indices into :attr:`units` of the query points.
            k: neighbours per query.
            exclude_self: drop the query row from its own list.
            workers: query chunks dispatched to a thread pool (0 = all
                cores).

        Returns:
            ``(neighbors, similarities)`` of shape (Q, k); neighbours
            sorted by decreasing float64 similarity.

        A search is reproducible bit for bit for the same query rows
        and ``workers``.  A row's neighbours do not depend on the batch
        it is searched in, its order in it, or ``workers``, unless two
        candidates tie to within rounding (float64 for the exact
        backend, float32 for the approximate backends' candidate
        scores).  Similarities are float64 dot products of the
        returned pairs; the approximate backends compute them one pair
        at a time, so they match bit for bit across batches, except
        for queries answered by an exhaustive fallback, which like the
        exact backend's may differ in the last bit (see
        :mod:`repro.ann.exact`).
        """


def check_query(
    n: int, query_rows: np.ndarray, k: int, exclude_self: bool
) -> np.ndarray:
    """Shared argument validation for every backend's ``search``."""
    if k < 1:
        raise ValueError("k must be positive")
    limit = k + 1 if exclude_self else k
    if n < limit:
        raise ValueError(f"need at least {limit} points for k={k}")
    return np.asarray(query_rows, dtype=np.int64)


def build_index(
    units: np.ndarray, spec: AnnSpec | None = None, workers: int = 1
) -> NeighborIndex:
    """Construct the index ``spec`` asks for over row-normalised ``units``."""
    spec = spec or AnnSpec()
    return BACKENDS[spec.backend].build(units, spec, workers=workers)


def can_evolve(index: NeighborIndex | None, spec: AnnSpec) -> bool:
    """Whether ``index`` can become the index ``spec`` asks for in the
    next model generation through its ``updated`` method, instead of a
    build.

    It can when it is of ``spec``'s backend, that backend has
    ``updated``, and ``index`` was built from the same build-time
    knobs (its class's ``BUILD_FIELDS``).  The search-time knobs
    (``nprobe``, ``recall_sample``, ...) may differ: ``updated(...,
    spec=spec)`` carries them into the evolved index.
    """
    index_class = BACKENDS[spec.backend]
    return (
        hasattr(index_class, "updated")
        and isinstance(index, index_class)
        and all(
            getattr(index.spec, field) == getattr(spec, field)
            for field in index_class.BUILD_FIELDS
        )
    )


# The backend modules import NeighborIndex and AnnSpec from this module,
# so the table naming them is built last.
from repro.ann.exact import ExactIndex  # noqa: E402
from repro.ann.hnsw import HNSWIndex  # noqa: E402
from repro.ann.ivf import IVFIndex  # noqa: E402
from repro.ann.ivfpq import IVFPQIndex  # noqa: E402

#: Every backend by the name configs, flags and codecs use for it.
BACKENDS: dict[str, type[NeighborIndex]] = {
    "exact": ExactIndex,
    "ivf": IVFIndex,
    "ivfpq": IVFPQIndex,
    "hnsw": HNSWIndex,
}
