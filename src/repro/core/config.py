"""DarkVec configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.health import HealthPolicy
from repro.services.auto import AutoServiceMap
from repro.services.base import ServiceMap
from repro.services.domain import DomainServiceMap
from repro.services.single import SingleServiceMap
from repro.trace.packet import Trace

#: The paper's default parameters (Section 6.2): domain-knowledge
#: services, dT = 1 hour, c = 25, V = 50, 10 epochs, k = 7.
_SERVICE_CHOICES = ("single", "auto", "domain")

#: The ANN knobs an index is built from.  ``ann_recall_sample`` only
#: observes a search, so it is not one of them.
ANN_FIELDS = (
    "ann_backend",
    "ann_nlist",
    "ann_nprobe",
    "ann_pq_m",
    "ann_pq_bits",
    "ann_hnsw_m",
    "ann_hnsw_ef_build",
    "ann_hnsw_ef_search",
)

#: Config fields each pipeline stage reads, used to build stage
#: fingerprints: flipping a field re-runs exactly the stages that list
#: it (plus their downstream consumers, via upstream artifact hashes).
#: ``knn-index`` and ``ann-index`` are the lazily built siblings of
#: ``train`` (see :class:`~repro.core.pipeline.DarkVec`).
STAGE_CONFIG_FIELDS: dict[str, tuple[str, ...]] = {
    "ingest": (),
    "service-map": ("service", "auto_top_n"),
    "corpus": ("delta_t", "shard_size"),
    "vocab": ("min_packets", "shard_size"),
    "train": (
        "vector_size",
        "context",
        "negative",
        "epochs",
        "seed",
        "workers",
        "pool_backend",
    ),
    "knn-index": ("k_prime", *ANN_FIELDS),
    "ann-index": (*ANN_FIELDS, "seed"),
}

_POOL_BACKENDS = ("thread", "process")


@dataclass
class DarkVecConfig:
    """All knobs of the DarkVec pipeline.

    Attributes:
        service: ``"single"``, ``"auto"``, ``"domain"``, or a custom
            :class:`~repro.services.base.ServiceMap` instance.
        auto_top_n: number of per-port services for ``"auto"``.
        delta_t: sentence window dT in seconds.
        min_packets: activity filter threshold (paper: 10).
        vector_size: embedding dimension V.
        context: one-sided context window c.
        negative: negative samples per positive pair.
        epochs: training epochs.
        seed: randomness seed (model init, window shrink, negatives).
        workers: parallelism for training, evaluation, and clustering.
            Skip-gram always trains on the sharded engine
            (:class:`~repro.parallel.trainer.ShardedTrainer`):
            ``1`` (default) runs it on one inline thread,
            bit-reproducible for a fixed seed; ``0`` uses all cores;
            with more than one thread the embeddings are statistically
            equivalent rather than bit-identical.  k-NN and graph
            results are identical for every value.
        pool_backend: how :class:`~repro.parallel.WorkerPool` fans out
            when ``workers != 1``: ``"thread"`` (default, shared
            address space) or ``"process"`` (fork-based workers over
            ``multiprocessing.shared_memory``, escaping the GIL).
            ``workers=1`` runs the same inline trainer under both.
        shard_size: streaming-shard granularity (distinct senders per
            shard) for the corpus and vocab stages.  ``0`` (default)
            builds in one pass; any positive value streams
            shard-by-shard with a bounded working set and produces a
            bit-identical corpus and vocabulary.
        k_prime: neighbours per vertex of the k'-NN clustering graph
            (the default for :meth:`~repro.core.pipeline.DarkVec.cluster`
            and its knn-index artifact; paper: 3).
        ann_backend: neighbour-search backend for every k-NN consumer
            (LOO evaluation, clustering graph, churn, extension): a
            name in :data:`repro.ann.base.BACKENDS` — ``"exact"``
            (default, bit-identical brute force), ``"ivf"``,
            ``"ivfpq"`` or ``"hnsw"``.
        ann_nlist: IVF coarse-quantizer centroids; 0 picks
            ``sqrt(N)`` automatically at build time.
        ann_nprobe: inverted lists probed per IVF query (the
            speed/recall knob).
        ann_pq_m: product-quantizer subspaces for ``"ivfpq"``; 0
            (default) picks ``min(16, max(1, dim // 4))`` at build.
        ann_pq_bits: bits per PQ code for ``"ivfpq"`` (codebook size
            ``2**bits`` per subspace, 1..8).
        ann_hnsw_m: HNSW graph degree for ``"hnsw"`` — links kept per
            node on the upper layers (layer 0 keeps ``2 * m``).
        ann_hnsw_ef_build: construction beam width for ``"hnsw"``;
            wider beams find better link candidates at build time.
        ann_hnsw_ef_search: query beam width for ``"hnsw"`` (the
            speed/recall knob, IVF's ``ann_nprobe`` analogue).
        ann_recall_sample: queries per search that are exactly
            re-scored to measure ``ann.recall_at_k``; 0 disables the
            audit.  Observation only — it never changes results, so it
            does not enter stage fingerprints.
        window_days: rolling training window for incremental updates —
            :meth:`~repro.core.pipeline.DarkVec.update` evicts packets
            (at dT-window granularity) older than this many days before
            the newest packet.  Fig. 6 studies 1..30 days.
        update_epochs: training epochs for warm refits in ``update``;
            warm-started vectors converge in far fewer epochs than a
            cold start needs.
        update_alpha: starting learning rate for warm refits.  The
            cold-start default (0.025) would push already-converged
            vectors back through the large-gradient regime and lose
            the prior structure; a reduced fine-tuning rate keeps the
            warm model within noise of a full cold retrain.
        cache_dir: artifact-store directory.  ``None`` (the default)
            disables caching and keeps ``fit`` fully in memory.
        use_mmap: store large-matrix artifacts (corpus, embedding,
            ANN index) in the raw mmap-able container instead of
            ``.npz``, so cache loads return page-backed memmap views
            with bounded RSS.  Content hashes — and therefore stage
            fingerprints — are container-independent, but the on-disk
            payload suffix differs, so flipping this recomputes
            whatever is not already stored in the chosen container.
        health: drift/quality monitor thresholds and the default
            gating mode for :meth:`~repro.core.pipeline.DarkVec.update`
            (see :class:`~repro.obs.health.HealthPolicy`).  Accepts a
            plain dict (e.g. from a deserialised state file).
    """

    service: str | ServiceMap = "domain"
    auto_top_n: int = 10
    delta_t: float = 3600.0
    min_packets: int = 10
    vector_size: int = 50
    context: int = 25
    negative: int = 5
    epochs: int = 10
    seed: int = 1
    workers: int = 1
    pool_backend: str = "thread"
    shard_size: int = 0
    use_mmap: bool = False
    k_prime: int = 3
    ann_backend: str = "exact"
    ann_nlist: int = 0
    ann_nprobe: int = 8
    ann_pq_m: int = 0
    ann_pq_bits: int = 8
    ann_hnsw_m: int = 16
    ann_hnsw_ef_build: int = 80
    ann_hnsw_ef_search: int = 8
    ann_recall_sample: int = 32
    window_days: float = 30.0
    update_epochs: int = 3
    update_alpha: float = 0.01
    cache_dir: str | Path | None = None
    health: HealthPolicy = field(default_factory=HealthPolicy)

    def __post_init__(self) -> None:
        if isinstance(self.health, dict):
            self.health = HealthPolicy(**self.health)
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 means all cores)")
        if self.pool_backend not in _POOL_BACKENDS:
            raise ValueError(
                f"pool_backend must be one of {_POOL_BACKENDS}, "
                f"got {self.pool_backend!r}"
            )
        if self.shard_size < 0:
            raise ValueError("shard_size must be >= 0 (0 disables sharding)")
        if isinstance(self.service, str) and self.service not in _SERVICE_CHOICES:
            raise ValueError(
                f"service must be one of {_SERVICE_CHOICES} or a ServiceMap, "
                f"got {self.service!r}"
            )
        if self.min_packets < 1:
            raise ValueError("min_packets must be positive")
        if self.auto_top_n < 1:
            raise ValueError("auto_top_n must be positive")
        if self.k_prime < 1:
            raise ValueError("k_prime must be positive")
        # AnnSpec re-validates backend/nlist/nprobe/recall_sample, so a
        # bad ANN knob fails at construction, not at first search.
        self.ann_spec()
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")
        if self.update_epochs < 1:
            raise ValueError("update_epochs must be positive")
        if self.update_alpha <= 0:
            raise ValueError("update_alpha must be positive")

    def ann_spec(self):
        """The :class:`~repro.ann.base.AnnSpec` these knobs describe."""
        from repro.ann.base import AnnSpec

        return AnnSpec(
            backend=self.ann_backend,
            nlist=self.ann_nlist,
            nprobe=self.ann_nprobe,
            recall_sample=self.ann_recall_sample,
            seed=self.seed,
            pq_m=self.ann_pq_m,
            pq_bits=self.ann_pq_bits,
            hnsw_m=self.ann_hnsw_m,
            hnsw_ef_build=self.ann_hnsw_ef_build,
            hnsw_ef_search=self.ann_hnsw_ef_search,
        )

    def trainer(self, **overrides):
        """The skip-gram trainer built from exactly the config fields
        that key the ``train`` stage, with ``overrides`` (a progress
        callback; a warm refit's ``epochs`` and ``alpha``) applied."""
        from repro.w2v.model import Word2Vec

        return Word2Vec(**{**self.stage_fields("train"), **overrides})

    def resolve_service_map(self, trace: Trace) -> ServiceMap:
        """Materialise the service map (auto services need the trace)."""
        if isinstance(self.service, ServiceMap):
            return self.service
        if self.service == "single":
            return SingleServiceMap()
        if self.service == "auto":
            return AutoServiceMap.from_trace(trace, n=self.auto_top_n)
        return DomainServiceMap()

    def stage_fields(self, stage: str, **overrides) -> dict[str, object]:
        """Fingerprintable values of the config fields ``stage`` reads.

        ``overrides`` substitute call-site values for config fields
        (e.g. a ``k_prime`` passed directly to ``cluster``).  The
        ``service`` field is translated to a stable key: the config
        string for built-in maps, or class name + service names for
        custom :class:`~repro.services.base.ServiceMap` instances.
        """
        fields = STAGE_CONFIG_FIELDS[stage]
        values: dict[str, object] = {}
        for name in fields:
            value = overrides.get(name, getattr(self, name))
            if name == "service" and isinstance(value, ServiceMap):
                value = ["custom", type(value).__qualname__, list(value.names)]
            values[name] = value
        unknown = set(overrides) - set(fields)
        if unknown:
            raise ValueError(f"stage {stage!r} does not read fields {unknown}")
        return values
