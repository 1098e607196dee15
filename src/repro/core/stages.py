"""The explicit stage graph behind :meth:`DarkVec.fit`.

The monolithic ``fit`` is decomposed into five stages, and the train
artifact has two lazily built siblings::

    ingest ──► service-map ──► corpus ──► vocab ──► train ──┬──► ann-index  (lazy)
       │____________│____________▲          ▲               └──► knn-index  (lazy)
       │_________________________│__________│

Each stage consumes and produces persistable artifacts.  ``ann-index``
(the neighbour index) and ``knn-index`` (the k'-NN clustering graph)
are not stages of this module: :class:`~repro.core.pipeline.DarkVec`
builds them on first use and keys them by the train hash.  When an
:class:`~repro.store.cache.ArtifactStore` is configured, every stage is
keyed by a fingerprint of (stage code version, the config fields it
reads, the content hashes of its upstream artifacts): re-running with
an unchanged config is a pure cache hit, and flipping one knob re-runs
exactly the stages downstream of it.

A run ends in one frozen :class:`FittedModel`, the same value that a
warm :meth:`~repro.core.pipeline.DarkVec.update` and
:func:`~repro.store.state.load_state` build: ``DarkVec`` installs or
discards it whole.

The staged path is **bit-identical** to the historical monolithic
``fit`` at ``workers=1``: the corpus stage builds *unfiltered*
sentences and the vocab stage applies the activity filter at
vocabulary level, which provably yields the same encoded sentences
(filtering tokens before or after (service, dT) grouping produces the
same per-cell subsequences, and empty sentences are dropped by the
trainer in both paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro import obs
from repro.core.config import DarkVecConfig
from repro.corpus.builder import CorpusBuilder
from repro.corpus.document import Corpus
from repro.core.sharding import build_corpus_sharded, build_vocab_streaming
from repro.io.artifacts import (
    CORPUS_CODEC,
    CORPUS_RAW_CODEC,
    KEYEDVECTORS_CODEC,
    KEYEDVECTORS_RAW_CODEC,
    SERVICE_MAP_CODEC,
    TRACE_CODEC,
    TRACE_RAW_CODEC,
    VOCAB_CODEC,
    trace_content_hash,
)
from repro.obs.progress import ProgressEvent
from repro.services import service_map_from_spec
from repro.services.base import ServiceMap
from repro.store.cache import ArtifactStore
from repro.store.fingerprint import stable_hash, stage_fingerprint
from repro.trace.packet import Trace
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.vocab import Vocabulary

#: Code version per stage; bump when a stage's semantics change so
#: stale cached artifacts stop matching.
STAGE_VERSIONS = {
    "ingest": 1,
    "service-map": 1,
    "corpus": 1,
    "vocab": 1,
    "train": 1,
    # Not stages of StagedPipeline.run: lazily built siblings of train,
    # keyed off the train hash (see DarkVec._ann_index and DarkVec._knn_graph).
    "knn-index": 1,
    "ann-index": 1,
}


@dataclass(frozen=True)
class StageStatus:
    """Outcome of one stage execution.

    Attributes:
        stage: stage name.
        status: ``"hit"`` (loaded from the store), ``"miss"`` (computed
            and written), or ``"uncached"`` (computed; no store, or the
            artifact is not serialisable).
        seconds: wall time of the stage, including store I/O.
        fingerprint: the stage's cache key ("-" when uncacheable).
    """

    stage: str
    status: str
    seconds: float
    fingerprint: str


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Everything a fit or a warm update leaves behind, as one value.

    Built by the staged fit, by :meth:`~repro.core.pipeline.DarkVec.
    update` and by :func:`~repro.store.state.load_state`; the filtered
    corpus and the embedding's content hash are derived here, once.

    Attributes:
        trace: the rolling-window trace the model was trained on.
        raw_corpus: the **unfiltered** corpus (every observed sender).
        active: sender indices passing the activity filter.
        embedding: trained sender embedding.
        t_origin: origin of the dT window grid (the first fit's first
            packet time).
        service_map: the resolved service map, kept across updates.
        corpus: ``raw_corpus`` filtered to ``active`` (derived).
        embedding_hash: content hash of ``embedding``, the key of its
            ann-index and knn-index artifacts (derived).
    """

    trace: Trace
    raw_corpus: Corpus
    active: np.ndarray
    embedding: KeyedVectors
    t_origin: float
    service_map: ServiceMap
    corpus: Corpus = field(init=False)
    embedding_hash: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "corpus", self.raw_corpus.filtered_to(self.active))
        object.__setattr__(
            self, "embedding_hash", KEYEDVECTORS_CODEC.content_hash(self.embedding)
        )


class StagedPipeline:
    """Runs the stage graph, consulting an optional artifact store."""

    def __init__(
        self,
        config: DarkVecConfig,
        store: ArtifactStore | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
    ) -> None:
        self.config = config
        self.store = store
        self.progress = progress

    # ------------------------------------------------------------------
    # Stage runner plumbing
    # ------------------------------------------------------------------

    def _run_stage(
        self,
        stage: str,
        fields: dict,
        upstream: dict[str, str],
        codec,
        compute: Callable[[], object],
        statuses: list[StageStatus],
    ) -> tuple[object, str]:
        """Load-or-compute one stage; returns (artifact, content hash)."""
        t0 = perf_counter()
        with obs.span(f"stage.{stage}") as sp:
            if self.store is None:
                obj = compute()
                content_hash = codec.content_hash(obj)
                status = "uncached"
                fingerprint = "-"
            else:
                fingerprint = stage_fingerprint(
                    stage, STAGE_VERSIONS[stage], fields, upstream
                )
                cached = self.store.load(stage, fingerprint, codec)
                if cached is not None:
                    obj, content_hash = cached
                    status = "hit"
                else:
                    obj = compute()
                    content_hash = self.store.save(stage, fingerprint, codec, obj)
                    status = "miss"
            sp.set(status=status)
        obs.sample_rss_peak("proc.rss_peak")
        obs.sample_rss_peak_children("proc.rss_peak_children")
        seconds = perf_counter() - t0
        if obs.current().enabled:
            obs.observe("stage.seconds", seconds)
        statuses.append(
            StageStatus(
                stage=stage,
                status=status,
                seconds=seconds,
                fingerprint=fingerprint,
            )
        )
        return obj, content_hash

    def _codec_for(self, npz_codec, raw_codec):
        """The configured container for a large-matrix artifact."""
        return raw_codec if self.config.use_mmap else npz_codec

    # ------------------------------------------------------------------
    # The graph
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> tuple[FittedModel, list[StageStatus]]:
        """Execute the stages in order; returns the fitted model and
        each stage's cache outcome, in execution order."""
        config = self.config
        statuses: list[StageStatus] = []

        # -- ingest: canonicalise + hash the input trace -------------------
        trace_codec = self._codec_for(TRACE_CODEC, TRACE_RAW_CODEC)
        trace_hash = trace_content_hash(trace)
        t0 = perf_counter()
        with obs.span("stage.ingest") as sp:
            if obs.current().enabled and len(trace):
                counts = trace.packet_counts()
                obs.observe_many("ingest.sender_packets", counts[counts > 0])
            if self.store is None:
                ingest_status = "uncached"
                ingest_fp = "-"
            else:
                ingest_fp = stage_fingerprint(
                    "ingest",
                    STAGE_VERSIONS["ingest"],
                    config.stage_fields("ingest"),
                    {},
                    {"trace": trace_hash},
                )
                if self.store.verify("ingest", ingest_fp, trace_codec) is not None:
                    ingest_status = "hit"
                else:
                    self.store.save("ingest", ingest_fp, trace_codec, trace)
                    ingest_status = "miss"
            sp.set(status=ingest_status)
        obs.sample_rss_peak("proc.rss_peak")
        obs.sample_rss_peak_children("proc.rss_peak_children")
        ingest_seconds = perf_counter() - t0
        if obs.current().enabled:
            obs.observe("stage.seconds", ingest_seconds)
        statuses.append(
            StageStatus("ingest", ingest_status, ingest_seconds, ingest_fp)
        )

        # -- service-map ---------------------------------------------------
        custom_map = isinstance(config.service, ServiceMap)

        def compute_service_map():
            if custom_map:
                return config.service.to_spec()
            return config.resolve_service_map(trace).to_spec()

        if custom_map and config.service.to_spec() is None:
            # Custom, non-serialisable map: run uncached.
            t0 = perf_counter()
            with obs.span("stage.service-map") as sp:
                service_map = config.service
                sm_hash = stable_hash(
                    ["custom", type(service_map).__qualname__, list(service_map.names)]
                )
                sp.set(status="uncached")
            statuses.append(
                StageStatus("service-map", "uncached", perf_counter() - t0, "-")
            )
        else:
            spec, sm_hash = self._run_stage(
                "service-map",
                config.stage_fields("service-map"),
                {"ingest": trace_hash},
                SERVICE_MAP_CODEC,
                compute_service_map,
                statuses,
            )
            service_map = service_map_from_spec(spec)

        # -- corpus (unfiltered; activity filter applied at vocab) ---------
        t_origin = trace.start_time if len(trace) else 0.0

        def compute_corpus():
            if config.shard_size > 0:
                return build_corpus_sharded(
                    trace,
                    service_map,
                    delta_t=config.delta_t,
                    shard_size=config.shard_size,
                    t_origin=t_origin,
                )
            builder = CorpusBuilder(service_map, delta_t=config.delta_t)
            return builder.build(trace, keep_senders=None, t_start=t_origin)

        corpus, corpus_hash = self._run_stage(
            "corpus",
            config.stage_fields("corpus"),
            {"ingest": trace_hash, "service-map": sm_hash},
            self._codec_for(CORPUS_CODEC, CORPUS_RAW_CODEC),
            compute_corpus,
            statuses,
        )

        # -- vocab (activity filter as a vocabulary restriction) -----------
        def compute_vocab():
            active = trace.active_senders(config.min_packets)
            if config.shard_size > 0:
                vocab = build_vocab_streaming(
                    [sentence.tokens for sentence in corpus],
                    chunk_tokens=max(config.shard_size, 1024),
                )
            else:
                vocab = Vocabulary.build(
                    [sentence.tokens for sentence in corpus], min_count=1
                )
            return vocab.restricted_to(active), active

        (vocab, active), vocab_hash = self._run_stage(
            "vocab",
            config.stage_fields("vocab"),
            {"ingest": trace_hash, "corpus": corpus_hash},
            VOCAB_CODEC,
            compute_vocab,
            statuses,
        )

        # -- train ---------------------------------------------------------
        def compute_embedding():
            return config.trainer(progress=self.progress).fit(
                [sentence.tokens for sentence in corpus], vocab=vocab
            )

        embedding, _ = self._run_stage(
            "train",
            config.stage_fields("train"),
            {"corpus": corpus_hash, "vocab": vocab_hash},
            self._codec_for(KEYEDVECTORS_CODEC, KEYEDVECTORS_RAW_CODEC),
            compute_embedding,
            statuses,
        )
        fitted = FittedModel(
            trace=trace,
            raw_corpus=corpus,
            active=active,
            embedding=embedding,
            t_origin=t_origin,
            service_map=service_map,
        )
        return fitted, statuses
