"""The DarkVec end-to-end pipeline.

Usage sketch::

    config = DarkVecConfig(service="domain")
    darkvec = DarkVec(config)
    darkvec.fit(trace)                      # corpus + embedding
    report = darkvec.evaluate(truth)        # Table 4-style LOO report
    clusters = darkvec.cluster(k_prime=3)   # Louvain communities
    darkvec.update(next_day)                # warm incremental retrain

``fit`` is a thin wrapper over the staged pipeline
(:class:`~repro.core.stages.StagedPipeline`): with no ``cache_dir``
configured it runs fully in memory and is bit-identical to the
historical monolithic path at ``workers=1``; with a cache directory,
every stage is served from the content-addressed artifact store when
its fingerprint matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro import obs
from repro.ann import audit as ann_audit
from repro.ann.base import NeighborIndex, build_index, can_evolve
from repro.core.config import DarkVecConfig
from repro.core.stages import STAGE_VERSIONS, FittedModel, StagedPipeline, StageStatus
from repro.corpus.builder import CorpusBuilder
from repro.corpus.document import Corpus
from repro.graph.knn_graph import KnnGraph, build_knn_graph
from repro.graph.louvain import louvain_communities
from repro.graph.modularity import modularity
from repro.io.artifacts import INDEX_CODECS, KNN_GRAPH_CODEC
from repro.knn.loo import leave_one_out_predictions
from repro.parallel.pool import pool_backend
from repro.knn.report import ClassificationReport, classification_report
from repro.labels.groundtruth import GroundTruth
from repro.obs.health import HealthReport, MonitorResult, classify
from repro.obs.progress import ProgressEvent
from repro.obs.registry import RunRegistry, record_run
from repro.store.cache import ArtifactStore
from repro.store.fingerprint import stage_fingerprint
from repro.trace.merge import merge_traces
from repro.trace.packet import Trace
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.mathutils import unit_rows
from repro.w2v.vocab import Vocabulary


class NotFittedError(RuntimeError):
    """Raised when an analysis method runs before :meth:`DarkVec.fit`.

    Subclasses ``RuntimeError`` so pre-existing ``except RuntimeError``
    handlers keep working.
    """


@dataclass
class ClusterResult:
    """Output of the unsupervised stage.

    Attributes:
        communities: community id per embedded sender, aligned with
            ``embedding.tokens``.
        modularity: modularity of the partition on the symmetrised
            k'-NN graph.
        graph: the directed k'-NN graph itself.
    """

    communities: np.ndarray
    modularity: float
    graph: KnnGraph

    @property
    def n_clusters(self) -> int:
        """Number of distinct communities."""
        return len(np.unique(self.communities)) if len(self.communities) else 0


@dataclass
class UpdateReport:
    """What one incremental :meth:`DarkVec.update` call did.

    Attributes:
        seconds: wall time of the whole update.
        new_packets: packets in the appended trace.
        evicted_packets: packets dropped by the rolling-window eviction.
        sentences_retained: corpus sentences reused untouched.
        sentences_rebuilt: sentences rebuilt from the affected dT windows.
        sentences_evicted: sentences dropped with their windows.
        warm_tokens: vocabulary tokens seeded from the prior embedding.
        new_tokens: vocabulary tokens initialised fresh (unseen senders).
    """

    seconds: float
    new_packets: int
    evicted_packets: int
    sentences_retained: int
    sentences_rebuilt: int
    sentences_evicted: int
    warm_tokens: int
    new_tokens: int


class DarkVec:
    """DarkVec pipeline: trace -> corpus -> embedding -> analyses.

    :meth:`fit`, :meth:`update` and :meth:`load_state` each build one
    frozen :class:`~repro.core.stages.FittedModel`, installed whole as
    :attr:`fitted` together with the neighbour index built from it.
    """

    def __init__(
        self,
        config: DarkVecConfig | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or DarkVecConfig()
        if store is None and self.config.cache_dir is not None:
            store = ArtifactStore(self.config.cache_dir)
        self.store = store
        self.registry: RunRegistry | None = (
            RunRegistry(store.root / "registry") if store is not None else None
        )
        self.fitted: FittedModel | None = None
        self.stage_statuses: list[StageStatus] = []
        self.last_update: UpdateReport | None = None
        self.last_health: HealthReport | None = None
        # Built lazily from ``fitted``; installed and rolled back with it.
        self._index: NeighborIndex | None = None

    @property
    def trace(self) -> Trace | None:
        """The fitted rolling-window trace (None before :meth:`fit`)."""
        return None if self.fitted is None else self.fitted.trace

    @property
    def corpus(self) -> Corpus | None:
        """The fitted activity-filtered corpus (None before :meth:`fit`)."""
        return None if self.fitted is None else self.fitted.corpus

    @property
    def embedding(self) -> KeyedVectors | None:
        """The fitted sender embedding (None before :meth:`fit`)."""
        return None if self.fitted is None else self.fitted.embedding

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        trace: Trace,
        progress: Callable[[ProgressEvent], None] | None = None,
    ) -> "DarkVec":
        """Build the corpus of ``trace`` and train the embedding.

        Runs the staged pipeline (ingest -> service-map -> corpus ->
        vocab -> train).  With :attr:`store` configured, stages whose
        fingerprints match cached artifacts are loaded instead of
        recomputed; without it, the run is in-memory and bit-identical
        to the historical monolithic path at ``workers=1``.

        Args:
            trace: packet trace to embed.
            progress: optional per-epoch callback forwarded to
                :class:`~repro.w2v.model.Word2Vec` (receives a
                :class:`~repro.obs.progress.ProgressEvent`).
        """
        t0 = perf_counter()
        with obs.span("pipeline.fit"), pool_backend(self.config.pool_backend):
            pipeline = StagedPipeline(
                self.config, store=self.store, progress=progress
            )
            fitted, statuses = pipeline.run(trace)
            obs.sample_rss_peak_children("proc.rss_peak_children")
            if self.registry is not None:
                profile, monitors = self._monitor_ingest(trace, kind="fit")
                health = HealthReport(monitors=monitors)
                record_run(
                    self.registry,
                    "fit",
                    self.config,
                    wall_seconds=perf_counter() - t0,
                    stages=statuses,
                    profile=profile,
                    health=health.to_dict(),
                )
                self.last_health = health
        # A pure cache-hit refit (same embedding, e.g. a warm restart
        # re-running fit against the store) keeps the live ANN index
        # instead of paying a full rebuild.
        same = (
            self.fitted is not None
            and self.fitted.embedding_hash == fitted.embedding_hash
        )
        self.fitted, self._index = fitted, self._index if same else None
        self.stage_statuses = statuses
        return self

    # ------------------------------------------------------------------
    # Incremental retraining
    # ------------------------------------------------------------------

    def update(
        self,
        new_trace: Trace,
        window_days: float | None = None,
        epochs: int | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
        health_gate: bool | None = None,
        truth: GroundTruth | None = None,
        allow_empty: bool = False,
    ) -> "DarkVec":
        """Append a window of traffic and refit warm — O(delta), not O(full).

        The rolling-window retrain loop of the paper (Fig. 6) and of
        DANTE, generalised from whole days to arbitrary sub-day
        micro-batches: the new trace is merged into the fitted one,
        packets outside the last ``window_days`` days are evicted (at
        dT-window granularity, so retained sentences stay exact), only
        the dT windows the new traffic touches are rebuilt, and the
        embedding is refit **warm**: previously-seen senders resume
        from their prior input and context vectors (fresh senders from
        random initialisation) at the reduced fine-tuning learning rate
        ``config.update_alpha``.

        All window arithmetic goes through one :class:`~repro.corpus.
        windows.WindowGrid` anchored at the first ``fit``'s origin (the
        service map is likewise *not* re-derived, relevant for
        ``"auto"`` services), so successive updates index mutually
        consistent cells.  Because eviction is monotone in the merged
        end time and a mid-window batch rebuilds its boundary cell from
        the *merged* kept trace, N sub-day ``update(window)`` calls
        leave bit-identical corpus and vocabulary to one merged daily
        ``update`` — only the embedding differs, bounded by warm-refit
        drift (property-tested in ``tests/test_serve.py``).

        A report of the work done lands in :attr:`last_update`.

        With a registry attached (store configured) or ``health_gate``
        on, the drift/quality monitors run against the candidate model
        and their verdicts land in :attr:`last_health`; under the gate,
        a ``fail`` verdict **refuses promotion** — the previous
        :attr:`fitted` model and its index stay installed (and are what
        :meth:`save_state` persists) and ``last_health.promoted`` is
        False.  An update that raises leaves them installed too, and
        :attr:`last_update` and :attr:`last_health` unchanged.

        Args:
            new_trace: the appended traffic (its sender table may be
                completely disjoint from the fitted trace's).
            window_days: rolling-window override; defaults to
                ``config.window_days``.
            epochs: warm-refit epochs; defaults to ``config.update_epochs``.
            progress: optional per-epoch training callback.
            health_gate: gate promotion on the health verdict; defaults
                to ``config.health.gate_updates``.
            truth: optional ground truth enabling the LOO-accuracy
                probe monitor (drop vs the registry's last recorded
                accuracy).
            allow_empty: tolerate an empty ``new_trace`` as a counted
                no-op (``serve.empty_batches``) instead of raising —
                the serve loop's idle ticks must not kill the daemon,
                while the direct batch verb keeps the hard error.
        """
        fitted = self._require_fit()
        trace, embedding = fitted.trace, fitted.embedding
        if not len(new_trace):
            if allow_empty:
                obs.add("serve.empty_batches")
                return self
            raise ValueError("update requires a non-empty trace")
        config = self.config
        window_days = config.window_days if window_days is None else window_days
        epochs = config.update_epochs if epochs is None else epochs
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        t0 = perf_counter()
        with obs.span("pipeline.update"), pool_backend(self.config.pool_backend):
            merged, remap_old, _ = merge_traces(trace, new_trace)
            prior = KeyedVectors(
                tokens=remap_old[embedding.tokens],
                vectors=embedding.vectors,
                context_vectors=embedding.context_vectors,
            )
            raw = fitted.raw_corpus.remapped(remap_old)

            builder = CorpusBuilder(fitted.service_map, delta_t=config.delta_t)
            grid = builder.grid(fitted.t_origin)
            keep_from = grid.keep_from(merged.end_time, window_days)
            rebuild_from = grid.rebuild_from(new_trace.start_time, keep_from)

            kept_trace = merged.between(grid.start(keep_from), np.inf)
            evicted, rest = raw.split_windows(keep_from)
            retained = [s for s in rest if s.window < rebuild_from]
            rebuild_slice = kept_trace.between(grid.start(rebuild_from), np.inf)
            rebuilt = builder.build(rebuild_slice, t_start=grid.origin)

            sentences = sorted(
                retained + rebuilt.sentences,
                key=lambda s: (s.service_id, s.window),
            )
            active = kept_trace.active_senders(config.min_packets)
            tokens = [s.tokens for s in sentences]
            vocab = Vocabulary.build(tokens).restricted_to(active)
            warm_tokens = int((prior.rows_of(vocab.tokens) >= 0).sum())
            refit = config.trainer(
                epochs=epochs, alpha=config.update_alpha, progress=progress
            ).fit(tokens, vocab=vocab, init=prior)
            candidate = FittedModel(
                trace=kept_trace,
                raw_corpus=Corpus(
                    sentences=sentences, service_names=raw.service_names
                ),
                active=active,
                embedding=refit,
                t_origin=fitted.t_origin,
                service_map=fitted.service_map,
            )
            gate = config.health.gate_updates if health_gate is None else health_gate
            # The monitors probe the candidate installed; a refusal, or
            # any exception before the update completes, puts the prior
            # (fitted, _index) pair back.
            prior_state = (fitted, self._index)
            self.fitted, self._index = candidate, None
            promoted = False
            try:
                self._evolve_index(prior_state[1], prior, refit)
                obs.sample_rss_peak("proc.rss_peak")
                obs.sample_rss_peak_children("proc.rss_peak_children")
                report = UpdateReport(
                    seconds=perf_counter() - t0,
                    new_packets=len(new_trace),
                    evicted_packets=len(trace) + len(new_trace) - len(kept_trace),
                    sentences_retained=len(retained),
                    sentences_rebuilt=len(rebuilt.sentences),
                    sentences_evicted=len(evicted),
                    warm_tokens=warm_tokens,
                    new_tokens=len(vocab) - warm_tokens,
                )
                health = None
                if gate or self.registry is not None:
                    profile, monitors, loo_accuracy = self._monitor_update(
                        prior, refit, new_trace, truth
                    )
                    health = HealthReport(monitors=monitors)
                    if gate and health.verdict == "fail":
                        health.promoted = False
                        obs.add("health.gate_failures")
                    if self.registry is not None:
                        record_run(
                            self.registry,
                            "update",
                            self.config,
                            wall_seconds=perf_counter() - t0,
                            profile=profile,
                            health=health.to_dict(),
                            extra={
                                "loo_accuracy": loo_accuracy,
                                "new_packets": report.new_packets,
                                "evicted_packets": report.evicted_packets,
                                "warm_tokens": report.warm_tokens,
                                "new_tokens": report.new_tokens,
                            },
                        )
                    self.last_health = health
                self.last_update = report
                promoted = health is None or health.promoted
            finally:
                if not promoted:
                    self.fitted, self._index = prior_state
        return self

    # ------------------------------------------------------------------
    # Neighbour index
    # ------------------------------------------------------------------

    def _ann_fingerprint(self) -> str:
        return stage_fingerprint(
            "ann-index",
            STAGE_VERSIONS["ann-index"],
            self.config.stage_fields("ann-index"),
            {"train": self.fitted.embedding_hash},
        )

    def _index_codec(self):
        """The artifact codec of the configured ANN backend, or None.

        ``use_mmap`` selects the raw container so a loaded index opens
        its arrays as read-only memmap views instead of heap copies.
        """
        codecs = INDEX_CODECS.get(self.config.ann_backend)
        if codecs is None:
            return None
        npz_codec, raw_codec = codecs
        return raw_codec if self.config.use_mmap else npz_codec

    def _ann_index(self) -> NeighborIndex:
        """The neighbour index over the fitted embedding.

        Built lazily on first use and invalidated whenever the
        embedding changes.  Every backend with a codec pair in
        :data:`~repro.io.artifacts.INDEX_CODECS` is a first-class
        pipeline artifact: with a store configured it is persisted
        under the ``ann-index`` fingerprint (train hash + ANN config
        fields) and loaded back instead of rebuilt.
        """
        fitted = self._require_fit()
        if self._index is not None:
            return self._index
        spec = self.config.ann_spec()
        units = unit_rows(fitted.embedding.vectors)
        codec = self._index_codec()
        cacheable = codec is not None and self.store is not None
        if cacheable:
            fingerprint = self._ann_fingerprint()
            cached = self.store.load("ann-index", fingerprint, codec)
            if cached is not None:
                self._index = cached[0]
                return self._index
        self._index = build_index(units, spec=spec, workers=self.config.workers)
        if cacheable:
            self.store.save("ann-index", fingerprint, codec, self._index)
        return self._index

    def _evolve_index(
        self,
        prior_index: NeighborIndex | None,
        prior: KeyedVectors,
        refit: KeyedVectors,
    ) -> None:
        """Carry the ANN index across a warm update instead of rebuilding.

        Called with the candidate model installed and no index.  The
        prior index evolves through its backend's ``updated`` method
        (e.g. :meth:`repro.ann.ivf.IVFIndex.updated`): retained senders
        keep their place, fresh senders join, evicted senders drop out,
        and a full rebuild happens only past the backend's threshold.
        The evolved index takes the configured search knobs.  Without
        a live index that the configured spec can evolve — same
        backend, one with an ``updated`` method, built from the same
        build-time knobs (see :func:`repro.ann.base.can_evolve`) —
        there is nothing to evolve: the next consumer rebuilds lazily
        via :meth:`_ann_index`.
        """
        spec = self.config.ann_spec()
        if not can_evolve(prior_index, spec):
            return
        prior_rows = prior.rows_of(refit.tokens)
        self._index = prior_index.updated(
            unit_rows(refit.vectors),
            prior_rows,
            workers=self.config.workers,
            spec=spec,
        )
        if self.store is not None:
            self.store.save(
                "ann-index",
                self._ann_fingerprint(),
                self._index_codec(),
                self._index,
            )

    # ------------------------------------------------------------------
    # Drift / data-quality monitoring
    # ------------------------------------------------------------------

    def _monitor_ingest(
        self, trace: Trace, kind: str
    ) -> tuple[dict, list[MonitorResult]]:
        """Data-quality monitors of one ingested trace.

        Volume z-scores compare against the registry history of the
        same run ``kind`` (fit volumes against fits, daily updates
        against daily updates); the port mix compares against the most
        recent run that recorded a profile.  Returns the profile (for
        the run record) and the monitor verdicts.
        """
        from repro.obs.quality import data_profile, port_mix_shift, volume_zscore

        policy = self.config.health
        profile = data_profile(trace, self.config.delta_t)
        packet_z = sender_z = shift = None
        if self.registry is not None:
            packet_z = volume_zscore(
                profile["packets"],
                self.registry.history("packets", kind=kind),
                policy.min_history,
            )
            sender_z = volume_zscore(
                profile["senders"],
                self.registry.history("senders", kind=kind),
                policy.min_history,
            )
            previous = next(
                (
                    record["profile"]
                    for record in reversed(self.registry.runs())
                    if record.get("profile")
                ),
                None,
            )
            if previous is not None:
                shift = port_mix_shift(
                    profile["port_mix"], previous.get("port_mix", {})
                )
        empty = profile["empty_window_rate"]
        if packet_z is not None:
            obs.set_gauge("quality.packet_zscore", packet_z)
        if sender_z is not None:
            obs.set_gauge("quality.sender_zscore", sender_z)
        if shift is not None:
            obs.set_gauge("quality.port_mix_shift", shift)
        obs.set_gauge("quality.empty_window_rate", empty)
        monitors = [
            classify(
                "volume.packets",
                None if packet_z is None else abs(packet_z),
                policy.volume_z_warn,
                policy.volume_z_fail,
                detail=f"{profile['packets']} packets",
            ),
            classify(
                "volume.senders",
                None if sender_z is None else abs(sender_z),
                policy.volume_z_warn,
                policy.volume_z_fail,
                detail=f"{profile['senders']} senders",
            ),
            classify(
                "port_mix",
                shift,
                policy.port_shift_warn,
                policy.port_shift_fail,
            ),
            classify(
                "empty_windows",
                empty,
                policy.empty_window_warn,
                policy.empty_window_fail,
            ),
        ]
        return profile, monitors

    def _monitor_update(
        self,
        prior: KeyedVectors,
        refit: KeyedVectors,
        new_trace: Trace,
        truth: GroundTruth | None,
    ) -> tuple[dict, list[MonitorResult], float | None]:
        """Drift + quality monitors of one warm update's candidate model.

        Runs with the candidate state already installed (the LOO probe
        evaluates it); the caller rolls the state back if the verdict
        fails under the gate.  Returns the new-day profile, the monitor
        verdicts, and the probe accuracy (None without ``truth``).
        """
        from repro.obs.drift import (
            cluster_stability,
            embedding_drift,
            neighborhood_churn,
        )

        policy = self.config.health
        # The recall audits of the monitors' searches land in this
        # scope, apart from other threads' searches (the serve daemon's
        # readers search the live index); ann_recall reads them back.
        with ann_audit.scope():
            drift = embedding_drift(prior, refit)
            if drift.mean is not None:
                obs.set_gauge("drift.cosine_displacement", drift.mean)
            monitors = [
                classify(
                    "drift",
                    drift.mean,
                    policy.drift_warn,
                    policy.drift_fail,
                    detail=(
                        f"{drift.n_shared} retained senders"
                        + ("" if drift.p95 is None else f", p95={drift.p95:.3f}")
                    ),
                )
            ]
            churn = neighborhood_churn(
                prior,
                refit,
                k=policy.churn_k,
                workers=self.config.workers,
                spec=self.config.ann_spec(),
            )
            if churn is not None:
                obs.set_gauge("drift.neighbor_churn", churn)
            monitors.append(
                classify(
                    "churn",
                    churn,
                    policy.churn_warn,
                    policy.churn_fail,
                    detail=f"k={policy.churn_k}",
                )
            )
            stability = cluster_stability(
                prior, refit, k_prime=self.config.k_prime, seed=self.config.seed
            )
            ari, ami = stability if stability is not None else (None, None)
            if ari is not None:
                obs.set_gauge("drift.cluster_ari", ari)
                obs.set_gauge("drift.cluster_ami", ami)
            monitors.append(
                classify(
                    "stability",
                    ari,
                    policy.stability_warn,
                    policy.stability_fail,
                    direction="low",
                    detail="" if ami is None else f"ami={ami:.3f}",
                )
            )
            profile, quality = self._monitor_ingest(new_trace, kind="update")
            monitors.extend(quality)
            loo = None
            if truth is not None:
                try:
                    loo = float(self._loo_probe(truth).accuracy)
                except ValueError:
                    loo = None  # empty evaluation window: probe not applicable
                baseline = None
                if self.registry is not None:
                    history = self.registry.history("loo_accuracy")
                    baseline = history[-1] if history else None
                drop = None if loo is None or baseline is None else baseline - loo
                monitors.append(
                    classify(
                        "loo",
                        drop,
                        policy.loo_drop_warn,
                        policy.loo_drop_fail,
                        detail="" if loo is None else f"accuracy={loo:.4f}",
                    )
                )
            # Approximate-search accuracy of the candidate: the recall@k
            # measured by the audited ANN searches of the monitors above
            # (exact backend: no audit ran, ok with no baseline).
            monitors.append(
                classify(
                    "ann_recall",
                    ann_audit.last_recall(),
                    policy.recall_warn,
                    policy.recall_fail,
                    direction="low",
                    detail=f"backend={self.config.ann_backend}",
                )
            )
        return profile, monitors, loo

    # ------------------------------------------------------------------
    # State persistence
    # ------------------------------------------------------------------

    def save_state(self, path) -> None:
        """Persist the fitted state for later :func:`load_state`/update.

        See :func:`repro.store.state.save_state` for the layout.
        """
        from repro.store.state import save_state

        save_state(self, path)

    @staticmethod
    def load_state(path) -> "DarkVec":
        """Restore a fitted :class:`DarkVec` saved with :meth:`save_state`."""
        from repro.store.state import load_state

        return load_state(path)

    def _require_fit(self) -> FittedModel:
        if self.fitted is None:
            raise NotFittedError(
                "this DarkVec instance is not fitted yet: "
                "call fit(trace) before evaluate()/cluster()"
            )
        return self.fitted

    # ------------------------------------------------------------------
    # Semi-supervised analysis
    # ------------------------------------------------------------------

    def evaluation_rows(self, eval_days: float | None = 1.0) -> np.ndarray:
        """Embedding rows of senders present in the evaluation window.

        The paper evaluates on the senders of the last collection day
        that are covered by the embedding; ``eval_days=None`` evaluates
        every embedded sender.  Raises ``ValueError`` when the window
        is empty — no sender of the evaluation period is covered by the
        embedding — instead of producing an empty-slice report.
        """
        fitted = self._require_fit()
        if eval_days is None:
            rows = np.arange(len(fitted.embedding))
        else:
            eval_senders = fitted.trace.last_days(eval_days).observed_senders()
            rows = fitted.embedding.rows_of(eval_senders)
            rows = rows[rows >= 0]
        if len(rows) == 0:
            raise ValueError(
                "empty evaluation window: no sender of the last "
                f"{eval_days if eval_days is not None else 'N/A'} day(s) is "
                "covered by the embedding — train on a window overlapping "
                "the evaluation period or pass eval_days=None"
            )
        return rows

    def evaluate(
        self,
        truth: GroundTruth,
        k: int = 7,
        eval_days: float | None = 1.0,
    ) -> ClassificationReport:
        """Leave-one-out k-NN evaluation (the Table 3/4 protocol).

        Emits the ``eval.accuracy`` gauge and, with a registry
        attached, appends an ``evaluate`` run record whose
        ``loo_accuracy`` becomes the baseline for later health-gated
        updates.  Raises ``ValueError`` when the evaluation window is
        empty (see :meth:`evaluation_rows`).
        """
        self._require_fit()
        t0 = perf_counter()
        with obs.span("pipeline.evaluate", k=k), pool_backend(
            self.config.pool_backend
        ):
            report = self._loo_probe(truth, k=k, eval_days=eval_days)
            obs.set_gauge("eval.accuracy", float(report.accuracy))
            if self.registry is not None:
                record_run(
                    self.registry,
                    "evaluate",
                    self.config,
                    wall_seconds=perf_counter() - t0,
                    extra={
                        "loo_accuracy": float(report.accuracy),
                        "macro_f1": float(report.macro_f()),
                        "k": k,
                    },
                )
            return report

    def _loo_probe(
        self,
        truth: GroundTruth,
        k: int = 7,
        eval_days: float | None = 1.0,
    ) -> ClassificationReport:
        """The LOO computation shared by :meth:`evaluate` and the
        health monitors (which must not append registry records)."""
        fitted = self._require_fit()
        rows = self.evaluation_rows(eval_days)
        labels = truth.labels_for(fitted.trace)[fitted.embedding.tokens]
        predictions = leave_one_out_predictions(
            fitted.embedding.vectors,
            labels,
            rows,
            k=k,
            workers=self.config.workers,
            index=self._ann_index(),
        )
        return classification_report(labels[rows], predictions)

    # ------------------------------------------------------------------
    # Unsupervised analysis
    # ------------------------------------------------------------------

    def _knn_graph(self, k_prime: int) -> KnnGraph:
        """k'-NN graph over the embedding, via the store when possible.

        The one writer of the ``knn-index`` artifact: the graph is
        searched through :meth:`_ann_index`, so a cached or evolved
        index serves it, and it is keyed by the train hash plus
        ``k_prime`` and the ANN config fields.
        """
        if self.store is not None:
            fingerprint = stage_fingerprint(
                "knn-index",
                STAGE_VERSIONS["knn-index"],
                self.config.stage_fields("knn-index", k_prime=k_prime),
                {"train": self.fitted.embedding_hash},
            )
            cached = self.store.load("knn-index", fingerprint, KNN_GRAPH_CODEC)
            if cached is not None:
                return cached[0]
        graph = build_knn_graph(
            self.embedding.vectors,
            k_prime=k_prime,
            workers=self.config.workers,
            index=self._ann_index(),
        )
        if self.store is not None:
            self.store.save("knn-index", fingerprint, KNN_GRAPH_CODEC, graph)
        return graph

    def cluster(self, k_prime: int | None = None, seed: int = 0) -> ClusterResult:
        """k'-NN graph + Louvain clustering of all embedded senders.

        ``k_prime`` defaults to ``config.k_prime``.  With a store
        configured the knn-index artifact is reused when the embedding,
        ``k_prime`` and the ANN config are unchanged.
        """
        self._require_fit()
        if k_prime is None:
            k_prime = self.config.k_prime
        with obs.span("pipeline.cluster", k_prime=k_prime), pool_backend(
            self.config.pool_backend
        ):
            graph = self._knn_graph(k_prime)
            csr = graph.symmetric_csr()
            communities = louvain_communities(csr, seed=seed)
            score = modularity(csr, communities)
        return ClusterResult(communities=communities, modularity=score, graph=graph)
