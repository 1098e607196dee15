"""Metric registry: counters, gauges and quantile sketches.

Every metric the pipeline can emit is declared up front in
:data:`METRICS`; recording to an undeclared name raises immediately,
and ``tests/test_obs_docs.py`` asserts the README metric table matches
this registry exactly, so code and documentation cannot drift apart.

Registries are cheap plain-dict containers with snapshot/merge
semantics: a worker task records into its own registry and the
resulting snapshot is merged into the parent, so multi-worker runs
aggregate without locking the hot path (see
:meth:`repro.obs.recorder.Telemetry.task_scope`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.sketch import QuantileSketch


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric.

    Attributes:
        kind: ``"counter"``, ``"gauge"`` or ``"sketch"`` (streaming
            quantiles of a distribution, see
            :class:`repro.obs.sketch.QuantileSketch`).
        description: one-line meaning, surfaced in the README table.
        unit: unit of the recorded values; ``repro top`` renders
            ``"seconds"`` sketches as durations, any other unit as
            plain numbers.
        deterministic: True when the aggregated value is identical for
            every ``workers`` setting of the same run (timing aside);
            False for values that depend on the RNG streams of the
            chosen training schedule.
    """

    kind: str
    description: str
    unit: str = ""
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "sketch"):
            raise ValueError(f"unknown metric kind {self.kind!r}")


#: Every metric name the pipeline emits, with its kind and meaning.
METRICS: dict[str, MetricSpec] = {
    "trace.packets": MetricSpec(
        "counter", "packets emitted by the trace simulator", unit="packets"
    ),
    "corpus.sentences": MetricSpec(
        "counter", "sentences (service x dT cells) built into the corpus"
    ),
    "corpus.tokens": MetricSpec(
        "counter", "tokens (packet sender occurrences) in the corpus"
    ),
    "corpus.sentence_length": MetricSpec(
        "sketch",
        "distribution of corpus sentence lengths",
        unit="tokens",
    ),
    "train.vocab_size": MetricSpec(
        "gauge", "vocabulary size (senders embedded) of the last fit"
    ),
    "train.pairs_planned": MetricSpec(
        "gauge",
        "expected (center, context) pairs over all epochs "
        "(drives the learning-rate schedule)",
    ),
    "train.epochs": MetricSpec("counter", "training epochs run"),
    "train.pairs": MetricSpec(
        "counter",
        "skip-gram pairs pushed through SGD",
        deterministic=False,
    ),
    "train.batches": MetricSpec(
        "counter", "SGD batches executed", deterministic=False
    ),
    "train.batch_pairs": MetricSpec(
        "sketch",
        "raw (center, context) pairs per SGD batch",
        unit="pairs",
        deterministic=False,
    ),
    "train.negative_draws": MetricSpec(
        "counter",
        "negative samples drawn from the unigram^0.75 table",
        deterministic=False,
    ),
    "train.warm_tokens": MetricSpec(
        "gauge",
        "vocabulary tokens seeded from a prior embedding (warm start)",
    ),
    "store.hits": MetricSpec(
        "counter", "pipeline stages served from the artifact store"
    ),
    "store.misses": MetricSpec(
        "counter", "stage artifacts absent from the store (recomputed)"
    ),
    "store.writes": MetricSpec(
        "counter", "stage artifacts written to the store"
    ),
    "store.invalid": MetricSpec(
        "counter", "cached artifacts rejected as corrupted or stale-format"
    ),
    "ingest.sender_packets": MetricSpec(
        "sketch",
        "distribution of packets per observed sender at ingest",
        unit="packets",
    ),
    "knn.queries": MetricSpec("counter", "k-NN query points searched"),
    "knn.neighbor_distance": MetricSpec(
        "sketch",
        "distribution of cosine distances to returned k-NN neighbors",
        unit="distance",
        deterministic=False,
    ),
    "knn.distance_computations": MetricSpec(
        "counter",
        "candidate cosine similarities computed (exact: queries x corpus "
        "size; IVF: coarse scan + probed candidates + fallbacks)",
    ),
    "ann.probes": MetricSpec(
        "counter", "inverted lists probed across IVF searches"
    ),
    "ann.candidates_scored": MetricSpec(
        "counter",
        "candidate similarities scored inside probed IVF lists or "
        "along HNSW graph traversals",
        deterministic=False,
    ),
    "ann.recall_at_k": MetricSpec(
        "gauge",
        "recall@k of the last ANN search vs an exact rescore of a "
        "seeded query sample",
        deterministic=False,
    ),
    "ann.retrains": MetricSpec(
        "counter",
        "ANN indexes rebuilt because incremental updates crossed the "
        "IVF list-imbalance or HNSW tombstone-occupancy threshold",
        deterministic=False,
    ),
    "ann.graph_build_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of HNSW graph construction wall time",
        unit="seconds",
        deterministic=False,
    ),
    "ann.hops": MetricSpec(
        "counter",
        "graph nodes expanded (descent steps + beam expansions) across "
        "HNSW searches",
        deterministic=False,
    ),
    "ann.candidate_set_size": MetricSpec(
        "sketch",
        "streaming quantiles of per-query HNSW candidate-set size "
        "before exact rescoring",
        unit="candidates",
        deterministic=False,
    ),
    "graph.nodes": MetricSpec("gauge", "vertices of the last k'-NN graph"),
    "graph.edges": MetricSpec(
        "counter", "directed edges added to k'-NN graphs"
    ),
    "louvain.passes": MetricSpec(
        "counter",
        "Louvain level passes (local moving + aggregation rounds)",
        deterministic=False,
    ),
    "louvain.moves": MetricSpec(
        "counter",
        "accepted node moves across all Louvain passes",
        deterministic=False,
    ),
    "eval.accuracy": MetricSpec(
        "gauge",
        "leave-one-out classification accuracy of the last evaluation",
        deterministic=False,
    ),
    "drift.cosine_displacement": MetricSpec(
        "gauge",
        "mean aligned cosine displacement of retained senders vs the "
        "previous model",
        deterministic=False,
    ),
    "drift.neighbor_churn": MetricSpec(
        "gauge",
        "mean 1 - Jaccard overlap of per-sender k-NN sets vs the "
        "previous model",
        deterministic=False,
    ),
    "drift.cluster_ari": MetricSpec(
        "gauge",
        "adjusted Rand index between consecutive Louvain partitions",
        deterministic=False,
    ),
    "drift.cluster_ami": MetricSpec(
        "gauge",
        "adjusted mutual information between consecutive Louvain "
        "partitions",
        deterministic=False,
    ),
    "quality.packet_zscore": MetricSpec(
        "gauge",
        "z-score of the ingested packet volume vs registry history",
    ),
    "quality.sender_zscore": MetricSpec(
        "gauge",
        "z-score of the ingested sender count vs registry history",
    ),
    "quality.port_mix_shift": MetricSpec(
        "gauge",
        "total-variation distance of the port mix vs the previous run",
    ),
    "quality.empty_window_rate": MetricSpec(
        "gauge",
        "share of dT time windows with no traffic at ingest",
    ),
    "health.gate_failures": MetricSpec(
        "counter",
        "warm updates refused promotion by the health gate",
        deterministic=False,
    ),
    "proc.rss_peak": MetricSpec(
        "gauge",
        "peak process resident set size sampled at stage boundaries",
        unit="bytes",
        deterministic=False,
    ),
    "proc.rss_peak_children": MetricSpec(
        "gauge",
        "aggregate peak resident set size of process-pool children "
        "(live VmHWM sum, falling back to RUSAGE_CHILDREN)",
        unit="bytes",
        deterministic=False,
    ),
    "stage.seconds": MetricSpec(
        "sketch",
        "streaming quantiles of per-stage wall times",
        unit="seconds",
        deterministic=False,
    ),
    "train.epoch_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of per-epoch training wall times",
        unit="seconds",
        deterministic=False,
    ),
    "knn.search_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of k-NN search call latency",
        unit="seconds",
        deterministic=False,
    ),
    "telemetry.flushes": MetricSpec(
        "counter",
        "live telemetry frames flushed to the NDJSON stream",
        deterministic=False,
    ),
    "telemetry.flush_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of telemetry flush latency",
        unit="seconds",
        deterministic=False,
    ),
    "telemetry.worker_snapshots": MetricSpec(
        "counter",
        "periodic in-flight snapshots received from process-pool workers",
        deterministic=False,
    ),
    "serve.ingested_packets": MetricSpec(
        "counter",
        "packets accepted by the serve loop's ingest queue",
        unit="packets",
    ),
    "serve.empty_batches": MetricSpec(
        "counter",
        "empty micro-batches tolerated as no-ops by the serve loop",
    ),
    "serve.batches": MetricSpec(
        "counter",
        "non-empty micro-batches applied by the single-writer update loop",
    ),
    "serve.promotions": MetricSpec(
        "counter",
        "serve-loop updates promoted into the live model snapshot",
        deterministic=False,
    ),
    "serve.rollbacks": MetricSpec(
        "counter",
        "serve-loop updates refused by the health gate (prior snapshot "
        "stays live) or failed outright",
        deterministic=False,
    ),
    "serve.queries": MetricSpec(
        "counter", "queries answered from the live model snapshot"
    ),
    "serve.query_errors": MetricSpec(
        "counter",
        "queries rejected (unknown sender, malformed request, "
        "unavailable capability)",
    ),
    "serve.query_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of query latency in the serving read path",
        unit="seconds",
        deterministic=False,
    ),
    "serve.promotion_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of snapshot build + atomic swap time per "
        "promotion",
        unit="seconds",
        deterministic=False,
    ),
    "serve.warmup_seconds": MetricSpec(
        "sketch",
        "streaming quantiles of pre-promotion snapshot warm-up (page "
        "pre-touch + priming search) time",
        unit="seconds",
        deterministic=False,
    ),
}


def _spec_for(name: str, kind: str) -> MetricSpec:
    spec = METRICS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown metric {name!r}; declare it in repro.obs.metrics.METRICS"
        )
    if spec.kind != kind:
        raise ValueError(f"metric {name!r} is a {spec.kind}, not a {kind}")
    return spec


class MetricsRegistry:
    """One process- or task-local set of metric values.

    All operations validate the metric name against :data:`METRICS`.
    The registry itself is not thread-safe; concurrent writers each get
    their own registry (via task scopes) and merge snapshots.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.sketches: dict[str, QuantileSketch] = {}

    def add(self, name: str, value: int | float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        _spec_for(name, "counter")
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        _spec_for(name, "gauge")
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into sketch ``name``."""
        self._sketch(name).observe(value)

    def observe_many(self, name: str, values: np.ndarray) -> None:
        """Record a batch of observations into sketch ``name``."""
        self._sketch(name).observe_many(values)

    def _sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            _spec_for(name, "sketch")
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def snapshot(self) -> dict:
        """Plain-dict copy of every recorded value."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "sketches": {
                name: sketch.to_dict()
                for name, sketch in self.sketches.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and sketches accumulate; gauges take the incoming value
        (last write wins, as for direct :meth:`set_gauge` calls).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.add(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snapshot.get("sketches", {}).items():
            self._sketch(name).merge_dict(data)
