"""Pipeline observability: tracing spans, metrics, progress events.

This package is the single instrument panel of the reproduction:

* **Spans** (:func:`span`) form a trace tree recording wall time, peak
  ``tracemalloc`` memory and custom attributes per pipeline region.
* **Metrics** (:func:`add` / :func:`set_gauge` / :func:`observe`) are
  counters, gauges and quantile sketches declared centrally in
  :data:`~repro.obs.metrics.METRICS`; worker-task writes are recorded
  into task-local registries and merged back through the
  :class:`~repro.parallel.pool.WorkerPool`.
* **Progress** (:class:`~repro.obs.progress.ProgressEvent`) delivers
  epoch-level pairs/sec, loss-estimate and ETA callbacks from
  ``Word2Vec.fit`` / ``DarkVec.fit``.

Everything is **off by default**: the installed recorder is a
:class:`~repro.obs.recorder.NullRecorder` whose operations are empty
calls, instrumentation never consumes randomness, and the
``workers=1`` reference path stays bit-reproducible whether or not a
session is active.  Enable recording with::

    from repro import obs

    with obs.session(obs.Telemetry(profile_memory=True)) as telemetry:
        DarkVec(config).fit(trace)
    obs.write_metrics_ndjson(telemetry, "run.ndjson")
    print(obs.format_stage_table(telemetry))
"""

from repro.obs.drift import (
    DriftReport,
    cluster_stability,
    embedding_drift,
    neighborhood_churn,
)
from repro.obs.export import (
    counters_from_records,
    format_counters_table,
    format_quantile_table,
    format_stage_table,
    telemetry_records,
    write_metrics_ndjson,
)
from repro.obs.live import TelemetrySink, WorkerStream, build_frame
from repro.obs.health import (
    HealthPolicy,
    HealthReport,
    MonitorResult,
    classify,
)
from repro.obs.metrics import METRICS, MetricSpec, MetricsRegistry
from repro.obs.proc import (
    rss_bytes,
    rss_peak_bytes,
    rss_peak_children_bytes,
    sample_rss_peak,
    sample_rss_peak_children,
)
from repro.obs.progress import ProgressEvent, epoch_event
from repro.obs.quality import (
    data_profile,
    empty_window_rate,
    port_mix,
    port_mix_shift,
    volume_zscore,
)
from repro.obs.registry import (
    RunRecord,
    RunRegistry,
    code_version,
    config_fingerprint,
    record_run,
)
from repro.obs.recorder import (
    NullRecorder,
    SpanHandle,
    Telemetry,
    add,
    current,
    observe,
    observe_many,
    session,
    set_gauge,
    span,
    wrap_task,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.spans import Span

__all__ = [
    "METRICS",
    "DriftReport",
    "HealthPolicy",
    "HealthReport",
    "MetricSpec",
    "MetricsRegistry",
    "MonitorResult",
    "NullRecorder",
    "ProgressEvent",
    "QuantileSketch",
    "RunRecord",
    "RunRegistry",
    "Span",
    "SpanHandle",
    "Telemetry",
    "TelemetrySink",
    "WorkerStream",
    "add",
    "build_frame",
    "classify",
    "cluster_stability",
    "code_version",
    "config_fingerprint",
    "counters_from_records",
    "current",
    "data_profile",
    "embedding_drift",
    "empty_window_rate",
    "epoch_event",
    "format_counters_table",
    "format_quantile_table",
    "format_stage_table",
    "neighborhood_churn",
    "observe",
    "observe_many",
    "port_mix",
    "port_mix_shift",
    "record_run",
    "rss_bytes",
    "rss_peak_bytes",
    "rss_peak_children_bytes",
    "sample_rss_peak",
    "sample_rss_peak_children",
    "session",
    "set_gauge",
    "span",
    "telemetry_records",
    "volume_zscore",
    "wrap_task",
    "write_metrics_ndjson",
]
