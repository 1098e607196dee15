"""Telemetry export: NDJSON records and plain-text profile tables.

One telemetry session flattens to a stream of self-describing NDJSON
records — ``span`` records (one per node of the trace tree, with a
stable ``path``) followed by ``counter``/``gauge``/``sketch`` records —
written through the generic NDJSON helpers in
:mod:`repro.io.ndjson`, so ``.gz`` paths compress transparently.
:func:`counters_from_records` inverts the counter part for cross-run
comparisons (e.g. asserting that ``workers=1`` and ``workers=2`` runs
aggregate to identical deterministic counters).
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import METRICS
from repro.obs.recorder import Telemetry
from repro.obs.sketch import summarize
from repro.obs.spans import Span


def telemetry_records(telemetry: Telemetry) -> list[dict]:
    """Flatten a telemetry session into NDJSON-ready dicts.

    Span records carry ``path`` (slash-joined ancestry, root excluded),
    ``depth``, ``elapsed_seconds``, ``mem_peak_bytes`` and ``attrs``;
    metric records carry the aggregated value plus the spec's
    ``deterministic`` flag so consumers can separate timing-independent
    counters from schedule-dependent ones.
    """
    records: list[dict] = []
    for span, depth, path in telemetry.root.walk():
        if span is telemetry.root:
            continue
        stripped = path.split("/", 1)[1]  # drop the synthetic root
        records.append(
            {
                "type": "span",
                "name": span.name,
                "path": stripped,
                "depth": depth - 1,
                "elapsed_seconds": round(span.elapsed, 6),
                "mem_peak_bytes": span.mem_peak_bytes,
                "attrs": span.attrs,
            }
        )
    snapshot = telemetry.snapshot()
    for name, value in sorted(snapshot["counters"].items()):
        records.append(
            {
                "type": "counter",
                "name": name,
                "value": value,
                "deterministic": METRICS[name].deterministic,
            }
        )
    for name, value in sorted(snapshot["gauges"].items()):
        records.append(
            {
                "type": "gauge",
                "name": name,
                "value": value,
                "deterministic": METRICS[name].deterministic,
            }
        )
    for name, data in sorted(snapshot["sketches"].items()):
        records.append(
            {
                "type": "sketch",
                "name": name,
                "deterministic": METRICS[name].deterministic,
                **summarize(data),
                "state": data,
            }
        )
    return records


def write_metrics_ndjson(telemetry: Telemetry, path: str | Path) -> None:
    """Write a session's records as NDJSON (gzip for ``.gz`` paths)."""
    from repro.io.ndjson import write_ndjson  # local: avoids import cycle

    write_ndjson(telemetry_records(telemetry), path)


def counters_from_records(
    records: list[dict], deterministic_only: bool = False
) -> dict[str, int | float]:
    """Counter name -> value from exported records.

    With ``deterministic_only`` the schedule-dependent counters (those
    flagged ``deterministic: false``) are dropped, leaving exactly the
    set that must be identical across ``workers`` settings of one run.
    """
    return {
        record["name"]: record["value"]
        for record in records
        if record.get("type") == "counter"
        and (record.get("deterministic", True) or not deterministic_only)
    }


def format_stage_table(telemetry: Telemetry, title: str | None = None) -> str:
    """Per-stage time / peak-memory / throughput table of a session.

    One row per span, indented by nesting depth.  Memory shows ``-``
    unless the session profiled memory; throughput comes from the
    ``items``/``items_unit`` span attributes set by the
    instrumentation sites.
    """
    from repro.utils.tables import format_table

    rows = []
    for span, depth, _ in telemetry.root.walk():
        if span is telemetry.root:
            continue
        rows.append(
            [
                "  " * (depth - 1) + span.name,
                f"{span.elapsed:.3f}",
                _memory_cell(span),
                _throughput_cell(span),
            ]
        )
    return format_table(
        ["Stage", "Time (s)", "Peak mem", "Throughput"], rows, title=title
    )


def format_counters_table(
    telemetry: Telemetry, title: str | None = None
) -> str:
    """Aggregated counter/gauge table of a session (sorted by name)."""
    from repro.utils.tables import format_table

    snapshot = telemetry.snapshot()
    rows = [
        [name, METRICS[name].kind, f"{value:,}"]
        for name, value in sorted(
            {**snapshot["counters"], **snapshot["gauges"]}.items()
        )
    ]
    return format_table(["Metric", "Kind", "Value"], rows, title=title)


def format_quantile_table(
    sketches: dict[str, dict], title: str | None = None
) -> str:
    """Sketch p50/p95/p99 table from a ``sketches`` snapshot section.

    Shared by ``repro profile`` output and ``runs show --quantiles`` —
    the historical view of the same quantiles the live dashboard shows.
    Each entry is a :func:`~repro.obs.sketch.summarize` summary, as
    registry records hold, or a full sketch state with its ``levels``
    (a live snapshot, or a record written before records held
    summaries), which is summarised here.
    """
    from repro.utils.tables import format_table

    rows = []
    for name, data in sorted(sketches.items()):
        summary = summarize(data) if "levels" in data else data
        rows.append(
            [
                name,
                f"{summary['count']:,}",
                *(
                    "-" if summary[col] is None else f"{summary[col]:.6f}"
                    for col in ("p50", "p95", "p99")
                ),
                "-" if summary["max"] is None else f"{summary['max']:.6f}",
            ]
        )
    return format_table(
        ["Metric", "Count", "p50", "p95", "p99", "Max"], rows, title=title
    )


def _memory_cell(span: Span) -> str:
    if span.mem_peak_bytes is None:
        return "-"
    return f"{span.mem_peak_bytes / 2**20:.1f} MB"


def _throughput_cell(span: Span) -> str:
    rate = span.throughput
    if rate is None:
        return "-"
    unit = span.attrs.get("items_unit", "items")
    return f"{rate:,.0f} {unit}/s"
