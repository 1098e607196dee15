"""NDJSON-backed run registry: the longitudinal memory of the pipeline.

Per-run telemetry (PR 2) dies with the process; the registry is the
layer that survives it.  Every ``fit`` / ``update`` / ``evaluate``
appends one immutable :class:`RunRecord` — run id, config fingerprint,
git-describable code version, metric snapshot, stage cache table,
wall time — to ``runs.ndjson`` under the artifact store, giving the
drift and data-quality monitors (:mod:`repro.obs.drift`,
:mod:`repro.obs.quality`) a history to compare against and the
``repro runs`` / ``repro health`` CLI verbs something to render.

The file is an append-only log, written and tailed by the same
appender and reader as the live telemetry stream
(:func:`repro.io.ndjson.append_ndjson`, :func:`repro.io.ndjson
.tail_ndjson`).  An append writes one line and reads no history, so
its cost does not grow with the registry.  A kill mid-append can
leave at most an unfinished last line: readers skip it, and the next
append ends it first, so no complete record is ever lost.  A record
holds the spans of its own run and each sketch's summary, not the
session's whole span tree or compactor levels.
"""

from __future__ import annotations

import functools
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields
from pathlib import Path

from repro.obs.sketch import summarize
from repro.store.fingerprint import stable_hash

#: Registry file name under the registry directory.
RUNS_FILE = "runs.ndjson"


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Git-describable version of the running source tree.

    ``git describe --always --dirty`` from the package directory;
    ``"unknown"`` when git (or the repository) is unavailable, so the
    registry works on deployed copies too.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    version = out.stdout.strip()
    return version if out.returncode == 0 and version else "unknown"


def config_fingerprint(config) -> str:
    """Stable fingerprint over *all* fields of a ``DarkVecConfig``.

    Unlike stage fingerprints (which hash only the fields one stage
    reads), this covers the whole config, so two registry runs compare
    as "same configuration" only when every knob matches.  Custom
    service maps hash by class name + service names; paths by string.
    """
    doc: dict[str, object] = {}
    for f in dc_fields(config):
        value = getattr(config, f.name)
        if f.name == "service" and not isinstance(value, str):
            value = ["custom", type(value).__qualname__, list(value.names)]
        elif f.name == "cache_dir":
            value = None if value is None else str(value)
        elif f.name == "health":
            value = value.to_dict()
        doc[f.name] = value
    return stable_hash(doc)


@dataclass
class RunRecord:
    """One immutable registry entry.

    Attributes:
        run_id: registry-unique id (``run-0001``, ``run-0002``, ...).
        kind: ``"fit"``, ``"update"`` or ``"evaluate"``.
        unix_time: wall-clock time of the append (seconds since epoch).
        code_version: ``git describe`` of the source tree.
        config_fingerprint: :func:`config_fingerprint` of the config.
        wall_seconds: wall time of the recorded operation.
        stages: stage cache table — one dict per stage with ``stage``,
            ``status`` (hit/miss/uncached), ``seconds``, ``fingerprint``.
        metrics: metric-registry snapshot of the active telemetry
            session, each sketch as its :func:`~repro.obs.sketch
            .summarize` summary, or None when recording was off.
        spans: per-span wall/peak-memory rows (path, elapsed_seconds,
            mem_peak_bytes) of the run's own span and its subtree, or
            None.
        profile: ingest data profile (:func:`repro.obs.quality
            .data_profile`), or None.
        health: health-report dict of the run's monitors, or None.
        extra: free-form scalars (e.g. ``loo_accuracy``, update
            counters) for cross-run comparison.
    """

    run_id: str
    kind: str
    unix_time: float
    code_version: str
    config_fingerprint: str
    wall_seconds: float
    stages: list[dict] = field(default_factory=list)
    metrics: dict | None = None
    spans: list[dict] | None = None
    profile: dict | None = None
    health: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form, ready for NDJSON."""
        return asdict(self)


class RunRegistry:
    """Append-only run history stored as NDJSON under a directory.

    The registry directory is created lazily on the first append; a
    missing or empty registry reads as an empty history, so monitors
    degrade to "no baseline" instead of failing.  The registry keeps
    the records it has parsed and where they end, so a read parses
    only the lines appended since the last one, by any process.  One
    thread reads through a registry object at a time (the pipeline's
    caller, or the serve daemon's writer thread).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / RUNS_FILE
        self._records: list[dict] = []
        self._offset = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def runs(self) -> list[dict]:
        """All complete run records, oldest first.

        A torn line (a crashed append) is skipped.  A file that shrank
        or vanished since the last read is read afresh.
        """
        from repro.io.ndjson import tail_ndjson

        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < self._offset:
            self._records, self._offset = [], 0
        records, self._offset = tail_ndjson(self.path, self._offset)
        self._records.extend(records)
        return list(self._records)

    def get(self, run_id: str) -> dict:
        """The record with the given id (KeyError when absent)."""
        for record in self.runs():
            if record.get("run_id") == run_id:
                return record
        raise KeyError(f"unknown run id {run_id!r}")

    def last(self, kind: str | None = None) -> dict | None:
        """The most recent record, optionally filtered by ``kind``."""
        for record in reversed(self.runs()):
            if kind is None or record.get("kind") == kind:
                return record
        return None

    def history(self, key: str, kind: str | None = None) -> list[float]:
        """Chronological values of one ``profile``/``extra`` scalar.

        Looks the key up in each record's ``profile`` first, then its
        ``extra``; records without the key are skipped.  This is the
        baseline the volume z-score monitors compare against.
        """
        values: list[float] = []
        for record in self.runs():
            if kind is not None and record.get("kind") != kind:
                continue
            for source in (record.get("profile"), record.get("extra")):
                if source and key in source and source[key] is not None:
                    values.append(float(source[key]))
                    break
        return values

    def monitor_series(self, name: str) -> list[float]:
        """Chronological values of one health monitor across all runs."""
        values: list[float] = []
        for record in self.runs():
            health = record.get("health") or {}
            for monitor in health.get("monitors", []):
                if monitor.get("name") == name and monitor.get("value") is not None:
                    values.append(float(monitor["value"]))
        return values

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def next_run_id(self) -> str:
        """The id the next append will receive."""
        return f"run-{len(self.runs()) + 1:04d}"

    def append(self, record: RunRecord | dict) -> dict:
        """Append one record as one line; returns its dict form.

        Reads no history: a crash mid-append leaves at most a torn last
        line, which readers skip and the next append ends first.
        """
        from repro.io.ndjson import append_ndjson

        doc = record.to_dict() if isinstance(record, RunRecord) else dict(record)
        self.root.mkdir(parents=True, exist_ok=True)
        append_ndjson(doc, self.path)
        return doc


def record_run(
    registry: RunRegistry,
    kind: str,
    config,
    wall_seconds: float,
    stages: list | None = None,
    profile: dict | None = None,
    health: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble and append one :class:`RunRecord`.

    Snapshots the active telemetry session when one is installed: its
    metrics, each sketch summarised, and the spans under the recording
    thread's innermost open span, which is the run's own
    (``pipeline.fit``, ``pipeline.update`` or ``pipeline.evaluate``).
    Stage statuses may be passed as dataclasses or dicts.  Returns the
    appended record.
    """
    from repro import obs

    recorder = obs.current()
    metrics = None
    spans = None
    if recorder.enabled:
        metrics = recorder.snapshot()
        metrics["sketches"] = {
            name: summarize(data) for name, data in metrics["sketches"].items()
        }
        run_span = recorder.innermost_span()
        if run_span is not recorder.root:  # no span open: not inside a run
            spans = [
                {
                    "path": path,
                    "elapsed_seconds": round(span.elapsed, 6),
                    "mem_peak_bytes": span.mem_peak_bytes,
                }
                for span, _, path in run_span.walk()
            ]
    stage_rows = [
        row if isinstance(row, dict) else asdict(row) for row in stages or []
    ]
    record = RunRecord(
        run_id=registry.next_run_id(),
        kind=kind,
        unix_time=time.time(),
        code_version=code_version(),
        config_fingerprint=config_fingerprint(config),
        wall_seconds=float(wall_seconds),
        stages=stage_rows,
        metrics=metrics,
        spans=spans,
        profile=profile,
        health=health,
        extra=extra or {},
    )
    return registry.append(record)
