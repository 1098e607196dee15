"""Live telemetry plane: streaming sinks, worker heartbeats, `repro top`.

The rest of :mod:`repro.obs` is batch-shaped — spans and metrics become
visible when a verb finishes.  This module makes a *running* session
observable:

* :func:`build_frame` serializes the live recorder — including
  in-flight (unclosed) spans with their current elapsed time, metric
  writes still sitting in unfinished task scopes, and the latest
  process-pool worker heartbeats — into one JSON-ready frame.  The
  session keeps its newest top-level spans only
  (:data:`~repro.obs.recorder.MAX_ROOT_SPANS`), so a frame stays small
  however long the session runs.
* :class:`TelemetrySink` is a background flusher thread that appends a
  frame to an NDJSON stream every ``interval`` seconds (default 1s)
  with :func:`repro.io.ndjson.append_ndjson` and atomically rewrites a
  Prometheus text-exposition file, so any scrape agent or a second
  terminal can follow a fit mid-stage.
* :class:`WorkerStream` + :func:`start_worker_heartbeat` are the
  cross-process half: fork-pool workers publish periodic in-flight
  snapshots and their own RSS through a multiprocessing queue, giving
  the parent's live view per-worker visibility between task merges.
* :func:`render_frame` is the consumer: the ``repro top`` CLI verb
  tails the stream from *another process* with
  :func:`repro.io.ndjson.tail_ndjson` and renders stage tree, epoch
  progress, counter rates, an RSS sparkline and sketch quantiles.

Everything here is reached only when a :class:`~repro.obs.recorder.
Telemetry` session is active and a sink is attached — the
``NullRecorder`` default path never imports this module.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.obs import proc, recorder
from repro.obs.metrics import METRICS
from repro.obs.sketch import summarize

#: Default flush period of the sink (and the worker heartbeat period).
DEFAULT_INTERVAL = 1.0

#: Worker heartbeats older than this many periods are dropped from
#: frames — the worker is gone or wedged, not "current".
_STALE_HEARTBEATS = 5.0


def _walk_live(span: Any) -> Iterator[tuple[Any, int, str]]:
    """Race-tolerant DFS over a span tree that is still being built.

    Child lists are copied before iteration: concurrent appends from
    worker threads extend the original list, never the copy, so the
    walk sees a consistent prefix of the tree.
    """
    stack = [(span, 0, span.name)]
    while stack:
        node, depth, path = stack.pop()
        yield node, depth, path
        for child in reversed(list(node.children)):
            stack.append((child, depth + 1, f"{path}/{child.name}"))


def build_frame(telemetry: recorder.Telemetry, seq: int) -> dict:
    """One JSON-ready frame of the recorder's live state.

    In-flight spans report their *current* elapsed time and
    ``open: true``; metrics merge the aggregate registry with every
    unfinished task scope; workers carry the freshest heartbeat per
    process-pool child.
    """
    now = time.perf_counter()
    open_spans = telemetry.open_spans()
    spans = []
    for span, depth, path in _walk_live(telemetry.root):
        if span is telemetry.root:
            continue
        t0 = open_spans.get(id(span))
        spans.append(
            {
                "path": path[len(telemetry.root.name) + 1 :],
                "name": span.name,
                "depth": depth - 1,
                "elapsed": span.elapsed if t0 is None else now - t0,
                "open": t0 is not None,
                "attrs": dict(span.attrs),
            }
        )

    snapshot = telemetry.snapshot()
    inflight = telemetry.inflight_snapshot()
    interval = telemetry.worker_stream_interval or DEFAULT_INTERVAL
    t_wall = time.time()
    workers = []
    for info in telemetry.workers_view():
        age = t_wall - float(info.get("time", t_wall))
        if age > _STALE_HEARTBEATS * interval:
            continue
        metrics = info.get("metrics") or {}
        workers.append(
            {
                "pid": info.get("pid"),
                "rss": info.get("rss"),
                "age": age,
                "counters": metrics.get("counters", {}),
            }
        )
        for name, data in metrics.get("counters", {}).items():
            inflight["counters"][name] = (
                inflight["counters"].get(name, 0) + data
            )

    sketches = {
        name: summarize(data)
        for name, data in snapshot.get("sketches", {}).items()
    }
    return {
        "type": "frame",
        "seq": seq,
        "time": t_wall,
        "spans": spans,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "sketches": sketches,
        "inflight": {"counters": inflight["counters"]},
        "workers": workers,
        "proc": {
            "rss": proc.rss_bytes(),
            "rss_peak": proc.rss_peak_bytes(),
            "rss_children": sum(
                int(w["rss"]) for w in workers if w.get("rss")
            ),
        },
    }


def prometheus_text(snapshot: dict) -> str:
    """Render a registry snapshot in Prometheus text-exposition format.

    Metric names map ``a.b_c`` → ``repro_a_b_c``; sketches become
    summaries with ``quantile`` labels.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, body: list[str]) -> None:
        metric = "repro_" + name.replace(".", "_").replace("-", "_")
        spec = METRICS.get(name)
        if spec is not None:
            lines.append(f"# HELP {metric} {spec.description}")
        lines.append(f"# TYPE {metric} {kind}")
        lines.extend(line.format(metric=metric) for line in body)

    for name, value in sorted(snapshot.get("counters", {}).items()):
        emit(name, "counter", [f"{{metric}} {value}"])
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        emit(name, "gauge", [f"{{metric}} {value}"])
    for name, data in sorted(snapshot.get("sketches", {}).items()):
        summary = summarize(data)
        body = []
        for q in (0.5, 0.95, 0.99):
            value = summary[f"p{int(q * 100)}"]
            if value is not None:
                body.append(f'{{metric}}{{{{quantile="{q}"}}}} {value}')
        body.append(f'{{metric}}_sum {summary["sum"]}')
        body.append(f'{{metric}}_count {summary["count"]}')
        emit(name, "summary", body)
    return "\n".join(lines) + "\n"


class TelemetrySink:
    """Background flusher: live recorder → NDJSON stream (+ Prometheus).

    Every ``interval`` seconds (and once more on close) the sink
    appends one :func:`build_frame` line to ``stream_path`` and, when
    ``prom_path`` is set, atomically republishes the Prometheus
    text-exposition file.  Frames go through
    :func:`repro.io.ndjson.append_ndjson`, one ``write`` per frame, so
    a concurrent tail sees at most one partial *last* line (which
    :func:`repro.io.ndjson.tail_ndjson` skips until its newline lands).

    Attaching the sink sets ``worker_stream_interval`` on the recorder,
    which is the switch the process-pool plumbing checks before
    starting worker heartbeats — no sink, no cross-process traffic.
    """

    def __init__(
        self,
        telemetry: recorder.Telemetry,
        stream_path: str | Path,
        prom_path: str | Path | None = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"flush interval must be positive, got {interval}")
        self.telemetry = telemetry
        self.stream_path = Path(stream_path)
        self.prom_path = None if prom_path is None else Path(prom_path)
        self.interval = float(interval)
        self.seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Truncate the stream and start the flusher thread."""
        self.stream_path.parent.mkdir(parents=True, exist_ok=True)
        self.stream_path.write_text("")
        self.telemetry.worker_stream_interval = self.interval
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-sink", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the flusher and write one final frame."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.flush()
        self.telemetry.worker_stream_interval = None

    def __enter__(self) -> "TelemetrySink":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.flush()
            except Exception:
                # A failed flush (disk full, unserializable attr) must
                # never take down the run it is observing.
                continue

    def flush(self) -> dict:
        """Write one frame now; returns the frame."""
        from repro.io.ndjson import _atomic_open, append_ndjson

        t0 = time.perf_counter()
        frame = build_frame(self.telemetry, self.seq)
        self.seq += 1
        append_ndjson(frame, self.stream_path)
        if self.prom_path is not None:
            with _atomic_open(self.prom_path) as handle:
                handle.write(prometheus_text(self.telemetry.snapshot()))
        self.telemetry.add("telemetry.flushes", 1)
        self.telemetry.observe(
            "telemetry.flush_seconds", time.perf_counter() - t0
        )
        return frame


# ----------------------------------------------------------------------
# Cross-process streaming (fork-pool workers → parent live view)
# ----------------------------------------------------------------------


def start_worker_heartbeat(queue: Any, interval: float) -> None:
    """Pool initializer: publish periodic snapshots from a forked worker.

    Runs in the *child* right after fork.  A daemon thread ships
    ``{pid, time, rss, metrics}`` through ``queue`` every ``interval``
    seconds, where ``metrics`` is the worker's in-flight task-scope
    snapshot — the parent sees counters move *during* a task, not only
    at the end-of-task merge.  Any queue failure (parent gone) ends the
    thread quietly.
    """
    rec = recorder.current()
    if not rec.enabled:
        return

    def beat() -> None:
        while True:
            time.sleep(interval)
            try:
                queue.put(
                    {
                        "pid": os.getpid(),
                        "time": time.time(),
                        "rss": proc.rss_bytes(),
                        "metrics": rec.inflight_snapshot(),
                    }
                )
            except Exception:
                return

    threading.Thread(
        target=beat, name="telemetry-heartbeat", daemon=True
    ).start()


class WorkerStream:
    """Parent-side drain of process-pool worker heartbeats.

    Owns the multiprocessing queue the children publish into and a
    drainer thread feeding :meth:`Telemetry.publish_worker`.  Created
    only when a sink is attached (see :meth:`maybe`), so plain process
    runs carry zero extra plumbing.
    """

    def __init__(
        self, telemetry: recorder.Telemetry, ctx: Any, interval: float
    ) -> None:
        self.telemetry = telemetry
        self.queue = ctx.SimpleQueue()
        self.interval = float(interval)
        self._thread: threading.Thread | None = None

    @classmethod
    def maybe(
        cls, rec: recorder.NullRecorder | recorder.Telemetry, ctx: Any
    ) -> "WorkerStream | None":
        """A stream when live streaming is on for ``rec``, else None."""
        interval = getattr(rec, "worker_stream_interval", None)
        if not rec.enabled or interval is None:
            return None
        return cls(rec, ctx, interval)

    @property
    def initargs(self) -> tuple:
        """``(initializer, initargs)`` arguments for the worker pool."""
        return start_worker_heartbeat, (self.queue, self.interval)

    def start(self) -> None:
        """Start draining heartbeats into the recorder."""
        self._thread = threading.Thread(
            target=self._drain, name="telemetry-drain", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Drain remaining heartbeats, stop the thread, drop the view.

        The sentinel is enqueued after the pool has exited, so every
        heartbeat already in the pipe is consumed before the drainer
        stops.
        """
        if self._thread is not None:
            self.queue.put(None)
            self._thread.join()
            self._thread = None
        self.telemetry.clear_workers()

    def _drain(self) -> None:
        while True:
            try:
                item = self.queue.get()
            except (EOFError, OSError):
                return
            if item is None:
                return
            self.telemetry.publish_worker(item)


# ----------------------------------------------------------------------
# Consumer side: rendering frames (the `repro top` verb)
# ----------------------------------------------------------------------


def _fmt_bytes(n: float | None) -> str:
    if not n:
        return "-"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}TiB"


def _fmt_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    if value < 120.0:
        return f"{value:.2f}s"
    return f"{value / 60:.1f}m"


def render_frame(
    frame: dict,
    prev: dict | None = None,
    rss_history: list[float] | None = None,
    width: int = 80,
) -> str:
    """Render one frame as the `repro top` dashboard (no ANSI codes).

    ``prev`` (an earlier frame) turns counters into rates; the screen
    handling (clear + home) is the CLI loop's job so this stays pure
    and testable.
    """
    from repro.utils.ascii_plot import sparkline

    lines: list[str] = []
    when = time.strftime("%H:%M:%S", time.localtime(frame.get("time", 0)))
    procinfo = frame.get("proc", {})
    lines.append(
        f"repro top — frame {frame.get('seq', '?')} at {when}   "
        f"rss {_fmt_bytes(procinfo.get('rss'))} "
        f"(peak {_fmt_bytes(procinfo.get('rss_peak'))}"
        + (
            f", children {_fmt_bytes(procinfo.get('rss_children'))})"
            if procinfo.get("rss_children")
            else ")"
        )
    )
    if rss_history and len(rss_history) > 1:
        lines.append(f"rss  {sparkline(rss_history, width=width - 6)}")
    lines.append("")

    spans = frame.get("spans", [])
    if spans:
        lines.append("stages")
        for span in spans[-24:]:
            marker = "▶" if span.get("open") else " "
            indent = "  " * int(span.get("depth", 0))
            attrs = span.get("attrs", {})
            extra = ""
            if "epoch" in attrs:
                extra = f"  epoch {attrs['epoch']}"
            elif "stage" in attrs:
                extra = f"  {attrs['stage']}"
            lines.append(
                f" {marker} {indent}{span['name']:<28} "
                f"{_fmt_seconds(float(span.get('elapsed', 0.0)))}{extra}"
            )
        lines.append("")

    counters = dict(frame.get("counters", {}))
    inflight = frame.get("inflight", {}).get("counters", {})
    for name, value in inflight.items():
        counters[name] = counters.get(name, 0) + value
    gauges = frame.get("gauges", {})
    planned = gauges.get("train.pairs_planned")
    if planned:
        done = counters.get("train.pairs", 0)
        fraction = min(float(done) / float(planned), 1.0)
        bar_width = max(width - 30, 10)
        filled = int(fraction * bar_width)
        lines.append(
            f"train [{'#' * filled}{'.' * (bar_width - filled)}] "
            f"{fraction * 100:5.1f}%  ({int(done)}/{int(planned)} pairs)"
        )
        lines.append("")

    if counters:
        lines.append("counters" + (" (incl. in-flight)" if inflight else ""))
        dt = None
        prev_counters: dict = {}
        if prev is not None:
            dt = float(frame.get("time", 0)) - float(prev.get("time", 0))
            prev_counters = dict(prev.get("counters", {}))
            for name, value in (
                prev.get("inflight", {}).get("counters", {}).items()
            ):
                prev_counters[name] = prev_counters.get(name, 0) + value
        for name in sorted(counters):
            value = counters[name]
            rate = ""
            if dt and dt > 0:
                delta = value - prev_counters.get(name, 0)
                rate = f"  {delta / dt:>12.1f}/s"
            lines.append(f"  {name:<28} {value:>14}{rate}")
        lines.append("")

    sketches = frame.get("sketches", {})
    if sketches:
        lines.append("distributions (sketch quantiles)")
        lines.append(
            f"  {'metric':<28} {'count':>8} {'p50':>10} {'p95':>10} {'p99':>10}"
        )
        for name in sorted(sketches):
            s = sketches[name]
            spec = METRICS.get(name)
            seconds = spec is not None and spec.unit == "seconds"
            fmt = _fmt_seconds if seconds else "{:.6g}".format
            cells = " ".join(
                f"{'-' if s.get(q) is None else fmt(s[q]):>10}"
                for q in ("p50", "p95", "p99")
            )
            lines.append(f"  {name:<28} {s.get('count', 0):>8} {cells}")
        lines.append("")

    workers = frame.get("workers", [])
    if workers:
        lines.append("workers")
        for worker in workers:
            busiest = ""
            wc = worker.get("counters", {})
            if wc:
                name = max(wc, key=lambda key: wc[key])
                busiest = f"  {name}={wc[name]}"
            lines.append(
                f"  pid {worker.get('pid'):<8} rss {_fmt_bytes(worker.get('rss')):>10} "
                f"age {float(worker.get('age', 0.0)):4.1f}s{busiest}"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
