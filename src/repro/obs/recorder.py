"""Telemetry recorders and the process-wide recording switch.

Two recorders implement the same surface:

* :class:`NullRecorder` — the default; every operation is a no-op so
  uninstrumented runs pay only an attribute lookup and an empty call
  per instrumentation site (verified to be <2% end-to-end overhead by
  ``benchmarks/bench_perf_engine.py``).  It records nothing and never
  touches RNG streams, time, or memory.
* :class:`Telemetry` — the active recorder: a span tree plus a
  :class:`~repro.obs.metrics.MetricsRegistry`.  Worker tasks record
  into task-local registries whose snapshots are merged back into the
  parent (see :meth:`Telemetry.task_scope`), which is how
  ``workers > 1`` runs aggregate correctly through the
  :class:`~repro.parallel.pool.WorkerPool`.

Enable recording with :func:`session`::

    with obs.session(Telemetry(profile_memory=True)) as telemetry:
        darkvec.fit(trace)
    print(telemetry.root.find("train.fit").elapsed)

Instrumented code never imports a recorder directly; it calls the
module-level helpers (:func:`span`, :func:`add`, ...) in
:mod:`repro.obs`, which dispatch to whatever recorder is installed.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

#: Top-level spans a session keeps: the root drops its oldest closed
#: children past this many, so a long-lived session (the serve daemon)
#: holds a bounded tree.  ``repro top`` draws at most 24 span rows, a
#: one-shot verb opens at most 4 top-level spans and the daemon 2 per
#: promotion.
MAX_ROOT_SPANS = 16

#: Every live Telemetry, so forked children can refresh their locks.
_LIVE_TELEMETRY: "weakref.WeakSet[Telemetry]" = weakref.WeakSet()


def _refresh_locks_after_fork() -> None:
    """Re-create recorder locks in a freshly forked child process.

    A fork can happen while another thread of the parent sits inside a
    recorder critical section (e.g. a serving read path calling
    ``obs.add`` concurrently with a process-backend refit forking its
    worker pool).  The child inherits the mutex in its locked state
    with no thread left to release it, so its first metric write would
    deadlock.  Immediately after fork the child is single-threaded,
    so replacing the locks outright is safe.
    """
    for telemetry in list(_LIVE_TELEMETRY):
        telemetry._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_refresh_locks_after_fork)


class _NullSpan:
    """Reusable no-op span handle returned while recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        """Discard the attributes."""


NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return NULL_SPAN

    def add(self, name: str, value: int | float = 1) -> None:
        """Discard a counter increment."""

    def set_gauge(self, name: str, value: float) -> None:
        """Discard a gauge update."""

    def observe(self, name: str, value: float) -> None:
        """Discard a sketch observation."""

    def observe_many(self, name: str, values: np.ndarray) -> None:
        """Discard a batch of sketch observations."""


class SpanHandle:
    """Context manager that times one :class:`Span` on a telemetry tree.

    Entering links the span under the thread's innermost open span (or
    the root) and starts the clock; exiting records the elapsed time
    and, under memory profiling, the ``tracemalloc`` peak of the
    region.  Exceptions propagate untouched — the span still records
    its duration.
    """

    __slots__ = ("_telemetry", "span", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict) -> None:
        self._telemetry = telemetry
        self.span = Span(name=name, attrs=attrs)
        self._t0 = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the underlying span."""
        self.span.attrs.update(attrs)

    def __enter__(self) -> "SpanHandle":
        telemetry = self._telemetry
        stack = telemetry._stack()
        parent = stack[-1]
        stack.append(self.span)
        if telemetry.profile_memory and tracemalloc.is_tracing():
            # Fold the global high-water mark seen so far into the
            # parent before resetting it for this region — reset_peak
            # would otherwise erase the parent's own peak.
            pre_peak = tracemalloc.get_traced_memory()[1]
            parent.mem_peak_bytes = max(parent.mem_peak_bytes or 0, pre_peak)
            tracemalloc.reset_peak()
        self._t0 = time.perf_counter()
        with telemetry._lock:
            # Link and register in one critical section so live readers
            # (the TelemetrySink) see every in-flight span with its
            # start time — progress is observable mid-stage.
            parent.children.append(self.span)
            telemetry._open_spans[id(self.span)] = self._t0
            if parent is telemetry.root and len(parent.children) > MAX_ROOT_SPANS:
                telemetry._trim_root()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.span.elapsed = time.perf_counter() - self._t0
        self._telemetry._open_spans.pop(id(self.span), None)
        telemetry = self._telemetry
        stack = telemetry._stack()
        if stack and stack[-1] is self.span:
            stack.pop()
        if telemetry.profile_memory and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            # Children have already folded their peaks into this span.
            self.span.mem_peak_bytes = max(
                self.span.mem_peak_bytes or 0, peak
            )
            parent = stack[-1] if stack else telemetry.root
            parent.mem_peak_bytes = max(
                parent.mem_peak_bytes or 0, self.span.mem_peak_bytes
            )
            tracemalloc.reset_peak()
        return None


class Telemetry:
    """The active recorder: span tree + metrics registry.

    Attributes:
        root: synthetic root span; top-level pipeline stages are its
            children, the newest :data:`MAX_ROOT_SPANS` of them once
            closed.
        registry: the aggregated metrics (task-scope snapshots merge
            into it; see :meth:`task_scope`).
        profile_memory: when True and a :func:`session` is active,
            ``tracemalloc`` runs and spans record peak memory.
        worker_stream_interval: when set (by an attached
            :class:`~repro.obs.live.TelemetrySink`), process-pool
            workers publish in-flight snapshots at this period; None
            (the default) keeps cross-process streaming off entirely.
    """

    enabled = True

    def __init__(self, profile_memory: bool = False) -> None:
        self.root = Span(name="root")
        self.registry = MetricsRegistry()
        self.profile_memory = profile_memory
        self.worker_stream_interval: float | None = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        _LIVE_TELEMETRY.add(self)
        # id(span) -> perf_counter() at entry, for every unclosed span.
        self._open_spans: dict[int, float] = {}
        # thread ident -> live task-scope registry (in-flight metrics).
        self._active_shards: dict[int, MetricsRegistry] = {}
        # worker pid -> last published heartbeat (see publish_worker).
        self._workers_live: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Recording surface (mirrors NullRecorder)
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """Open a new child span of the thread's innermost open span."""
        return SpanHandle(self, name, attrs)

    def add(self, name: str, value: int | float = 1) -> None:
        """Increment counter ``name`` (task-local shard when inside one)."""
        registry = getattr(self._tls, "registry", None)
        if registry is not None:
            registry.add(name, value)
        else:
            with self._lock:
                self.registry.add(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``."""
        registry = getattr(self._tls, "registry", None)
        if registry is not None:
            registry.set_gauge(name, value)
        else:
            with self._lock:
                self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record one sketch observation."""
        registry = getattr(self._tls, "registry", None)
        if registry is not None:
            registry.observe(name, value)
        else:
            with self._lock:
                self.registry.observe(name, value)

    def observe_many(self, name: str, values: np.ndarray) -> None:
        """Record a batch of sketch observations."""
        registry = getattr(self._tls, "registry", None)
        if registry is not None:
            registry.observe_many(name, values)
        else:
            with self._lock:
                self.registry.observe_many(name, values)

    # ------------------------------------------------------------------
    # Worker-task aggregation
    # ------------------------------------------------------------------

    @contextmanager
    def task_scope(self) -> Iterator[MetricsRegistry]:
        """Run the body with a fresh task-local metrics registry.

        The :class:`~repro.parallel.pool.WorkerPool` wraps every task in
        one of these: metric writes inside the task hit the private
        registry without locking, and on task completion the registry's
        snapshot is shipped back and merged into the parent under the
        telemetry lock.  Scopes nest (the previous registry is
        restored), and the same code path runs for the inline
        single-threaded pool, so aggregation is identical at every
        worker count.
        """
        shard = MetricsRegistry()
        previous = getattr(self._tls, "registry", None)
        tid = threading.get_ident()
        self._tls.registry = shard
        with self._lock:
            self._active_shards[tid] = shard
        try:
            yield shard
        finally:
            self._tls.registry = previous
            with self._lock:
                if previous is not None:
                    self._active_shards[tid] = previous
                else:
                    self._active_shards.pop(tid, None)
            self.merge_snapshot(shard.snapshot())

    def merge_snapshot(self, snapshot: dict) -> None:
        """Merge a child registry snapshot into the aggregate."""
        with self._lock:
            self.registry.merge(snapshot)

    def snapshot(self) -> dict:
        """Thread-safe snapshot of the aggregated metrics.

        Note: metric writes made inside still-running task scopes are
        not visible until those tasks complete; use
        :meth:`inflight_snapshot` for the live view.
        """
        with self._lock:
            return self.registry.snapshot()

    # ------------------------------------------------------------------
    # Live view (consumed by repro.obs.live)
    # ------------------------------------------------------------------

    def open_spans(self) -> dict[int, float]:
        """``id(span) -> start perf_counter`` for every unclosed span.

        Copied under the lock so a concurrent exit cannot mutate the
        dict mid-iteration.
        """
        with self._lock:
            return dict(self._open_spans)

    def inflight_snapshot(self) -> dict:
        """Merged snapshot of every still-running task scope.

        This is the live complement of :meth:`snapshot`: metric writes
        sitting in unfinished task shards, visible before the shards
        merge.  Reading races the writers benignly (counters may lag by
        the last increment) — the final merge is still exact.
        """
        with self._lock:
            shards = list(self._active_shards.values())
        merged = MetricsRegistry()
        for shard in shards:
            try:
                merged.merge(shard.snapshot())
            except RuntimeError:
                # The owning thread added a metric mid-copy ("dict
                # changed size during iteration"); skip this shard for
                # this frame — the next one will see it.
                continue
        return merged.snapshot()

    def publish_worker(self, info: dict) -> None:
        """Record a periodic heartbeat from a process-pool worker.

        ``info`` carries at least ``pid``; by convention also ``rss``
        (bytes), ``time`` (wall clock) and ``metrics`` (an in-flight
        registry snapshot).  Heartbeats feed the live frame only — the
        worker's end-of-task snapshot still merges normally, so the
        aggregate never double-counts.
        """
        with self._lock:
            self._workers_live[int(info.get("pid", 0))] = info
            self.registry.add("telemetry.worker_snapshots", 1)

    def workers_view(self) -> list[dict]:
        """Latest heartbeat per live worker pid, sorted by pid."""
        with self._lock:
            return [
                dict(info)
                for _, info in sorted(self._workers_live.items())
            ]

    def clear_workers(self) -> None:
        """Drop worker heartbeats (the pool they came from is gone)."""
        with self._lock:
            self._workers_live.clear()

    def innermost_span(self) -> Span:
        """The calling thread's innermost open span (the root if none)."""
        return self._stack()[-1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = [self.root]
            self._tls.stack = stack
        return stack

    def _trim_root(self) -> None:
        """Drop the root's oldest closed children past
        :data:`MAX_ROOT_SPANS`; the caller holds the lock."""
        excess = len(self.root.children) - MAX_ROOT_SPANS
        kept = []
        for child in self.root.children:
            if excess > 0 and id(child) not in self._open_spans:
                excess -= 1
            else:
                kept.append(child)
        self.root.children = kept


_CURRENT: NullRecorder | Telemetry = NullRecorder()


def current() -> NullRecorder | Telemetry:
    """The currently installed recorder (a no-op one by default)."""
    return _CURRENT


@contextmanager
def session(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the process-wide recorder.

    Starts ``tracemalloc`` for memory-profiling sessions (and stops it
    again if this session started it).  Sessions restore the previous
    recorder on exit, so they can nest, but the recorder is process
    global — concurrent sessions from different threads would observe
    each other.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    started_tracing = False
    if telemetry.profile_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    try:
        yield telemetry
    finally:
        _CURRENT = previous
        if started_tracing:
            tracemalloc.stop()


def span(name: str, **attrs: Any) -> SpanHandle | _NullSpan:
    """Open a span on the installed recorder (no-op when disabled)."""
    return _CURRENT.span(name, **attrs)


def add(name: str, value: int | float = 1) -> None:
    """Increment a counter on the installed recorder."""
    _CURRENT.add(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the installed recorder."""
    _CURRENT.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a sketch observation on the installed recorder."""
    _CURRENT.observe(name, value)


def observe_many(name: str, values: np.ndarray) -> None:
    """Record a batch of sketch observations."""
    _CURRENT.observe_many(name, values)


def wrap_task(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a worker task so its metrics merge back into the parent.

    Returns ``fn`` unchanged when recording is disabled — the zero-
    overhead default path.  Otherwise the returned callable runs ``fn``
    inside :meth:`Telemetry.task_scope` of the recorder installed *at
    wrap time* (tasks may outlive a recorder switch on the submitting
    thread).
    """
    recorder = _CURRENT
    if not recorder.enabled:
        return fn

    @functools.wraps(fn)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        with recorder.task_scope():
            return fn(*args, **kwargs)

    return wrapped
