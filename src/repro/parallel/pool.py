"""Worker-pool execution primitives.

:class:`WorkerPool` wraps :class:`concurrent.futures.ThreadPoolExecutor`
with the semantics the pipeline needs: the ``workers`` knob expresses
the *requested* parallelism (``0`` = all cores) while the actual thread
count is capped at the machine's core count — the hot paths are numpy
kernels that release the GIL, so threads beyond physical cores only add
scheduling overhead.  A single-threaded pool runs tasks inline at
submit time; this keeps the task structure (and therefore work
sharding) identical across machines while skipping thread overhead
entirely, and makes single-core runs fully deterministic.

Pools also support a ``"process"`` backend for ``map``: tasks fan out
to fork-based workers (``multiprocessing``), escaping the GIL for
Python-heavy work.  Fork inheritance stands in for pickling — the task
function and items are published in a module global before the fork,
and workers receive only indices — so arbitrary closures work.  The
trade-off is that workers see copy-on-write *copies* of the parent's
memory: task functions must **return** their results (mutating parent
arrays in place does not propagate).  Writable cross-process state
lives in :mod:`repro.parallel.shm` shared-memory arrays.

When a telemetry session is active (:mod:`repro.obs`), every task runs
inside a task scope: its metric writes land in a task-local registry
whose snapshot is merged back into the parent when the task finishes —
process-backend tasks ship their snapshot home alongside the result —
so ``workers > 1`` runs aggregate counters exactly like single-worker
runs.  With no session active the wrapping is skipped entirely.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable

from repro.obs import recorder
from repro.obs.recorder import wrap_task

#: Valid WorkerPool backends.
POOL_BACKENDS = ("thread", "process")

#: Default backend of pools built without an explicit one, scoped per
#: context (so per thread) by :func:`pool_backend`.
_DEFAULT_BACKEND: ContextVar[str] = ContextVar("pool_backend", default="thread")

#: Fork-published ``(fn, items)`` for the in-flight process map, plus
#: the lock serialising process maps (the global is per-fork state).
_FORK_STATE: tuple[Callable[[Any], Any], list] | None = None
_FORK_LOCK = threading.Lock()


def resolve_workers(workers: int) -> int:
    """Normalise a ``workers`` knob: ``<= 0`` means all available cores."""
    if workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


def fork_available() -> bool:
    """Whether fork-based process pools work on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_backend() -> str:
    """The current context's default pool backend (``"thread"`` unless scoped)."""
    return _DEFAULT_BACKEND.get()


@contextmanager
def pool_backend(name: str):
    """Scope the default backend of pools built without an explicit one.

    The pipeline wraps ``fit``/``update``/``evaluate``/``cluster`` in
    this scope so one config knob reaches every nested WorkerPool
    without threading a parameter through each call site.  The scope
    is a :class:`~contextvars.ContextVar`, so it covers only the
    calling thread: the serve daemon's writer can train under
    ``"process"`` while its reader threads keep building ``"thread"``
    search pools.
    """
    if name not in POOL_BACKENDS:
        raise ValueError(f"pool backend must be one of {POOL_BACKENDS}, got {name!r}")
    token = _DEFAULT_BACKEND.set(name)
    try:
        yield
    finally:
        _DEFAULT_BACKEND.reset(token)


def _fork_map_entry(index: int):
    """Run one fork-published task; executed inside a worker process."""
    assert _FORK_STATE is not None
    fn, items = _FORK_STATE
    rec = recorder.current()
    if not rec.enabled:
        return fn(items[index]), None
    with rec.task_scope() as shard:
        result = fn(items[index])
        snapshot = shard.snapshot()
    return result, snapshot


class WorkerPool:
    """Thread pool with an inline fast path for single-threaded runs.

    Attributes:
        workers: requested logical parallelism (after resolving ``0``).
        threads: actual worker count, capped at the core count.
        backend: ``"thread"`` or ``"process"`` (``map`` fan-out only;
            ``submit`` always uses threads).  ``None`` at construction
            picks the scoped :func:`default_backend`.
    """

    def __init__(self, workers: int = 1, backend: str | None = None) -> None:
        self.workers = resolve_workers(workers)
        self.threads = max(1, min(self.workers, os.cpu_count() or 1))
        if backend is None:
            backend = default_backend()
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"pool backend must be one of {POOL_BACKENDS}, got {backend!r}"
            )
        if backend == "process" and not fork_available():
            backend = "thread"
        self.backend = backend
        self._executor: ThreadPoolExecutor | None = None

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)``; runs inline when 1-threaded.

        Futures need a shared address space to be awaited incrementally,
        so ``submit`` always uses the thread executor regardless of
        backend; only ``map`` fans out across processes.
        """
        fn = wrap_task(fn)
        if self.threads == 1:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # mirror executor behaviour
                future.set_exception(exc)
            return future
        return self._ensure_executor().submit(fn, *args, **kwargs)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item concurrently, preserving order.

        The process backend fans out ``workers`` processes (not the
        core-capped ``threads``): forked workers escape the GIL, so
        requested parallelism is honoured even where the thread pool
        would collapse to the core count.
        """
        items = list(items)
        if self.backend == "process" and self.workers > 1 and len(items) > 1:
            return self._process_map(fn, items)
        if self.threads == 1 or len(items) <= 1:
            fn = wrap_task(fn)
            return [fn(item) for item in items]
        return list(self._ensure_executor().map(wrap_task(fn), items))

    def _process_map(self, fn: Callable[[Any], Any], items: list) -> list:
        """Fan ``fn`` over ``items`` in fork-based worker processes."""
        global _FORK_STATE
        rec = recorder.current()
        ctx = multiprocessing.get_context("fork")
        stream = None
        initializer, initargs = None, ()
        if rec.enabled and getattr(rec, "worker_stream_interval", None):
            # A live sink is attached: workers heartbeat in-flight
            # snapshots + RSS through a queue (see repro.obs.live).
            from repro.obs.live import WorkerStream

            stream = WorkerStream.maybe(rec, ctx)
        if stream is not None:
            initializer, initargs = stream.initargs
            stream.start()
        with _FORK_LOCK:
            _FORK_STATE = (fn, items)
            try:
                with ctx.Pool(
                    processes=min(self.workers, len(items)),
                    initializer=initializer,
                    initargs=initargs,
                ) as pool:
                    outcomes = pool.map(_fork_map_entry, range(len(items)))
            finally:
                _FORK_STATE = None
                if stream is not None:
                    stream.stop()
        results = []
        for result, snapshot in outcomes:
            if snapshot is not None and rec.enabled:
                rec.merge_snapshot(snapshot)
            results.append(result)
        return results

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry; returns the pool itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit; shuts the executor down."""
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.threads)
        return self._executor
