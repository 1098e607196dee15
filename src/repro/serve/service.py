"""The streaming serving core: ingest queue, writer loop, read path.

:class:`DarkVecService` turns the batch pipeline into a daemon.  One
writer thread drains an ingest queue of packet micro-batches and
applies :meth:`DarkVec.update` per batch; the health gate plus run
registry act as the promotion/rollback loop.  Readers never touch the
model under retrain — every query answers from the current
:class:`~repro.serve.snapshot.ModelSnapshot`, which the writer swaps
in atomically only after a batch passes the gate.  A gated (or
crashed) update keeps the previous model installed in the pipeline and
the previous snapshot live, so zero queries fail across a promotion or
a rollback, and the next batch trains on the last promoted model.
"""

from __future__ import annotations

import numbers
import queue
import threading
import traceback
from time import perf_counter

from repro import obs
from repro.core.pipeline import DarkVec
from repro.labels.groundtruth import GroundTruth
from repro.serve.snapshot import ModelSnapshot
from repro.trace.address import str_to_ip
from repro.trace.packet import Trace


class ServiceClosedError(RuntimeError):
    """Raised when work is submitted to a stopped service."""


class DarkVecService:
    """Single-writer streaming service around a fitted :class:`DarkVec`.

    Args:
        darkvec: a *fitted* pipeline (the initial model, snapshot v0).
        truth: optional ground truth; labels classify answers and feeds
            the LOO-accuracy health monitor on every update.
        health_gate: gate promotions on the health verdict (None =
            the pipeline default, ``config.health.gate_updates``).
        knn_k: neighbours used by the classify read path.
        with_clusters: cache a Louvain partition per snapshot so
            membership queries are O(1); disable to cut promotion cost
            when cluster queries are not needed.
        max_pending: ingest queue capacity — ``submit`` blocks once
            this many batches are waiting (backpressure, bounds memory).
    """

    def __init__(
        self,
        darkvec: DarkVec,
        truth: GroundTruth | None = None,
        health_gate: bool | None = None,
        knn_k: int = 7,
        with_clusters: bool = True,
        max_pending: int = 64,
    ) -> None:
        darkvec._require_fit()
        self.darkvec = darkvec
        self.truth = truth
        self.health_gate = health_gate
        self.knn_k = knn_k
        self.with_clusters = with_clusters
        self.snapshot = ModelSnapshot.of(
            darkvec, truth=truth, version=0, k=knn_k, with_clusters=with_clusters
        )
        self.promotions = 0
        self.rollbacks = 0
        self.batches = 0
        #: ``"<Type>: <message>"`` of the latest crashed update, or None.
        self.last_error: str | None = None
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._pending = 0
        self._idle = threading.Condition()
        self._closed = False
        # Serialises submit() against close(): nothing may be enqueued
        # after the shutdown sentinel, or the writer would exit with the
        # batch silently dropped and _pending never reaching zero.
        self._lifecycle = threading.Lock()
        self._writer = threading.Thread(
            target=self._writer_loop, name="darkvec-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Write path (single writer)
    # ------------------------------------------------------------------

    def submit(self, batch: Trace) -> None:
        """Enqueue one micro-batch for the writer loop.

        Returns as soon as the batch is queued; blocks only when the
        queue is full (backpressure).  The batch may span any sub-day
        window and may be empty (counted no-op).
        """
        with self._lifecycle:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            with self._idle:
                self._pending += 1
            # put() may block on backpressure while holding the lock;
            # the writer drains the queue without it, so slots free up
            # and close() simply waits its turn behind this submit.
            self._queue.put(batch)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted batch has been applied.

        Returns False if ``timeout`` (seconds) elapsed first.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        with self._idle:
            while self._pending > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain outstanding batches and stop the writer thread."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._writer.join(timeout=timeout)

    def __enter__(self) -> "DarkVecService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _writer_loop(self) -> None:
        while True:
            batch = self._queue.get()
            if batch is None:
                return
            try:
                self._apply(batch)
            finally:
                with self._idle:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.notify_all()

    def _apply(self, batch: Trace) -> None:
        """Apply one micro-batch; swap the snapshot only on promotion."""
        if not len(batch):
            # Idle tick: counted (serve.empty_batches) inside update().
            self.darkvec.update(batch, allow_empty=True)
            return
        obs.add("serve.ingested_packets", len(batch))
        obs.add("serve.batches")
        self.batches += 1
        before = self.darkvec.fitted
        try:
            self.darkvec.update(
                batch, truth=self.truth, health_gate=self.health_gate
            )
            promoted = self.darkvec.fitted is not before
        except Exception as exc:
            # The writer must outlive a crashed update: keep its message
            # for status() and its traceback on the daemon's stderr.
            self.last_error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            promoted = False
        if not promoted:
            # A refused or crashed update put the prior model back (see
            # DarkVec.update): keep serving the old snapshot and count
            # the refusal.  A promotion installs a new model even when
            # its embedding equals the old one.
            self.rollbacks += 1
            obs.add("serve.rollbacks")
            return
        t0 = perf_counter()
        snapshot = ModelSnapshot.of(
            self.darkvec,
            truth=self.truth,
            version=self.snapshot.version + 1,
            k=self.knn_k,
            with_clusters=self.with_clusters,
        )
        self.snapshot = snapshot  # atomic swap: readers see old xor new
        self.promotions += 1
        obs.add("serve.promotions")
        obs.observe("serve.promotion_seconds", perf_counter() - t0)

    # ------------------------------------------------------------------
    # Read path (any thread; never blocks on the writer)
    # ------------------------------------------------------------------

    def _read(self, one, many, ip, **kwargs) -> dict:
        """``one(ip)`` for one sender, or ``many(ips)`` for a list where
        the op takes one, timed; ``serve.queries`` counts every sender."""
        if many is not None and isinstance(ip, (list, tuple)):
            fn, arg, queries = many, [_as_ip(each) for each in ip], len(ip)
        else:
            fn, arg, queries = one, _as_ip(ip), 1
        obs.add("serve.queries", queries)
        t0 = perf_counter()
        try:
            return fn(arg, **kwargs)
        except Exception:
            obs.add("serve.query_errors")
            raise
        finally:
            obs.observe("serve.query_seconds", perf_counter() - t0)

    def classify(self, ip: int | str | list) -> dict:
        """k-NN majority-vote label of a sender, or of each sender of a
        list, from the live snapshot."""
        snapshot = self.snapshot
        return self._read(snapshot.classify, snapshot.classify_many, ip)

    def neighbors(self, ip: int | str | list, k: int | None = None) -> dict:
        """Nearest embedded senders of a sender, or of each sender of a
        list, from the live snapshot."""
        snapshot = self.snapshot
        return self._read(snapshot.neighbors, snapshot.neighbors_many, ip, k=k)

    def membership(self, ip: int | str, sample: int = 8) -> dict:
        """Cached Louvain cluster membership of ``ip``."""
        return self._read(self.snapshot.membership, None, ip, sample=sample)

    def status(self) -> dict:
        """Writer/reader state of the daemon, for ``repro query status``."""
        snapshot = self.snapshot
        with self._idle:
            pending = self._pending
        return {
            "version": snapshot.version,
            "senders": len(snapshot),
            "clusters": (
                int(len(set(snapshot.communities.tolist())))
                if snapshot.communities is not None
                else None
            ),
            "modularity": snapshot.modularity,
            "batches": self.batches,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "last_error": self.last_error,
            "pending_batches": pending,
            "snapshot_build_seconds": snapshot.built_seconds,
        }


def _whole(value, lo, hi) -> bool:
    """Whether a request value is a whole number in [lo, hi): a number
    with no fractional part that is not a bool (JSON ``true`` is not 1).
    """
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and lo <= value < hi
        and value == int(value)
    )


def _as_ip(ip) -> int:
    """A query address: a dotted quad, or a whole number in [0, 2**32)
    that is not a bool.  Anything else is refused, naming the value."""
    if isinstance(ip, str):
        return str_to_ip(ip)
    if _whole(ip, 0, 2**32):
        return int(ip)
    raise ValueError(
        f"query address {ip!r} is not a dotted quad or a whole number "
        f"in [0, 2**32)"
    )
