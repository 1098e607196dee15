"""JSON-lines-over-TCP front end for :class:`DarkVecService`.

The daemon listens on localhost only.  The protocol is one JSON object
per line in each direction: the request carries ``{"op": ..., ...}``,
the response ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.
A request line longer than :data:`MAX_REQUEST_BYTES` gets an error
reply and closes its connection; an IP list longer than
:data:`MAX_QUERY_IPS`, a ``neighbors`` ``k`` that is not a whole number
in [1, :data:`MAX_QUERY_K`] or a ``members`` ``sample`` that is not a
whole number >= 0 gets an error reply and the connection stays open.
Connections are handled by a thread pool (``ThreadingTCPServer``), so
queries answer concurrently with ingestion and with each other — the
read path only ever touches the immutable current snapshot.

Supported ops:

``ping``
    liveness check; echoes the server protocol version.
``status``
    writer/reader state (model version, promotions, rollbacks, the
    latest crashed update as ``last_error``, ...).
``classify`` / ``neighbors`` / ``members``
    the three read queries, keyed by ``ip``: a dotted quad or a whole
    number in [0, 2**32); any other value is refused.  ``classify``
    and ``neighbors`` also accept a *list* of IPs, answered like one
    sender by one row lookup and one index search; the response then
    carries per-sender ``results`` (unknown senders get an ``"error"``
    slot instead of failing the list).
``ingest``
    enqueue one micro-batch: either ``path`` (a trace file the server
    loads) or inline ``events`` columns (times, ips, ports, protos,
    receivers, mirai).  Returns immediately after queueing.
``drain``
    block until every queued batch has been applied (``timeout``).
``shutdown``
    drain, stop the writer, and stop the server.

Trust model
-----------

The daemon binds to localhost and speaks plaintext JSON — it is a
*same-user development tool*, not a hardened network service.  By
default any local process that can open the port can query the model,
make the server read a trace file by path, or stop it.  Two opt-in
knobs tighten that for shared machines:

``token``
    a shared secret; when set, the mutating ops (``ingest`` and
    ``shutdown``) must carry a matching ``"token"`` field or they are
    refused.  Read-only queries stay open.
``ingest_root``
    a directory; when set, path-based ingest is confined to files
    under it (resolved, so ``..`` cannot escape), bounding what the
    daemon can be made to read from disk.

Both are surfaced as ``repro serve --token/--ingest-root`` and
``repro query --token``.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from pathlib import Path

import numpy as np

from repro.serve.service import DarkVecService, _whole
from repro.trace.packet import Trace

PROTOCOL_VERSION = 1

#: Longest request line (bytes, newline included) the daemon reads.  A
#: longer line gets an error reply and its connection is closed, so a
#: client that never sends a newline cannot grow the daemon's memory
#: without bound.  Inline ``events`` ingests cost roughly 100 bytes per
#: packet, so 64 MiB leaves room for micro-batches of ~500k packets;
#: larger batches go by ``path``.
MAX_REQUEST_BYTES = 64 << 20

#: Most senders one ``classify``/``neighbors`` IP list may name.  A
#: list is answered by one search whose whole reply is built in memory
#: while the request holds a server thread; uncapped, one ``neighbors``
#: list over a 5,000-sender model asks for 5,000 x 4,999 entries.
#: 1,024 is 16 times the 64-sender lists the benchmarks send.
MAX_QUERY_IPS = 1024

#: Largest ``k`` a ``neighbors`` request may ask for.  Each neighbour
#: adds about 80 reply bytes per queried sender, so together with
#: :data:`MAX_QUERY_IPS` this keeps one reply near 8 MB; the paper's
#: analyses use k = 7 and k' = 3.
MAX_QUERY_K = 100


def _bounded_ips(ip):
    """A request's ``ip``, after checking a list against
    :data:`MAX_QUERY_IPS`."""
    if isinstance(ip, (list, tuple)) and len(ip) > MAX_QUERY_IPS:
        raise ValueError(
            f"ip list of {len(ip)} senders exceeds the limit of "
            f"{MAX_QUERY_IPS} (MAX_QUERY_IPS)"
        )
    return ip


def _bounded_k(k):
    """A request's ``k``: None (the daemon's default) or a whole number
    in [1, :data:`MAX_QUERY_K`]."""
    if k is None:
        return None
    if not _whole(k, 1, MAX_QUERY_K + 1):
        raise ValueError(
            f"k={k!r} is not a whole number from 1 to the limit of "
            f"{MAX_QUERY_K} (MAX_QUERY_K)"
        )
    return int(k)


def _sample(sample):
    """A ``members`` request's ``sample``: a whole number >= 0."""
    if not _whole(sample, 0, math.inf):
        raise ValueError(f"sample={sample!r} is not a whole number >= 0")
    return int(sample)


def _batch_from_request(request: dict, ingest_root: Path | None = None) -> Trace:
    if "path" in request:
        from repro.io.csvio import read_trace_csv

        path = Path(request["path"]).resolve()
        if ingest_root is not None and not path.is_relative_to(ingest_root):
            raise PermissionError(
                f"ingest path {path} is outside the allowed root {ingest_root}"
            )
        return read_trace_csv(path)
    events = request.get("events")
    if events is None:
        raise ValueError("ingest needs 'path' or 'events'")
    times = events["times"]
    if not len(times):
        return Trace.empty()
    from repro.trace.address import strs_to_ips

    # Addresses come as dotted quads or numbers.  The columns reach
    # Trace.from_events as the request's Python values: it rejects a
    # boolean, a non-finite time and any value that is not a whole
    # number in its column's range, so nothing wraps or is truncated
    # into another value.
    given = events["ips"]
    parsed = iter(strs_to_ips([ip for ip in given if isinstance(ip, str)]).tolist())
    ips = [next(parsed) if isinstance(ip, str) else ip for ip in given]
    n = len(times)

    def column(name, default):
        values = events.get(name)
        return np.full(n, default) if values is None else values

    return Trace.from_events(
        times=times,
        sender_ips_per_packet=ips,
        ports=column("ports", 0),
        protos=column("protos", 6),
        receivers=column("receivers", 1),
        mirai=column("mirai", False),
    )


class _Handler(socketserver.StreamRequestHandler):
    #: TCP_NODELAY on every accepted connection: a reply goes out at
    #: once instead of waiting for the client's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: "ServeServer" = self.server  # type: ignore[assignment]
        while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(raw) > MAX_REQUEST_BYTES:
                self._reply(
                    {
                        "ok": False,
                        "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                    }
                )
                return
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            try:
                response = server.dispatch(json.loads(line))
            except Exception as exc:  # one bad request must not kill the daemon
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            bye = bool(response.get("bye"))
            try:
                self._reply(response)
            finally:
                if bye:
                    # Stop the server only after the goodbye response is
                    # flushed (or the write failed): triggering teardown
                    # from dispatch() raced the daemon's process exit
                    # against this write, and clients intermittently read
                    # EOF instead of the final status.
                    server._shutdown_requested.set()
            if bye:
                return

    def _reply(self, response: dict) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class ServeServer(socketserver.ThreadingTCPServer):
    """Localhost TCP server wrapping one :class:`DarkVecService`.

    Args:
        service: the streaming service answering all ops.
        host / port: bind address (port 0 picks an ephemeral port).
        port_file: write the bound port here once listening.
        token: shared secret required by the mutating ops (``ingest``,
            ``shutdown``); None leaves them open (see the module
            docstring's trust model).
        ingest_root: confine path-based ingest to files under this
            directory; None allows any server-readable path.
    """

    allow_reuse_address = True
    daemon_threads = True

    #: ops that change or stop the daemon — guarded by ``token``.
    MUTATING_OPS = frozenset({"ingest", "shutdown"})

    def __init__(
        self,
        service: DarkVecService,
        host: str = "127.0.0.1",
        port: int = 0,
        port_file: str | Path | None = None,
        token: str | None = None,
        ingest_root: str | Path | None = None,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.port = int(self.server_address[1])
        self.token = token
        self.ingest_root = (
            None if ingest_root is None else Path(ingest_root).resolve()
        )
        self._shutdown_requested = threading.Event()
        if port_file is not None:
            Path(port_file).write_text(f"{self.port}\n", encoding="utf-8")

    # ------------------------------------------------------------------

    def dispatch(self, request: dict) -> dict:
        """Route one request object to the service; returns the reply."""
        op = request.get("op")
        service = self.service
        if self.token is not None and op in self.MUTATING_OPS:
            if request.get("token") != self.token:
                raise PermissionError(f"op {op!r} requires a valid token")
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL_VERSION}
        if op == "status":
            return {"ok": True, **service.status()}
        if op == "classify":
            return {"ok": True, **service.classify(_bounded_ips(request["ip"]))}
        if op == "neighbors":
            k = _bounded_k(request.get("k"))
            return {
                "ok": True,
                **service.neighbors(_bounded_ips(request["ip"]), k=k),
            }
        if op == "members":
            return {
                "ok": True,
                **service.membership(
                    request["ip"], sample=_sample(request.get("sample", 8))
                ),
            }
        if op == "ingest":
            batch = _batch_from_request(request, ingest_root=self.ingest_root)
            service.submit(batch)
            return {"ok": True, "queued_packets": int(len(batch))}
        if op == "drain":
            done = service.drain(timeout=request.get("timeout"))
            return {"ok": True, "drained": bool(done), **service.status()}
        if op == "shutdown":
            service.drain(timeout=request.get("timeout", 60.0))
            # The handler sets _shutdown_requested after flushing this
            # reply, so the client reads it before the daemon exits.
            return {"ok": True, "bye": True, **service.status()}
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------

    def serve_until_shutdown(self, poll_interval: float = 0.2) -> None:
        """Serve requests until a client sends ``shutdown``."""
        stopper = threading.Thread(target=self._await_shutdown, daemon=True)
        stopper.start()
        try:
            self.serve_forever(poll_interval=poll_interval)
        finally:
            self.service.close()
            self.server_close()

    def _await_shutdown(self) -> None:
        self._shutdown_requested.wait()
        self.shutdown()

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (used by tests and benchmarks)."""
        thread = threading.Thread(target=self.serve_until_shutdown, daemon=True)
        thread.start()
        return thread


def wait_for_port(port_file: str | Path, timeout: float = 30.0) -> int:
    """Poll ``port_file`` until the daemon has written its port."""
    import time

    path = Path(port_file)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text(encoding="utf-8").strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise TimeoutError(f"no port written to {path} within {timeout}s")
