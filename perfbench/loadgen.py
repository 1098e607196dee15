"""Open-loop load generator for the JSON-lines serve protocol.

One thread drives at most ``nproc`` connections.  Requests carry a due
time on a fixed schedule and are written when due, whether or not
earlier replies have arrived (pipelining), so a stalled server cannot
slow the offered load down.  Latency is measured from each request's
due time, which charges a stall to every request queued behind it.
The generator records how late it sent each request: when it falls
behind its own schedule the measurement is invalid.
"""

from __future__ import annotations

import json
import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from layers import percentile

#: A phase is invalid when the generator sent its typical request
#: later than this (p50 lateness, ms): it has fallen behind ...
MAX_LATE_P50_MS = 1.0
#: ... or when its worst percent of sends were later than this (p99,
#: ms).  Single descheduling of the generator by a busy writer stays
#: below it; the latency of those requests is still timed from their
#: due time.
MAX_LATE_P99_MS = 25.0
#: Linux only; elsewhere replies keep waiting for delayed ACKs.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


@dataclass
class Request:
    """One scheduled request and what became of it."""

    due: float
    conn: int
    body: dict
    kind: str
    sent: float = float("nan")
    done: float = float("nan")
    reply: dict | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def ok(self) -> bool:
        return self.error is None and bool(self.reply and self.reply.get("ok"))


@dataclass
class _Conn:
    sock: socket.socket
    out: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    pending: deque = field(default_factory=deque)
    closed: bool = False


def connect(port: int, host: str = "127.0.0.1", timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    quick_ack(sock)
    return sock


def quick_ack(sock: socket.socket) -> None:
    """ACK the server's next segment at once instead of delaying it.

    The daemon's sockets keep Nagle's algorithm, so a small reply that
    follows an unacknowledged segment waits for the client's ACK.  A
    delayed ACK rides on the client's next request, which would tie
    every reply's latency to the arrival interval instead of to the
    daemon's work.  The kernel clears the flag after use, so it is
    re-armed after every receive.
    """
    if QUICKACK is not None:
        sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)


def call(sock: socket.socket, body: dict, timeout: float = 120.0) -> dict:
    """One blocking request/reply round trip (set-up and control ops)."""
    sock.settimeout(timeout)
    sock.sendall((json.dumps(body) + "\n").encode())
    data = bytearray()
    while not data.endswith(b"\n"):
        chunk = sock.recv(65536)
        quick_ack(sock)
        if not chunk:
            raise ConnectionError(f"connection closed awaiting reply to {body.get('op')}")
        data += chunk
    return json.loads(data)


def run_schedule(
    socks: list[socket.socket],
    requests: list[Request],
    lead: float = 0.02,
    timeout: float = 10.0,
) -> dict:
    """Send ``requests`` (sorted by ``due``, seconds after the start).

    The schedule starts ``lead`` seconds after the payloads are encoded.

    Returns once every request is answered or has waited ``timeout``
    seconds past its due time; unanswered requests are marked timed
    out.  The result reports the backlog — requests sent but not yet
    answered — at the moment the last request was due.
    """
    sel = selectors.DefaultSelector()
    conns = []
    for sock in socks:
        sock.setblocking(False)
        conn = _Conn(sock)
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, conn)
    payloads = [(json.dumps(r.body) + "\n").encode() for r in requests]
    start = perf_counter() + lead
    for request in requests:
        request.due += start
    next_index = 0
    backlog_at_end = None
    last_due = requests[-1].due if requests else start
    try:
        while True:
            now = perf_counter()
            while next_index < len(requests) and requests[next_index].due <= now:
                request = requests[next_index]
                conn = conns[request.conn]
                request.sent = now
                if conn.closed:
                    request.error = "connection closed"
                else:
                    conn.out += payloads[next_index]
                    conn.pending.append(request)
                next_index += 1
            for conn in conns:
                if conn.out and not conn.closed:
                    try:
                        sent = conn.sock.send(conn.out)
                        del conn.out[:sent]
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        _fail(conn, f"send failed: {exc}")
            if backlog_at_end is None and now >= last_due and next_index == len(requests):
                backlog_at_end = sum(len(c.pending) for c in conns)
            outstanding = sum(len(c.pending) for c in conns)
            if next_index == len(requests) and outstanding == 0:
                break
            oldest = min((c.pending[0].due for c in conns if c.pending), default=None)
            if oldest is not None and now - oldest > timeout:
                # Replies still in flight would be matched to later
                # requests, so the connections are given up.
                for conn in conns:
                    _fail(conn, "timed out")
                continue
            # Poll, never sleep: on a virtual machine whose CPUs go idle
            # between requests, each wake-up can take milliseconds, and
            # that would show up as generator lateness and as latency of
            # every reply.  The generator holds one core for the phase.
            for key, _ in sel.select(0):
                _receive(key.data)
    finally:
        sel.close()
        for sock in socks:
            sock.setblocking(True)
    late = [(r.sent - r.due) * 1e3 for r in requests]
    late_p50, late_p99 = percentile(late, 0.5), percentile(late, 0.99)
    return {
        "backlog_at_end": backlog_at_end or 0,
        "late_p99_ms": late_p99,
        "valid": late_p50 <= MAX_LATE_P50_MS and late_p99 <= MAX_LATE_P99_MS,
    }


def _receive(conn: _Conn) -> None:
    try:
        chunk = conn.sock.recv(1 << 20)
    except BlockingIOError:
        return
    except OSError as exc:
        _fail(conn, f"recv failed: {exc}")
        return
    now = perf_counter()
    if chunk:
        quick_ack(conn.sock)
    if not chunk:
        _fail(conn, "connection closed")
        return
    conn.inbuf += chunk
    while True:
        cut = conn.inbuf.find(b"\n")
        if cut < 0:
            return
        line = bytes(conn.inbuf[:cut])
        del conn.inbuf[: cut + 1]
        if not conn.pending:
            continue  # a reply nobody waits for: already timed out
        request = conn.pending.popleft()
        request.done = now
        try:
            request.reply = json.loads(line)
        except ValueError:
            request.error = "malformed reply"


def _fail(conn: _Conn, reason: str) -> None:
    while conn.pending:
        conn.pending.popleft().error = reason
    conn.closed = True


def summarize(requests: list[Request]) -> dict:
    """Latency from due time over the answered requests of a phase."""
    answered = [r.latency_ms for r in requests if r.ok]
    return {
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r.ok),
        "p50_ms": percentile(answered, 0.5),
        "p99_ms": percentile(answered, 0.99),
    }
