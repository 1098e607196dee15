"""Open-loop accounting against fake JSON-lines servers."""

import json
import socket
import threading
import time

import loadgen


class FakeServer:
    """Answers ``{"ok": true, "version": 0}`` per line, in order.

    ``stall`` seconds pass before the first reply; ``drop`` makes the
    server read requests and never answer.
    """

    def __init__(self, stall: float = 0.0, drop: bool = False) -> None:
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.stall, self.drop = stall, drop
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            first = True
            for _line in lines:
                if self.drop:
                    continue
                if first:
                    time.sleep(self.stall)
                    first = False
                conn.sendall(b'{"ok": true, "version": 0}\n')

    def close(self) -> None:
        self.listener.close()


def schedule(n: int, gap: float) -> list[loadgen.Request]:
    return [loadgen.Request(i * gap, 0, {"op": "ping", "rid": i}, "ping") for i in range(n)]


def test_latency_counts_from_due_time_through_a_stall():
    server = FakeServer(stall=0.3)
    sock = loadgen.connect(server.port)
    try:
        requests = schedule(10, 0.02)
        stats = loadgen.run_schedule([sock], requests, lead=0.01)
    finally:
        sock.close()
        server.close()
    # The generator kept its schedule while the server stalled ...
    assert stats["valid"]
    assert all(r.sent - r.due < 0.01 for r in requests)
    # ... so every request queued behind the stall is charged the
    # time from its own due time to the end of the stall.
    stall_end = requests[0].due + 0.3
    for r in requests:
        assert r.ok
        assert r.done - r.due >= stall_end - r.due - 0.005
        assert r.latency_ms < 300 + 100
    latencies = [r.latency_ms for r in requests]
    assert latencies == sorted(latencies, reverse=True)
    summary = loadgen.summarize(requests)
    assert summary["attempted"] == 10 and summary["failed"] == 0
    assert summary["p50_ms"] > 150


def test_unanswered_requests_time_out_and_count_as_failed():
    server = FakeServer(drop=True)
    sock = loadgen.connect(server.port)
    try:
        requests = schedule(5, 0.01)
        loadgen.run_schedule([sock], requests, timeout=0.2)
    finally:
        sock.close()
        server.close()
    summary = loadgen.summarize(requests)
    assert summary["attempted"] == 5 and summary["failed"] == 5
    assert all(r.error == "timed out" for r in requests)


def test_call_round_trip():
    server = FakeServer()
    sock = loadgen.connect(server.port)
    try:
        assert loadgen.call(sock, {"op": "ping"}) == json.loads('{"ok": true, "version": 0}')
    finally:
        sock.close()
        server.close()
