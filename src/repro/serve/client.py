"""Thin JSON-lines client for a running ``repro serve`` daemon.

One :class:`ServeClient` holds one TCP connection and issues
request/response round trips; it is what ``repro query`` uses and what
tests and benchmarks drive directly.  The protocol is symmetric with
:mod:`repro.serve.server`: one JSON object per line each way.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path


class ServeError(RuntimeError):
    """The daemon answered ``ok: false``."""


class ServeClient:
    """Blocking client for one serve daemon connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        token: str | None = None,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._token = token

    @staticmethod
    def from_port_file(
        port_file: str | Path,
        host: str = "127.0.0.1",
        timeout: float = 60.0,
        token: str | None = None,
    ) -> "ServeClient":
        """Connect to the port a daemon published via ``--port-file``."""
        from repro.serve.server import wait_for_port

        return ServeClient(
            host=host, port=wait_for_port(port_file), timeout=timeout, token=token
        )

    def close(self) -> None:
        """Close the connection (the daemon keeps running)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def call(self, op: str, **fields) -> dict:
        """One request/response round trip; raises on ``ok: false``."""
        request = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        if self._token is not None:
            request.setdefault("token", self._token)
        self._file.write((json.dumps(request) + "\n").encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response

    # Convenience verbs ------------------------------------------------

    def ping(self) -> dict:
        """Liveness check; returns the protocol version."""
        return self.call("ping")

    def status(self) -> dict:
        """Snapshot version, sender count and writer-loop counters."""
        return self.call("status")

    def classify(self, ip: str | list) -> dict:
        """k-NN majority-vote label + mean distance for one sender.

        Also accepts a list of IPs: the daemon answers it from one
        search and returns per-sender ``results``.
        """
        return self.call("classify", ip=ip)

    def neighbors(self, ip: str | list, k: int | None = None) -> dict:
        """The ``k`` nearest senders (cosine) of one sender.

        Also accepts a list of IPs, like :meth:`classify`.
        """
        return self.call("neighbors", ip=ip, k=k)

    def members(self, ip: str, sample: int | None = None) -> dict:
        """Louvain cluster id + (sampled) member list for one sender."""
        return self.call("members", ip=ip, sample=sample)

    def ingest_path(self, path: str | Path) -> dict:
        """Enqueue a server-side trace CSV as one update micro-batch."""
        return self.call("ingest", path=str(path))

    def ingest_events(self, events: dict) -> dict:
        """Enqueue an inline column dict (times/ips/...) as a batch."""
        return self.call("ingest", events=events)

    def drain(self, timeout: float | None = None) -> dict:
        """Block until every queued batch is applied; returns status."""
        return self.call("drain", timeout=timeout)

    def shutdown(self, timeout: float | None = None) -> dict:
        """Drain, then stop the daemon; returns its final status."""
        return self.call("shutdown", timeout=timeout)
