"""The real daemon in its own process under open-loop load.

Both serve workloads run through here, and so does ``fit_paper``'s
read side: its daemon serves the state its fit saved.

Set-up fits and saves the model in a system process (several times,
median), then launches the daemon and times launch to first answer.
Daemons start from the same saved state, one after the other: the
first answers a seeded classify sample that is compared with the
in-process reference, the next :data:`RESTARTS` only time their
restart, the last carries the measured phases.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

import loadgen

HERE = Path(__file__).resolve().parent

#: Query mix: (kind, share).  Single classify and neighbors keep the
#: 2:1 ratio of the reader loop in ``benchmarks/bench_serve.py``.  That
#: loop sends neither members nor list classify; their 15% and 10%
#: are assumptions, enough to put both paths into every second of load.
MIX = (("classify", 0.5), ("neighbors", 0.25), ("members", 0.15), ("classify_batch", 0.10))
BATCH = 64
#: Ladder multiples of the base rate; the first step is the base rate.
LADDER = (1, 2, 3, 4, 6, 8, 12, 16)
P99_LIMIT_MS = 50.0
#: Shares of the run serve_read spends at the base rate and in the
#: closed-loop batch phase; the ladder steps take what they need.
BASE_SHARE = 0.35
BATCH_SHARE = 0.3
LADDER_STEP_S = 0.75
#: Daemon launches that only time their restart, besides the reference
#: launch and the measured one; ``restart_s`` is the median of all.
RESTARTS = 3


class CheckFailed(Exception):
    """A correctness check of the serve workloads failed."""


def split_cpus() -> tuple[set[int], set[int]]:
    """(generator CPUs, daemon CPUs).

    The generator polls, so it holds a core; it gets the first one to
    itself and the daemon gets the rest.  Left to the scheduler, the
    daemon's pool workers and the polling generator trade places, and
    how long a promotion stalls queries changes by a factor of four
    from one run to the next.  With a single core both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def launch(state: Path, work: Path, name: str, first_ip: int, spans: Path | None):
    """Start a daemon on a private copy of ``state``; time to first answer."""
    copy = work / f"state-{name}"
    shutil.copytree(state, copy)
    port_file = work / f"port-{name}"
    cmd = [sys.executable, str(HERE / "launcher.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", "serve", "--state", str(copy), "--port-file", str(port_file)]
    log = (work / f"daemon-{name}.log").open("w")
    daemon_cpus = split_cpus()[1]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=log, stderr=subprocess.STDOUT,
        preexec_fn=lambda: os.sched_setaffinity(0, daemon_cpus),
    )
    log.close()
    deadline = t0 + 120.0
    while not (port_file.exists() and port_file.read_text().strip()):
        if proc.poll() is not None or perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise CheckFailed(f"daemon {name} did not start, see {work}/daemon-{name}.log")
        sleep(0.005)
    port = int(port_file.read_text())
    sock = loadgen.connect(port)
    reply = loadgen.call(sock, {"op": "classify", "ip": first_ip})
    launch_s = perf_counter() - t0
    if not reply.get("ok"):
        raise CheckFailed(f"first query refused: {reply}")
    return proc, port, sock, launch_s


def stop(proc, sock) -> float:
    """Peak RSS of the daemon (MB), then a clean shutdown."""
    with open(f"/proc/{proc.pid}/status") as handle:
        hwm = next(line for line in handle if line.startswith("VmHWM"))
    rss_mb = int(hwm.split()[1]) / 1024
    try:
        loadgen.call(sock, {"op": "shutdown", "timeout": 120.0})
    finally:
        sock.close()
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return rss_mb


def query_requests(rng, ips, rate, duration, offset, rids) -> list[loadgen.Request]:
    """A fixed schedule at ``rate`` requests/s of the query mix."""
    n = max(1, int(rate * duration))
    kinds = rng.choice([k for k, _ in MIX], p=[p for _, p in MIX], size=n)
    picks = rng.integers(0, len(ips), size=(n, BATCH))
    requests = []
    for i, kind in enumerate(kinds.tolist()):
        rid = next(rids)
        ip = int(ips[picks[i, 0]])
        if kind == "classify_batch":
            body = {"op": "classify", "ip": ips[picks[i]].tolist(), "rid": rid}
        elif kind == "neighbors":
            body = {"op": "neighbors", "ip": ip, "k": 7, "rid": rid}
        elif kind == "members":
            body = {"op": "members", "ip": ip, "sample": 8, "rid": rid}
        else:
            body = {"op": "classify", "ip": ip, "rid": rid}
        requests.append(loadgen.Request(offset + i / rate, 0, body, kind))
    return requests


def check_reply(request: loadgen.Request) -> str | None:
    """Why a reply to a query of a known sender is wrong, or None."""
    reply = request.reply
    if request.error is not None:
        return request.error
    if not isinstance(reply, dict) or not reply.get("ok"):
        return f"refused: {reply}"
    if request.kind == "ingest":
        return None if "queued_packets" in reply else "malformed ingest reply"
    if not isinstance(reply.get("version"), int):
        return "no version"
    fields = {
        "classify": ("label", "mean_distance"),
        "neighbors": ("neighbors",),
        "members": ("cluster", "size"),
        "classify_batch": ("results",),
    }[request.kind]
    if any(field not in reply for field in fields):
        return f"malformed {request.kind} reply"
    if request.kind == "classify_batch":
        results = reply["results"]
        if len(results) != BATCH or any("error" in r for r in results):
            return "batch classify refused a known sender"
    return None


def check_versions(requests: list[loadgen.Request]) -> str | None:
    """Model versions must never go back on one connection."""
    last: dict[int, int] = {}
    for request in sorted((r for r in requests if r.ok), key=lambda r: r.done):
        version = request.reply.get("version")
        if version is None:
            continue
        if version < last.get(request.conn, -1):
            return f"version went back from {last[request.conn]} to {version}"
        last[request.conn] = version
    return None


def batch_phase(sock, rng, ips, seconds: float) -> float:
    """Closed loop: 64-sender list classify back to back; senders/s.

    Taken from the median call, so one descheduled call does not move
    the figure.
    """
    calls = []
    started = perf_counter()
    while perf_counter() - started < seconds:
        body = {"op": "classify", "ip": ips[rng.integers(0, len(ips), BATCH)].tolist()}
        t0 = perf_counter()
        reply = loadgen.call(sock, body)
        calls.append(perf_counter() - t0)
        if not reply.get("ok") or any("error" in r for r in reply["results"]):
            raise CheckFailed(f"batch classify failed: {reply}")
    return BATCH / statistics.median(calls)


class ServeRun:
    """One serve workload run: its daemons share the saved state."""

    def __init__(self, workload: str, work: Path, model: dict, seed: int, seconds: float,
                 base_rate: float, batches: list[Path], ingest_interval: float) -> None:
        self.workload = workload
        self.work = work
        self.model = model
        self.seed = seed
        self.seconds = seconds
        self.base_rate = base_rate
        self.batches = batches
        self.ingest_interval = ingest_interval
        self.ips = np.load(work / "sender_ips.npy").astype(np.int64)
        self.first_ip = int(self.ips[0])

    def reference_check(self) -> float:
        """Launch, compare a seeded classify sample, shut down; launch s."""
        proc, _, sock, launch_s = launch(
            Path(self.model["state"]), self.work, "reference", self.first_ip, None
        )
        try:
            for ip, expected in self.model["reference"].items():
                reply = loadgen.call(sock, {"op": "classify", "ip": int(ip)})
                got = {k: reply.get(k) for k in expected}
                if got["label"] != expected["label"] or not np.isclose(
                    got["mean_distance"], expected["mean_distance"], rtol=0, atol=1e-9
                ):
                    raise CheckFailed(f"classify {ip}: daemon {got} != in-process {expected}")
        finally:
            stop(proc, sock)
        return launch_s

    def restart_probe(self, i: int) -> float:
        """Launch to first answer once more, then shut down; launch s."""
        proc, _, sock, launch_s = launch(
            Path(self.model["state"]), self.work, f"restart{i}", self.first_ip, None
        )
        stop(proc, sock)
        return launch_s

    def measured_pass(self, name: str, spans: Path | None) -> dict:
        """One daemon carrying the workload's measured phases."""
        proc, port, control, launch_s = launch(
            Path(self.model["state"]), self.work, name, self.first_ip, spans
        )
        rng = np.random.default_rng([self.seed, 1])
        rids = iter(range(1, 1 << 62))
        out = {"launch_s": launch_s, "steps": []}
        requests: list[loadgen.Request] = []
        own_cpus = os.sched_getaffinity(0)
        try:
            query = loadgen.connect(port)
            os.sched_setaffinity(0, split_cpus()[0])
            try:
                if self.workload == "serve_mixed":
                    base = self._mixed_phase(query, control, rng, rids, out, requests)
                else:
                    # Only serve_read climbs the ladder; fit_paper's
                    # daemon answers the base rate and the batch phase.
                    ladder = LADDER if self.workload == "serve_read" else LADDER[:1]
                    base = self._read_phases(query, rng, rids, out, requests, ladder)
                out["batch_classify_sps"] = batch_phase(
                    query, rng, self.ips, BATCH_SHARE * self.seconds
                )
            finally:
                os.sched_setaffinity(0, own_cpus)
                query.close()
            out["status"] = loadgen.call(control, {"op": "status"})
        finally:
            out["rss_peak_mb"] = stop(proc, control)
        errors = [e for e in (check_reply(r) for r in requests) if e]
        version_error = check_versions(requests)
        out["attempted"] = len(requests)
        out["failed"] = len(errors)
        out["errors"] = errors[:5] + ([version_error] if version_error else [])
        summary = loadgen.summarize(base)
        out["query_p50_ms"], out["query_p99_ms"] = summary["p50_ms"], summary["p99_ms"]
        out["observed_ms"] = {
            r.body["rid"]: (r.done - r.sent) * 1e3 for r in base if r.ok and "rid" in r.body
        }
        return out

    def _read_phases(self, sock, rng, rids, out, requests, ladder) -> list[loadgen.Request]:
        """Base rate, then the ladder until a step misses the limit."""
        base = None
        capacity = None
        previous = None
        for multiple in ladder:
            rate = self.base_rate * multiple
            duration = BASE_SHARE * self.seconds if base is None else LADDER_STEP_S
            step = query_requests(rng, self.ips, rate, duration, 0.0, rids)
            stats = loadgen.run_schedule([sock], step)
            requests.extend(step)
            summary = loadgen.summarize(step)
            passed = (
                stats["valid"]
                and summary["failed"] == 0
                and summary["p99_ms"] <= P99_LIMIT_MS
                and stats["backlog_at_end"] <= max(2, 0.05 * rate)
            )
            out["steps"].append({"rate": rate, **summary, **stats, "passed": passed})
            if base is None:
                base = step
                if not stats["valid"]:
                    raise CheckFailed(f"generator fell behind at the base rate: {stats}")
                out["late_p99_ms"] = stats["late_p99_ms"]
            if not passed:
                capacity = _interpolate(previous, (rate, summary["p99_ms"]), stats["valid"])
                break
            previous = (rate, summary["p99_ms"])
        out["capacity_qps"] = capacity if capacity is not None else previous[0]
        return base

    def _mixed_phase(self, query, control, rng, rids, out, requests) -> list[loadgen.Request]:
        """Base-rate queries with micro-batches ingested on a schedule."""
        step = query_requests(rng, self.ips, self.base_rate, self.seconds, 0.0, rids)
        ingests = [
            loadgen.Request(
                0.5 + i * self.ingest_interval, 1,
                {"op": "ingest", "path": str(path.resolve()), "rid": next(rids)}, "ingest",
            )
            for i, path in enumerate(self.batches)
        ]
        schedule = sorted(step + ingests, key=lambda r: r.due)
        stats = loadgen.run_schedule([query, control], schedule)
        if not stats["valid"]:
            raise CheckFailed(f"generator fell behind: {stats}")
        out["late_p99_ms"] = stats["late_p99_ms"]
        requests.extend(schedule)
        # Batches whose promotion no scheduled reply saw are closed by
        # polling until the last version shows.
        seen = [(r.done, r.reply["version"]) for r in step if r.ok]
        target = len(self.batches)
        deadline = perf_counter() + 120.0
        while max((v for _, v in seen), default=0) < target and perf_counter() < deadline:
            reply = loadgen.call(query, {"op": "classify", "ip": self.first_ip})
            if reply.get("ok"):
                seen.append((perf_counter(), reply["version"]))
            sleep(0.01)
        drained = loadgen.call(control, {"op": "drain", "timeout": 120.0})
        seen.sort()
        chains = []
        for i, ingest in enumerate(ingests):
            first = next((t for t, v in seen if v >= i + 1), None)
            if first is None or not ingest.ok:
                raise CheckFailed(f"batch {i} never became queryable")
            chains.append(first - ingest.sent)
        out["ingest_to_queryable_s"] = chains
        out["drained"] = bool(drained.get("drained")) and drained.get("pending_batches") == 0
        return step


def _interpolate(previous, failed, valid: bool) -> float:
    """Rate at which p99 crosses the limit, between the last two steps.

    Interpolated on log p99, so the capacity is a continuous figure
    rather than one of the ladder's rates.  A step that failed on
    backlog, errors or generator lateness ends at the last good rate.
    """
    if previous is None:
        return 0.0
    (r0, p0), (r1, p1) = previous, failed
    if not valid or p1 <= P99_LIMIT_MS or p0 <= 0:
        return float(r0)
    share = (np.log(P99_LIMIT_MS) - np.log(p0)) / (np.log(p1) - np.log(p0))
    return float(r0 + (r1 - r0) * min(max(share, 0.0), 1.0))


def run_model_setup(trace: Path, work: Path, seed: int, spans: Path | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "system.py"), "model", "--trace", str(trace),
        "--work", str(work), "--out", str(work / "model.json"), "--seed", str(seed),
        "--workers", str(len(os.sched_getaffinity(0))),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, check=True)
    return json.loads((work / "model.json").read_text())
