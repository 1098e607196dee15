"""Serving benchmark: sustained ingest under concurrent query load.

One experiment, one JSON (``BENCH_serve.json``): a
:class:`~repro.serve.service.DarkVecService` is stood up over an
N-sender synthetic model (default 100k), reader threads hammer
classify/neighbors queries non-stop, and the writer ingests a stream
of micro-batches through the single-writer update loop.  Reported:

* **ingest** — sustained packets/sec from first ``submit`` to drain,
  with every batch passing through the full ``update(window)`` path
  (merge, window rebuild, warm refit, snapshot promotion).
* **queries** — throughput plus p50/p95/p99 latency, read from the
  ``serve.query_seconds`` quantile sketch of the telemetry plane (the
  same numbers ``repro top`` and ``runs show --quantiles`` render).
* **promotion** — the writer-side pause per promotion (snapshot build:
  ANN index + classifier swap), from ``serve.promotion_seconds``; the
  snapshot warm-up (pre-touching the freshly built index before the
  swap) is reported alongside from ``serve.warmup_seconds``.
* **batched queries** — after the ingest phase drains, one thread
  classifies the same sender list twice: one-at-a-time and as
  fixed-size sender lists passed to ``classify``.  A list is answered
  by one search, so its throughput must beat the single-query loop.

The acceptance bar is the read path: **p99 query latency < 50 ms at
N=100k senders** while promotions are happening.  Queries answer from
an atomically-swapped immutable snapshot, so the p99 must not inherit
the seconds-long update wall time.  Two config choices make that hold
on a small box and are the recommended serving deployment: training
fans out to **forked worker processes** (``pool_backend="process"``),
so the serving process's GIL stays free for readers while the refit
runs, and neighbour search goes through the **IVF index**
(``ann_backend="ivf"``), which bounds per-query compute at 100k
senders.  ``--pool-backend thread --ann-backend exact`` reproduces the
naive in-process setup for comparison.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_serve.py

``--smoke`` shrinks N for CI and keeps the latency assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.ann.base import BACKENDS
from repro.core import DarkVec, DarkVecConfig
from repro.obs.sketch import summarize
from repro.serve import DarkVecService
from repro.trace.packet import TCP, Trace

DELTA_T = 1800.0
BASE_TIME = 1_600_000_000.0
BASE_IP = 0x0A000000


def synthetic_trace(
    n_senders: int,
    packets_per_sender: int,
    senders_per_window: int,
    seed: int,
    first_window: int = 0,
    ip_pool: int | None = None,
) -> Trace:
    """A time-sorted trace of ``n_senders`` senders, columnar-built.

    Senders fill consecutive dT windows starting at ``first_window``;
    the ingest benchmark uses that to generate follow-up micro-batches
    that land strictly after the fitted trace.  ``ip_pool`` keeps the
    sender address space stable across batches so updates re-observe
    known senders (the warm path) as well as fresh ones.
    """
    rng = np.random.default_rng(seed)
    pool = n_senders if ip_pool is None else ip_pool
    # sorted: Trace sender tables are sorted unique IPs by construction
    sender_ids = np.sort(rng.permutation(pool)[:n_senders])
    window_of = np.arange(n_senders) // senders_per_window + first_window
    pkt_senders = np.repeat(np.arange(n_senders), packets_per_sender)
    pkt_windows = np.repeat(window_of, packets_per_sender)
    offsets = rng.uniform(0.0, DELTA_T - 1.0, size=len(pkt_senders))
    times = BASE_TIME + pkt_windows * DELTA_T + offsets
    order = np.argsort(times, kind="stable")
    n = len(order)
    return Trace(
        times=times[order],
        senders=pkt_senders[order].astype(np.int32),
        ports=np.full(n, 23, dtype=np.int32),
        protos=np.full(n, TCP, dtype=np.uint8),
        receivers=(pkt_senders[order] % 256).astype(np.uint8),
        mirai=np.zeros(n, dtype=bool),
        sender_ips=(sender_ids.astype(np.uint32) + BASE_IP),
    )


def bench_serve(args) -> dict:
    config = DarkVecConfig(
        service="single",
        delta_t=DELTA_T,
        min_packets=args.packets_per_sender,
        epochs=args.epochs,
        update_epochs=1,
        vector_size=args.vector_size,
        context=5,
        seed=1,
        workers=args.workers,
        pool_backend=args.pool_backend,
        ann_backend=args.ann_backend,
        # the per-search exact recall audit is an offline QA knob; in
        # the serving read path it adds an O(N) pass to every query
        ann_recall_sample=0,
        window_days=365.0,  # no eviction: the bench measures serving
    )
    fit_trace = synthetic_trace(
        args.n_senders,
        args.packets_per_sender,
        args.senders_per_window,
        seed=7,
        ip_pool=args.n_senders,
    )
    fit_windows = args.n_senders // args.senders_per_window + 1
    print(f"fitting {args.n_senders:,} senders ...", flush=True)
    t0 = time.perf_counter()
    darkvec = DarkVec(config).fit(fit_trace)
    fit_seconds = time.perf_counter() - t0

    batches = [
        synthetic_trace(
            args.batch_senders,
            args.packets_per_sender,
            args.senders_per_window,
            seed=100 + i,
            first_window=fit_windows + i * 2,
            ip_pool=args.n_senders + args.batch_senders,
        )
        for i in range(args.batches)
    ]

    telemetry = obs.Telemetry()
    errors: list[Exception] = []
    query_counts = [0] * args.query_threads
    stop = threading.Event()

    with obs.session(telemetry):
        service = DarkVecService(darkvec, with_clusters=False)
        snapshot = service.snapshot
        rng = np.random.default_rng(13)
        query_ips = snapshot.sender_ips[
            rng.integers(0, len(snapshot), size=4096)
        ].astype(int)

        def hammer(slot: int) -> None:
            i = slot
            while not stop.is_set():
                ip = int(query_ips[i % len(query_ips)])
                i += args.query_threads
                try:
                    if i % 3:
                        service.classify(ip)
                    else:
                        service.neighbors(ip, k=7)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                query_counts[slot] += 1

        readers = [
            threading.Thread(target=hammer, args=(slot,), daemon=True)
            for slot in range(args.query_threads)
        ]
        for reader in readers:
            reader.start()

        ingest_packets = sum(len(b) for b in batches)
        t1 = time.perf_counter()
        for batch in batches:
            service.submit(batch)
        drained = service.drain(timeout=args.drain_timeout)
        ingest_seconds = time.perf_counter() - t1
        # keep hammering the post-promotion snapshot a moment
        time.sleep(0.5)
        stop.set()
        for reader in readers:
            reader.join(timeout=30.0)
        final_version = service.snapshot.version
        promotions = service.promotions

        # Batched vs single classify: same sender list, one thread, no
        # concurrent load — isolates the per-request overhead batching
        # amortizes (snapshot grab, ip parse, one search per call).
        batch_ips = [
            int(ip)
            for ip in query_ips[: args.batch_query_total]
        ]
        t_single = time.perf_counter()
        for ip in batch_ips:
            service.classify(ip)
        single_seconds = time.perf_counter() - t_single
        t_batched = time.perf_counter()
        for lo in range(0, len(batch_ips), args.batch_query_size):
            service.classify(batch_ips[lo : lo + args.batch_query_size])
        batched_seconds = time.perf_counter() - t_batched
        service.close()

    snapshot_metrics = telemetry.snapshot()
    sketches = snapshot_metrics.get("sketches") or {}
    counters = snapshot_metrics.get("counters") or {}
    query = _quantiles(sketches, "serve.query_seconds")
    promotion = _quantiles(sketches, "serve.promotion_seconds")
    warmup = _quantiles(sketches, "serve.warmup_seconds")
    n_queries = int(sum(query_counts))
    return {
        "n_senders": args.n_senders,
        "embedded_senders": len(snapshot),
        "fit_seconds": round(fit_seconds, 3),
        "query_threads": args.query_threads,
        "workers": args.workers,
        "pool_backend": args.pool_backend,
        "ann_backend": args.ann_backend,
        "ingest": {
            "batches": args.batches,
            "packets": int(ingest_packets),
            "seconds": round(ingest_seconds, 3),
            "packets_per_second": round(ingest_packets / ingest_seconds, 1),
            "drained": bool(drained),
            "promotions": int(promotions),
            "final_version": int(final_version),
        },
        "queries": {
            "count": n_queries,
            "errors": len(errors),
            "per_second": round(n_queries / ingest_seconds, 1),
            "p50_ms": _ms(query.get("p50")),
            "p95_ms": _ms(query.get("p95")),
            "p99_ms": _ms(query.get("p99")),
        },
        "queries_batched": {
            "total": len(batch_ips),
            "batch_size": args.batch_query_size,
            "single_per_second": round(len(batch_ips) / single_seconds, 1),
            "batched_per_second": round(len(batch_ips) / batched_seconds, 1),
            "speedup": round(single_seconds / batched_seconds, 2),
        },
        "promotion_pause": {
            "count": promotion.get("count", 0),
            "p50_ms": _ms(promotion.get("p50")),
            "max_ms": _ms(promotion.get("max")),
            "warmup_p50_ms": _ms(warmup.get("p50")),
            "warmup_max_ms": _ms(warmup.get("max")),
        },
        "counters": {
            name: counters[name]
            for name in sorted(counters)
            if name.startswith("serve.")
        },
    }


def _ms(seconds) -> float | None:
    return None if seconds is None else round(seconds * 1000.0, 3)


def _quantiles(sketches: dict, name: str) -> dict:
    data = sketches.get(name)
    return summarize(data) if data else {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-senders", type=int, default=100_000)
    parser.add_argument("--packets-per-sender", type=int, default=2)
    parser.add_argument("--senders-per-window", type=int, default=2000)
    parser.add_argument("--batch-senders", type=int, default=2000)
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--vector-size", type=int, default=32)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--pool-backend",
        choices=("thread", "process"),
        default="process",
        help="training executor; 'process' keeps the serving GIL free",
    )
    parser.add_argument(
        "--ann-backend",
        choices=tuple(BACKENDS),
        default="ivf",
        help="neighbour index served from the snapshot",
    )
    parser.add_argument(
        "--batch-query-size",
        type=int,
        default=64,
        help="senders per list classify call in the batched phase",
    )
    parser.add_argument(
        "--batch-query-total",
        type=int,
        default=2048,
        help="senders classified in each arm of the batched phase",
    )
    parser.add_argument(
        "--query-threads",
        type=int,
        default=0,
        help="0 = min(4, cores): readers beyond physical cores only "
        "measure their own queueing, not serving latency",
    )
    parser.add_argument("--drain-timeout", type=float, default=1800.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_serve.json"))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: shrink N, keep the p99 latency assertion",
    )
    return parser


def main() -> int:
    args = _build_parser().parse_args()
    if args.query_threads <= 0:
        args.query_threads = min(4, max(2, os.cpu_count() or 1))
    if args.smoke:
        args.n_senders = 10_000
        args.senders_per_window = 500
        args.batch_senders = 500
        args.batches = 2
        args.query_threads = 2

    result = {
        "smoke": bool(args.smoke),
        "cores": os.cpu_count(),
        "serve": bench_serve(args),
    }
    print(json.dumps(result["serve"], indent=2))
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    serve = result["serve"]
    if serve["queries"]["errors"]:
        failures.append(f"{serve['queries']['errors']} queries failed")
    if not serve["ingest"]["drained"]:
        failures.append("ingest did not drain within the timeout")
    if serve["ingest"]["promotions"] < serve["ingest"]["batches"]:
        failures.append(
            f"only {serve['ingest']['promotions']} of "
            f"{serve['ingest']['batches']} batches promoted"
        )
    p99 = serve["queries"]["p99_ms"]
    if p99 is None or p99 >= 50.0:
        failures.append(f"p99 query latency {p99} ms >= 50 ms")
    batched = serve["queries_batched"]
    if batched["batched_per_second"] <= batched["single_per_second"]:
        failures.append(
            f"batched classify {batched['batched_per_second']}/s not above "
            f"single-query loop {batched['single_per_second']}/s"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
