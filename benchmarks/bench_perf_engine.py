"""End-to-end performance benchmark for the parallel engine.

Times every pipeline stage — corpus build, Word2Vec training, LOO
evaluation, Louvain clustering — at 1/2/4 workers on a fixed medium
preset and writes ``BENCH_perf_engine.json`` with throughput
(pairs/sec) and end-to-end seconds, so later PRs can track the perf
trajectory.  Every worker count trains through the same sharded engine
(``workers=1`` on one inline thread), so a gain over ``workers=1`` is
thread-level parallelism when the machine has the cores for it.  Each
result records the threads it actually ran and labels its gain
accordingly: ``"threads"`` on several threads, ``"none"`` when the pool
ran inline (one core) and only the shard layout differs.

Run from the repository root, with one BLAS thread so the worker
pool is the only parallelism:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_perf_engine.py

Options: ``--scale/--days/--seed`` pick the scenario, ``--epochs`` the
training length, ``--workers`` a comma list of worker counts, ``--out``
the JSON path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import DarkVec, DarkVecConfig
from repro.trace.generator import generate_trace
from repro.trace.scenario import default_scenario
from repro.w2v.skipgram import expected_pair_count


def _peak_rss_kb() -> int:
    """Process-lifetime peak RSS in KiB (monotone high-water mark)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _counter_delta(after: dict, before: dict) -> dict:
    """Per-stage counter increments between two telemetry snapshots."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--days", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--model-seed", type=int, default=1)
    parser.add_argument("--workers", type=str, default="1,2,4")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_perf_engine.json")
    )
    return parser


def run_setting(trace, truth, workers: int, epochs: int, seed: int) -> dict:
    """Fit + evaluate + cluster once at the given worker count.

    Runs inside a counters-only telemetry session (no ``tracemalloc``,
    so timings stay honest) and records a per-stage snapshot — seconds,
    peak RSS after the stage, and the stage's counter increments — in
    the returned ``stage_metrics`` mapping.
    """
    config = DarkVecConfig(
        service="domain", epochs=epochs, seed=seed, workers=workers
    )
    darkvec = DarkVec(config)
    telemetry = obs.Telemetry(profile_memory=False)
    stage_metrics: dict[str, dict] = {}

    with obs.session(telemetry):
        before = telemetry.snapshot()["counters"]
        t0 = time.perf_counter()
        darkvec.fit(trace)
        fit_seconds = time.perf_counter() - t0
        after = telemetry.snapshot()["counters"]
        stage_metrics["fit"] = {
            "seconds": round(fit_seconds, 3),
            "peak_rss_kb": _peak_rss_kb(),
            "counters": _counter_delta(after, before),
        }

        assert darkvec.corpus is not None and darkvec.embedding is not None
        lengths = np.array(
            [len(s) for s in darkvec.corpus if len(s) >= 2], dtype=np.int64
        )
        pairs_per_epoch = expected_pair_count(lengths, config.context)
        trained_pairs = pairs_per_epoch * epochs

        before = after
        t0 = time.perf_counter()
        report = darkvec.evaluate(truth)
        evaluate_seconds = time.perf_counter() - t0
        after = telemetry.snapshot()["counters"]
        stage_metrics["evaluate"] = {
            "seconds": round(evaluate_seconds, 3),
            "peak_rss_kb": _peak_rss_kb(),
            "counters": _counter_delta(after, before),
        }

        before = after
        t0 = time.perf_counter()
        clusters = darkvec.cluster(k_prime=3)
        cluster_seconds = time.perf_counter() - t0
        after = telemetry.snapshot()["counters"]
        stage_metrics["cluster"] = {
            "seconds": round(cluster_seconds, 3),
            "peak_rss_kb": _peak_rss_kb(),
            "counters": _counter_delta(after, before),
        }

    stage_metrics["fit"]["pairs_per_second"] = round(
        trained_pairs / fit_seconds, 1
    )
    end_to_end = fit_seconds + evaluate_seconds + cluster_seconds
    return {
        "workers": workers,
        "fit_seconds": round(fit_seconds, 3),
        "evaluate_seconds": round(evaluate_seconds, 3),
        "cluster_seconds": round(cluster_seconds, 3),
        "end_to_end_seconds": round(end_to_end, 3),
        "trained_pairs": int(trained_pairs),
        "pairs_per_second": round(trained_pairs / fit_seconds, 1),
        "loo_accuracy": round(report.accuracy, 4),
        "modularity": round(clusters.modularity, 4),
        "n_clusters": clusters.n_clusters,
        "embedded_senders": len(darkvec.embedding),
        "stage_metrics": stage_metrics,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark matrix and write the JSON report."""
    args = _build_parser().parse_args(argv)
    worker_counts = [int(w) for w in args.workers.split(",")]

    t0 = time.perf_counter()
    scenario = default_scenario(
        scale=args.scale, days=args.days, seed=args.seed
    )
    bundle = generate_trace(scenario)
    simulate_seconds = time.perf_counter() - t0

    # Time the corpus build once in isolation (fit re-runs it, but the
    # stage-level number is what later PRs will want to compare).
    config = DarkVecConfig(service="domain")
    t0 = time.perf_counter()
    from repro.corpus.builder import CorpusBuilder

    active = bundle.trace.active_senders(config.min_packets)
    service_map = config.resolve_service_map(bundle.trace)
    corpus = CorpusBuilder(service_map, delta_t=config.delta_t).build(
        bundle.trace, keep_senders=active
    )
    corpus_seconds = time.perf_counter() - t0

    # One untimed single-epoch fit first: until large frees raise
    # glibc's mmap and trim thresholds, a fresh process hands freed
    # memory back to the OS and every batch's temporaries page-fault.
    # Without it the first setting in the list runs ~1.5x slower than
    # the same setting run later.
    run_setting(bundle.trace, bundle.truth, 1, 1, args.model_seed)
    results = []
    for workers in worker_counts:
        print(f"running fit+evaluate+cluster at workers={workers} ...")
        result = run_setting(
            bundle.trace, bundle.truth, workers, args.epochs, args.model_seed
        )
        print(
            f"  end-to-end {result['end_to_end_seconds']}s "
            f"({result['pairs_per_second']:.0f} pairs/s, "
            f"accuracy {result['loo_accuracy']})"
        )
        results.append(result)

    baseline = next((r for r in results if r["workers"] == 1), results[0])
    cores = os.cpu_count() or 1
    for result in results:
        result["threads"] = min(result["workers"], cores)
        result["gain_source"] = "threads" if result["threads"] > 1 else "none"
        result["speedup_vs_workers1"] = round(
            baseline["end_to_end_seconds"] / result["end_to_end_seconds"], 2
        )
        result["accuracy_delta_vs_workers1"] = round(
            result["loo_accuracy"] - baseline["loo_accuracy"], 4
        )

    payload = {
        "benchmark": "perf_engine",
        "preset": {
            "scale": args.scale,
            "days": args.days,
            "scenario_seed": args.seed,
            "model_seed": args.model_seed,
            "epochs": args.epochs,
            "service": "domain",
        },
        "environment": {
            "cpu_count": cores,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "trace": {
            "n_packets": int(bundle.trace.n_packets),
            "n_senders": int(bundle.trace.n_senders),
            "simulate_seconds": round(simulate_seconds, 3),
        },
        "corpus": {
            "n_sentences": len(corpus),
            "n_tokens": int(corpus.n_tokens),
            "build_seconds": round(corpus_seconds, 3),
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
