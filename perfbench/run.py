"""The repository benchmark: one command, two workloads and two studies.

    python3 perfbench/run.py --workload fit_paper --seed 7 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Each run makes its inputs from ``--seed``, starts the
system in fresh processes that receive only those input files,
measures, checks the outputs, and prints every metric by name with
its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs with timing
wrappers installed and reports the per-layer metrics instead,
including the time the tracing itself added.

Workloads (why each exists is in :data:`WORKLOADS`):

* ``fit_paper``  — the EXPERIMENTS.md scenario: fit, LOO, Louvain, then
  the daemon over the saved model.
* ``serve_read`` — the daemon under open-loop queries, no ingest.

Two study workloads run the same way but are not in
``BENCHMARK.json`` (``perfbench/README.md`` says why):

* ``serve_mixed`` — the same queries while micro-batches are ingested.
* ``fit_scale``  — 10^5 two-packet senders through the scale knobs.

A failed correctness check prints ``"correct": false`` and exits 1.
Exit code 2 means the run could not start (for instance no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, PER_LAYER, STUDY, UNITS, layer_metrics  # noqa: E402
from tracing import merge_logs, unrecorded  # noqa: E402

END_TO_END_NAMES = [name for name, *_ in END_TO_END]

#: workload -> why it exists (BENCHMARK.json says why for its two).
WORKLOADS = {
    "fit_paper": "EXPERIMENTS.md scenario at workers=1 and exact k-NN: the sequential SGNS loop dominates",
    "serve_read": "the daemon's read path alone: open-loop query mix, capacity ladder, batch classify",
    "serve_mixed": "study: the read load at the base rate while micro-batches are ingested and promoted",
    "fit_scale": "study: 10^5 two-packet senders through sharding, the mmap store and IVF-PQ",
}

#: A second seed, besides the default, that a claimed gain must hold on.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

PAPER = {"scale": 0.15, "days": 30.0}
#: LOO accuracy of DarkVec in EXPERIMENTS.md Table 3 at seed 7, and a
#: floor for other seeds (their scenarios differ in class mix).
PAPER_ACCURACY_SEED7 = 0.911
PAPER_ACCURACY_FLOOR = 0.85
SCALE = {"n_senders": 100_000, "senders_per_window": 2000, "classes": 8}
#: IVF-PQ on the one-epoch two-packet embedding: see ATTRIBUTION.md.
SCALE_RECALL_FLOOR = 0.5
SERVE = {"n_senders": 5_000, "senders_per_window": 250, "batches": 5, "batch_senders": 250}
#: Offered query rate of serve_mixed and first ladder step of
#: serve_read (requests/s), and seconds between ingested batches —
#: longer than one update plus promotion takes, so the queue drains.
BASE_RATE = 200.0
INGEST_INTERVAL = 1.8
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Timing targets (``tracing.TARGETS`` paths) each workload runs: a
#: traced run fails when one of them did not resolve or recorded no
#: span, instead of reporting its layer as 0.
_COMMON_TARGETS = [
    "repro.io.csvio:read_trace_csv",
    "repro.core.config:DarkVecConfig.resolve_service_map",
    "repro.corpus.builder:CorpusBuilder.build",
    "repro.w2v.vocab:Vocabulary.build",
    "repro.w2v.model:Word2Vec.fit",
    "repro.ann.base:build_index",
    "repro.knn.classifier:CosineKnn.predict_rows",
    "repro.knn.classifier:vote_encoded",
    "repro.knn.loo:leave_one_out_predictions",
    "repro.graph.knn_graph:build_knn_graph",
    "repro.graph.louvain:louvain_communities",
    "repro.core.pipeline:DarkVec.save_state",
    "repro.core.pipeline:DarkVec.load_state",
    "repro.core.pipeline:DarkVec.fit",
    "repro.serve.snapshot:ModelSnapshot.rows_of_ips",
    "repro.serve.snapshot:ModelSnapshot.row_of_ip",
    "repro.serve.snapshot:ModelSnapshot.of",
    "repro.serve.server:ServeServer.dispatch",
]
REQUIRED_TARGETS: dict[str, list[str]] = {
    "fit_paper": _COMMON_TARGETS + ["repro.ann.exact:ExactIndex.search"],
    "serve_read": _COMMON_TARGETS + [
        "repro.core.sharding:build_corpus_sharded",
        "repro.core.sharding:build_vocab_streaming",
        "repro.w2v.vocab:Vocabulary.merge",
        "repro.parallel.pool:WorkerPool.__init__",
        "repro.parallel.pool:WorkerPool.map",
        "repro.ann.ivf:IVFIndex.search",
    ],
}


class CheckFailed(Exception):
    """A correctness check failed; the run reports ``correct: false``."""


def environment(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit, dirty = "unknown", None
    if (Path.cwd() / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], capture_output=True, text=True, check=True
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_system(work: Path, args, trace: Path, labels: Path, spans: Path | None) -> dict:
    out = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "system.py"), "fit", "--workload", args.workload,
        "--trace", str(trace), "--labels", str(labels), "--work", str(work),
        "--out", str(out), "--seed", str(args.seed),
        "--workers", str(len(os.sched_getaffinity(0))),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, check=True)
    return json.loads(out.read_text())


def fit_workload(args, work: Path) -> tuple[dict, dict, dict]:
    """Returns (end-to-end metrics, per-layer metrics, detail)."""
    import inputs

    if args.workload == "fit_paper":
        trace, labels = inputs.paper_inputs(work, args.seed, **PAPER)
    else:
        trace, labels = inputs.scale_inputs(work, args.seed, **SCALE)
    spans = work / "spans.json" if args.trace else None
    result = run_system(work, args, trace, labels, spans)
    checks = []
    if args.workload == "fit_paper":
        floor = PAPER_ACCURACY_SEED7 if args.seed == DEFAULT_SEED else PAPER_ACCURACY_FLOOR
        if round(result["loo_accuracy"], 3) < floor:
            checks.append(f"LOO accuracy {result['loo_accuracy']:.4f} below {floor}")
    else:
        if result["ann_recall"] < SCALE_RECALL_FLOOR:
            checks.append(f"ANN recall {result['ann_recall']:.4f} below {SCALE_RECALL_FLOOR}")
        if result["embedded_senders"] != SCALE["n_senders"]:
            checks.append(
                f"{result['embedded_senders']} senders embedded, input has {SCALE['n_senders']}"
            )
    if checks:
        raise CheckFailed("; ".join(checks))
    daemon_spans = work / "spans-daemon.json" if args.trace else None
    side = {}
    if args.workload == "fit_paper":
        # The read side: the daemon serves the state the fit saved.
        measured = daemon_phases(args, work, result, [], daemon_spans)
        for name in ("restart_s", "query_p50_ms", "query_p99_ms", "batch_classify_sps"):
            result[name] = measured[name]
        result["attempted"], result["failed"] = measured["attempted"], measured["failed"]
        result["daemon_rss_peak_mb"] = measured["rss_peak_mb"]
        side = daemon_side(measured)
    result.pop("reference", None)
    e2e = {name: result[name] for name in END_TO_END_NAMES}
    layers = {}
    if spans is not None:
        logs = [spans] + ([daemon_spans] if daemon_spans.exists() else [])
        merged, overhead_pct, skipped = merge_logs(logs)
        side.update({
            "knn.loo_accuracy": result["loo_accuracy"],
            "graph.cluster_s": result.get("cluster_s", 0.0),
            "ann.recall": result.get("ann_recall", 1.0),
            "serve.query_p50_ms": result["query_p50_ms"],
            "serve.query_p99_ms": result["query_p99_ms"],
            "serve.restart_s": result["restart_s"],
            "serve.batch_classify_sps": result["batch_classify_sps"],
            "store.state_mb": result["state_mb"],
            "obs.tracing_overhead_pct": overhead_pct,
        })
        layers = traced_layers(args.workload, merged, skipped, side, result)
    return e2e, layers, result


def daemon_phases(args, work: Path, model: dict, batches: list[Path], spans) -> dict:
    """The daemon over ``model``'s saved state: reference check, restart
    launches, then the measured pass; fails the run on a serve check."""
    import serve_bench

    run = serve_bench.ServeRun(
        args.workload, work, model, args.seed, args.seconds, BASE_RATE, batches, INGEST_INTERVAL
    )
    try:
        launches = [run.reference_check()]
        launches += [run.restart_probe(i) for i in range(serve_bench.RESTARTS)]
        measured = run.measured_pass("measured", spans)
    except serve_bench.CheckFailed as exc:
        raise CheckFailed(str(exc)) from None
    checks = list(measured["errors"])
    status = measured["status"]
    if status["promotions"] != len(batches) or status["rollbacks"]:
        checks.append(
            f"{status['promotions']} promotions, {status['rollbacks']} rollbacks "
            f"for {len(batches)} batches"
        )
    if batches and not measured.get("drained"):
        checks.append("ingest queue not drained")
    if checks:
        raise CheckFailed("; ".join(checks[:5]))
    measured["restart_s"] = statistics.median(launches + [measured["launch_s"]])
    return measured


def daemon_side(measured: dict) -> dict:
    """Per-layer figures the benchmark measured on the daemon itself."""
    status = measured["status"]
    return {
        "observed_ms": measured["observed_ms"],
        "ingest_to_queryable_s": measured.get("ingest_to_queryable_s", []),
        "serve.capacity_qps": measured.get("capacity_qps", 0.0),
        "serve.promotions": status["promotions"],
        "serve.rollbacks": status["rollbacks"],
        "serve.generator_late_p99_ms": measured["late_p99_ms"],
        "serve.query_p50_ms": measured["query_p50_ms"],
        "serve.query_p99_ms": measured["query_p99_ms"],
        "serve.restart_s": measured["restart_s"],
        "serve.batch_classify_sps": measured["batch_classify_sps"],
    }


def serve_workload(args, work: Path) -> tuple[dict, dict, dict]:
    import inputs
    import serve_bench

    fit_csv, batches = inputs.serve_inputs(work, args.seed, **SERVE)
    if args.workload == "serve_read":
        batches = []
    traced = args.trace == 1
    model_spans = work / "spans-model.json" if traced else None
    daemon_spans = work / "spans-daemon.json" if traced else None
    model = serve_bench.run_model_setup(fit_csv, work, args.seed, model_spans)
    measured = daemon_phases(args, work, model, batches, daemon_spans)
    e2e = {
        # Set-up is everything before the first answer: fit, save, launch.
        "setup_s": model["setup_fit_save_s"] + measured["restart_s"],
        "query_p50_ms": measured["query_p50_ms"],
        "rss_peak_mb": measured["rss_peak_mb"],
    }
    detail = {
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "fit_s": model["fit_s"],
        "evaluate_s": model["evaluate_s"],
        "restart_s": measured["restart_s"],
        "query_p50_ms": measured["query_p50_ms"],
        "query_p99_ms": measured["query_p99_ms"],
        "batch_classify_sps": measured["batch_classify_sps"],
        "steps": measured["steps"],
        "capacity_qps": measured.get("capacity_qps"),
        "ingest_to_queryable_s": measured.get("ingest_to_queryable_s"),
        "promotions": measured["status"]["promotions"],
        "senders": model["senders"],
    }
    layers = {}
    if traced:
        merged, overhead_pct, skipped = merge_logs([model_spans, daemon_spans])
        side = {
            **daemon_side(measured),
            "store.state_mb": model["state_mb"],
            "obs.tracing_overhead_pct": overhead_pct,
        }
        layers = traced_layers(args.workload, merged, skipped, side, detail)
    return e2e, layers, detail


def traced_layers(workload: str, spans, skipped, side: dict, detail: dict) -> dict:
    """The per-layer metrics of a traced run; study figures, span counts
    and unresolved targets go into ``detail``."""
    missing = unrecorded(spans, skipped, REQUIRED_TARGETS.get(workload, []))
    if missing:
        raise CheckFailed(
            f"traced run measured nothing at {', '.join(missing)} "
            f"(unresolved targets: {', '.join(skipped) or 'none'})"
        )
    figures = layer_metrics(spans, side)
    counts: dict[str, int] = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    detail["spans"] = dict(sorted(counts.items()))
    detail["skipped_targets"] = skipped
    detail["study"] = {name: figures[name] for name, *_ in STUDY}
    return {name: figures[name] for name, *_ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src}/repro is missing; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Every system process and daemon this run starts imports src/.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    # One BLAS thread per process unless the caller chose otherwise:
    # the program's parallelism is its own worker pools, and handing a
    # small query's matrix product to a sleeping BLAS thread costs
    # milliseconds of wake-up on an idle virtual CPU.
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    started = perf_counter()
    correct, problem = True, None
    try:
        if args.workload.startswith("fit_"):
            e2e, layers, detail = fit_workload(args, work)
            attempted, failed = detail.get("attempted", detail.get("ops", 1)), detail.get("failed", 0)
        else:
            e2e, layers, detail = serve_workload(args, work)
            attempted, failed = detail["attempted"], detail["failed"]
    except CheckFailed as exc:
        correct, problem = False, str(exc)
        e2e, layers, detail, attempted, failed = {}, {}, {}, 1, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = layers if args.trace else e2e
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {UNITS[name]}")
    print(json.dumps({
        "workload": args.workload,
        "wall_s": perf_counter() - started,
        "environment": environment(args.seed),
        "detail": detail,
        "problem": problem,
    }, default=str))
    if problem:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
