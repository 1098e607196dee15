"""The system process: a fresh interpreter that runs the program.

The benchmark starts this script once per pass with nothing but the
generated input files.  It calls the program's public API, times each
call from outside, checks the results, and writes one JSON result
file.  With ``--spans`` it first installs the tracing wrappers and
writes the recorded spans at exit.

    python perfbench/system.py fit   --workload fit_paper --trace T --labels L ...
    python perfbench/system.py model --trace T --work DIR --out R.json

``fit`` runs a fit workload; ``model`` fits and saves the model a
serve daemon will load.  Where a daemon will serve the saved state
(``model``, and ``fit_paper``), the process also answers a seeded
sample of classify queries in process as the reference for the
daemon's replies.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from layers import NOTES, percentile  # noqa: E402

K = 7
SETUP_REPEATS = 3
#: Sub-second measurements repeat for at least this long (and at least
#: REPEATS times) and report their median, so that one slow moment of
#: a shared machine does not decide the figure.
REPEAT_SECONDS = 1.5
REPEATS = 5
#: The serve model's fit takes a tenth of a second, so it repeats for
#: this long and reports its median.
MODEL_SECONDS = 3.0
#: A traced run times every call once instead: its per-layer figures
#: are the cost of one call, not of however many fit in the window.
TRACED = False
#: Length of the interleaved read-side measurements of ``fit_scale``,
#: and the single and 64-sender classify calls in each of its rounds.
PROBE_SECONDS = 8.0
QUERY_ROUND = 200
BATCH_ROUND = 4
BATCH = 64
RECALL_SAMPLE = 500
LOO_SAMPLE = 1000


def fit_config(workload: str, work: Path, workers: int):
    """The configuration each workload fits with (see run.py for why)."""
    from repro.core import DarkVecConfig

    if workload == "fit_paper":
        # EXPERIMENTS.md defaults: domain services, 10 epochs, workers=1,
        # exact k-NN; model seed 1 as in benchmarks/conftest.py.
        return DarkVecConfig(service="domain", epochs=10, seed=1)
    if workload == "fit_scale":
        return DarkVecConfig(
            service="single",
            delta_t=1800.0,
            min_packets=2,
            epochs=1,
            vector_size=32,
            context=5,
            seed=1,
            workers=workers,
            pool_backend="process",
            shard_size=12_500,
            use_mmap=True,
            ann_backend="ivfpq",
            ann_nprobe=16,
            ann_recall_sample=0,
            cache_dir=work / "cache",
        )
    if workload == "model":
        # The bench_serve shape: IVF, process pool, no eviction; the
        # sharded build (bit-identical) runs sharding and vocab merges.
        return DarkVecConfig(
            service="single",
            delta_t=1800.0,
            min_packets=2,
            epochs=1,
            update_epochs=1,
            vector_size=32,
            context=5,
            seed=1,
            workers=workers,
            pool_backend="process",
            shard_size=1_000,
            ann_backend="ivf",
            ann_recall_sample=0,
            window_days=365.0,
        )
    raise ValueError(f"unknown workload {workload!r}")


def read_labels(path: Path):
    """Ground truth from a ``src_ip,label`` CSV, one dict build."""
    from repro.labels.groundtruth import UNKNOWN, GroundTruth
    from repro.trace.address import str_to_ip

    by_ip = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ["src_ip", "label"]:
            raise ValueError(f"unexpected labels header in {path}")
        for ip_text, label in reader:
            if label != UNKNOWN:
                by_ip[str_to_ip(ip_text)] = label
    return GroundTruth(by_ip)


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0


def enough(runs: list, started: float, seconds: float = REPEAT_SECONDS) -> bool:
    """Whether a repeated measurement may stop: one call when traced,
    else at least REPEATS calls over at least ``seconds``."""
    if TRACED:
        return bool(runs)
    return len(runs) >= REPEATS and perf_counter() - started >= seconds


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def read_side(darkvec, evaluate, state: Path, seed: int) -> tuple[object, dict]:
    """Evaluate, restart and query figures of a fitted model.

    The four measurements take turns for at least PROBE_SECONDS, so
    each figure's median spans the same stretch of time: on a shared
    machine whose speed drifts from second to second, a figure taken
    in one short block catches one moment of it.  Returns the first
    result of ``evaluate`` and the figures.
    """
    from repro.core import DarkVec
    from repro.serve.snapshot import ModelSnapshot

    snapshot = ModelSnapshot.of(darkvec, with_clusters=False)
    _, save_s = timed(darkvec.save_state, state)
    first_ip = int(snapshot.sender_ips[0])

    def restore_and_answer():
        restored = DarkVec.load_state(state)
        return ModelSnapshot.of(restored, with_clusters=False).classify(first_ip)

    rng = np.random.default_rng(seed)
    evaluations, restarts, latencies, calls = [], [], [], []
    started = perf_counter()
    while not enough(evaluations, started, PROBE_SECONDS):
        evaluations.append(timed(evaluate))
        restarts.append(timed(restore_and_answer)[1])
        for ip in snapshot.sender_ips[rng.integers(0, len(snapshot), QUERY_ROUND)].tolist():
            t0 = perf_counter()
            snapshot.classify(ip)
            latencies.append((perf_counter() - t0) * 1e3)
        for _ in range(BATCH_ROUND):
            ips = snapshot.sender_ips[rng.integers(0, len(snapshot), BATCH)].tolist()
            replies, call_s = timed(snapshot.classify_many, ips)
            calls.append(call_s)
            if any("error" in r for r in replies["results"]):
                raise RuntimeError("batched classify rejected a known sender")
    return evaluations[0][0], {
        "evaluate_s": statistics.median(s for _, s in evaluations),
        "restart_s": statistics.median(restarts),
        "save_state_s": save_s,
        "state_mb": dir_mb(state),
        "query_p50_ms": percentile(latencies, 0.5),
        "query_p99_ms": percentile(latencies, 0.99),
        "batch_classify_sps": BATCH / statistics.median(calls),
        "ops": len(evaluations) + len(restarts) + len(latencies) + len(calls),
    }


def sampled_loo(darkvec, truth, sample: int, seed: int) -> tuple[float, float]:
    """LOO k-NN accuracy over a seeded sample of embedded senders."""
    from repro.knn import loo

    embedding = darkvec.embedding
    labels = truth.labels_for(darkvec.trace)[embedding.tokens]
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(len(embedding), min(sample, len(embedding)), replace=False))
    predictions = loo.leave_one_out_predictions(
        embedding.vectors,
        labels,
        rows,
        k=K,
        workers=darkvec.config.workers,
        index=darkvec._ann_index(),
    )
    return float(np.mean(predictions == labels[rows])), len(rows)


def ann_recall(darkvec, seed: int) -> float:
    """recall@k of the fitted index against exact search, seeded sample."""
    from repro.ann.exact import exact_topk
    from repro.w2v.mathutils import unit_rows

    index = darkvec._ann_index()
    n = len(darkvec.embedding)
    rows = np.sort(np.random.default_rng(seed).choice(n, min(RECALL_SAMPLE, n), replace=False))
    approx, _ = index.search(rows, K, exclude_self=True)
    exact, _ = exact_topk(unit_rows(darkvec.embedding.vectors), rows, K)
    hits = sum(len(np.intersect1d(a, e)) for a, e in zip(approx, exact))
    return hits / (len(rows) * K)


def run_fit(args) -> dict:
    from repro.core import DarkVec
    from repro.io import csvio

    setup = []
    for _ in range(1 if TRACED else SETUP_REPEATS):
        t0 = perf_counter()
        trace = csvio.read_trace_csv(args.trace)
        truth = read_labels(args.labels)
        setup.append(perf_counter() - t0)
    # One pass: a fit at these sizes already outlasts the run length.
    config = fit_config(args.workload, args.work, args.workers)
    darkvec, fit_s = timed(DarkVec(config).fit, trace)
    result = {"fit_s": fit_s}
    if args.workload == "fit_paper":
        # The read side is measured on the daemon, which loads this state.
        clusters, result["cluster_s"] = timed(darkvec.cluster, k_prime=3)
        result["clusters"] = int(clusters.n_clusters)
        report, result["evaluate_s"] = timed(darkvec.evaluate, truth)
        result["loo_accuracy"] = float(report.accuracy)
        state = args.work / "state"
        _, result["save_state_s"] = timed(darkvec.save_state, state)
        result.update(served_state(state, args.work, args.seed))
    else:
        (result["loo_accuracy"], _), read = read_side(
            darkvec,
            lambda: sampled_loo(darkvec, truth, LOO_SAMPLE, args.seed),
            args.work / "state",
            args.seed,
        )
        result["ann_recall"] = ann_recall(darkvec, args.seed)
        result.update(read)
    result["setup_s"] = statistics.median(setup)
    result["input_senders"] = int(trace.n_senders)
    result["embedded_senders"] = int(len(darkvec.embedding))
    result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def run_model(args) -> dict:
    """Fit + save the served model (several times), and the reference."""
    from repro.core import DarkVec
    from repro.io import csvio

    setup, fits = [], []
    state = args.work / "state0"
    started = perf_counter()
    while not enough(fits, started, MODEL_SECONDS):
        t0 = perf_counter()
        trace = csvio.read_trace_csv(args.trace)
        darkvec, fit_s = timed(DarkVec(fit_config("model", args.work, args.workers)).fit, trace)
        saved = state if not fits else args.work / "state-again"
        darkvec.save_state(saved)
        setup.append(perf_counter() - t0)
        fits.append(fit_s)
        if saved != state:
            shutil.rmtree(saved)
    from repro.labels.groundtruth import GroundTruth

    ips = darkvec.trace.sender_ips[darkvec.embedding.tokens]
    truth = GroundTruth({int(ip): f"class{int(ip) % 4}" for ip in ips.tolist()})
    _, evaluate_s = timed(sampled_loo, darkvec, truth, LOO_SAMPLE, args.seed)
    return {
        "setup_fit_save_s": statistics.median(setup),
        "fit_s": statistics.median(fits),
        "evaluate_s": evaluate_s,
        **served_state(state, args.work, args.seed),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def served_state(state: Path, work: Path, seed: int) -> dict:
    """What the daemon check needs of a saved state: its senders (in
    ``work/sender_ips.npy``) and a seeded sample of classify answers
    from an in-process ``ModelSnapshot.of(DarkVec.load_state(...))``."""
    from repro.core import DarkVec
    from repro.serve.snapshot import ModelSnapshot

    reference = ModelSnapshot.of(DarkVec.load_state(state), with_clusters=False)
    rng = np.random.default_rng(seed)
    sample = reference.sender_ips[rng.integers(0, len(reference), 64)].tolist()
    np.save(work / "sender_ips.npy", reference.sender_ips)
    return {
        "state": str(state),
        "state_mb": dir_mb(state),
        "senders": int(len(reference)),
        "reference": {
            str(ip): {k: v for k, v in reference.classify(ip).items() if k != "version"}
            for ip in sample
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fit", "model"))
    parser.add_argument("--workload", default="model")
    parser.add_argument("--trace", type=Path, required=True)
    parser.add_argument("--labels", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    global TRACED
    log = None
    if args.spans is not None:
        TRACED = True
        log = tracing.SpanLog()
        tracing.install(log, NOTES)
    try:
        result = run_fit(args) if args.mode == "fit" else run_model(args)
    finally:
        if log is not None:
            log.dump(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
