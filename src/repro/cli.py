"""Command-line interface.

Subcommands mirror the DarkVec workflow:

    repro simulate  --out trace.csv [--scale S --days D --seed N]
    repro stats     --trace trace.csv
    repro train     --trace trace.csv --out vectors.npz [--service ...]
    repro run       --trace trace.csv --cache-dir cache [--state DIR]
    repro resume    --trace trace.csv --cache-dir cache [--state DIR]
    repro update    --trace day31.csv --cache-dir cache [--window-days W]
    repro evaluate  --trace trace.csv --vectors vectors.npz --labels labels.csv
    repro cluster   --trace trace.csv --vectors vectors.npz [--k-prime K]
    repro profile   [--preset small|medium] [--metrics-out trace.ndjson]
    repro top       --stream live.ndjson [--interval S] [--once]
    repro runs      list|show <id>|compare <a> <b>  --cache-dir cache
    repro health    --cache-dir cache
    repro serve     --cache-dir cache [--port P --port-file F --labels L]
    repro query     <op> [--ip A.B.C.D --k K --trace batch.csv]

``run`` executes the staged pipeline against a content-addressed
artifact store and prints the per-stage hit/miss table; ``resume`` is
the same command under a name that documents the intent — re-running
with an unchanged config is a pure cache hit, and flipping one knob
re-runs exactly the stages downstream of it.  ``run`` also persists
the fitted state (default ``<cache-dir>/state``) so ``update`` can
later append a day of traffic and refit warm instead of retraining
from scratch.

``simulate`` also writes ``<out>.labels.csv`` with the ground truth so
the evaluate step can be run on the simulated data.

``train``, ``evaluate``, ``cluster``, ``run``, ``resume`` and
``update`` accept ``--metrics-out PATH`` (export the telemetry trace
as NDJSON) and ``--profile`` (also print a per-stage
time/memory/throughput table).  ``profile`` runs the whole pipeline on
a synthetic scenario with both enabled.  The same commands accept
``--telemetry-out PATH`` (stream live frames every
``--telemetry-interval`` seconds, including in-flight spans and
per-worker RSS) and ``--prom-out PATH`` (Prometheus text exposition,
atomically rewritten per flush); ``repro top --stream PATH`` tails the
live stream from another terminal.

Commands running against an artifact cache append an immutable record
to the run registry (``<cache-dir>/registry/runs.ndjson``); ``repro
runs`` lists, shows and compares those records, and ``repro health``
renders the latest drift/quality verdicts with sparkline history.
``repro update --health-gate`` refuses to persist an update whose
monitors fail, keeping the previous fitted state live.

``serve`` turns the fitted state into a streaming daemon: packet
micro-batches arrive over a localhost JSON-lines socket (``repro
query ingest``), a single writer applies :meth:`DarkVec.update` per
batch behind the health gate, and classify/neighbors/members queries
answer from an atomically-swapped model snapshot — they keep working,
against the previous model, while an update trains or is rolled back.
``query`` is the matching client; with ``--telemetry-out`` on the
daemon, ``repro top`` watches its ingest/query/promotion counters
live.  The daemon trusts local processes by default; ``--token`` (a
shared secret required for ingest/shutdown) and ``--ingest-root`` (a
directory confining path-based ingest) tighten it on shared machines.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.stats import dataset_stats
from repro.ann.base import BACKENDS
from repro.core import DarkVec, DarkVecConfig
from repro.core.inspection import inspect_clusters
from repro.graph.silhouette import cluster_silhouettes
from repro.io.csvio import read_trace_csv, write_trace_csv
from repro.knn.loo import leave_one_out_predictions
from repro.knn.report import classification_report
from repro.labels.groundtruth import GroundTruth
from repro.trace.address import ip_to_str, strs_to_ips
from repro.trace.generator import generate_trace
from repro.trace.scenario import default_scenario
from repro.utils.tables import format_table
from repro.w2v.keyedvectors import KeyedVectors

#: The ANN flags of run, resume, evaluate, cluster, update and serve:
#: the DarkVecConfig field each sets, and its help.
_ANN_FLAGS = {
    "ann_backend": "neighbour-search backend: exact (bit-identical brute "
    "force), ivf (inverted-file approximate search), ivfpq (inverted file "
    "+ product-quantized codes, compressed), or hnsw (hierarchical "
    "navigable small-world graph)",
    "ann_nlist": "IVF coarse centroids (0 = sqrt(N) at build time)",
    "ann_nprobe": "IVF lists probed per query (the speed/recall knob)",
    "ann_pq_m": "ivfpq subspaces per vector (0 = auto: min(16, dim/4))",
    "ann_pq_bits": "ivfpq bits per code, 1..8 (codebook of 2^bits entries)",
    "ann_hnsw_m": "hnsw graph degree: links per node on upper layers "
    "(layer 0 keeps 2m)",
    "ann_hnsw_ef_build": "hnsw construction beam width",
    "ann_hnsw_ef_search": "hnsw query beam width (the speed/recall knob)",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DarkVec reproduction: darknet traffic analysis "
        "with word embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_live_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--telemetry-out",
            type=Path,
            default=None,
            help="stream live telemetry frames (in-flight spans, "
            "counters, worker RSS, sketch quantiles) to this NDJSON "
            "file while the command runs; tail it with `repro top`",
        )
        cmd.add_argument(
            "--telemetry-interval",
            type=float,
            default=1.0,
            help="seconds between live telemetry flushes (default 1.0)",
        )
        cmd.add_argument(
            "--prom-out",
            type=Path,
            default=None,
            help="also publish a Prometheus text-exposition file, "
            "atomically rewritten on every flush",
        )

    def add_telemetry_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--metrics-out",
            type=Path,
            default=None,
            help="write the telemetry trace (spans + metrics) as NDJSON",
        )
        cmd.add_argument(
            "--profile",
            action="store_true",
            help="profile the run and print a per-stage table "
            "(time, peak memory, throughput)",
        )
        add_live_flags(cmd)

    def add_ann_flags(
        cmd: argparse.ArgumentParser, from_state: bool = False
    ) -> None:
        # update/serve work on a saved state: there every flag defaults
        # to None, so an unset flag keeps the state's own ANN config.
        defaults = DarkVecConfig()
        for field, help_ in _ANN_FLAGS.items():
            if field == "ann_backend":
                kind = {"choices": tuple(BACKENDS)}
            else:
                kind = {"type": int}
            if from_state:
                help_ += "; default: the state's value"
            cmd.add_argument(
                "--" + field.replace("_", "-"),
                default=None if from_state else getattr(defaults, field),
                help=help_,
                **kind,
            )

    def add_pool_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--pool-backend",
            choices=("thread", "process"),
            default="thread",
            help="worker-pool backend: thread (exact, GIL-bound) or "
            "process (fork + shared memory, scales past the GIL)",
        )

    def add_scale_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--shard-size",
            type=int,
            default=0,
            help="stream corpus/vocab building in shards of at most this "
            "many senders (0 = unsharded; results are bit-identical)",
        )
        cmd.add_argument(
            "--mmap",
            dest="use_mmap",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="store stage artifacts in the raw mmap container and "
            "open them as memory-mapped views instead of heap copies",
        )
        add_pool_flag(cmd)

    simulate = sub.add_parser("simulate", help="generate a synthetic trace")
    simulate.add_argument("--out", required=True, type=Path)
    simulate.add_argument("--scale", type=float, default=0.05)
    simulate.add_argument("--days", type=float, default=10.0)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument(
        "--preset",
        choices=("default", "minimal", "worm", "quiet"),
        default="default",
        help="scenario preset (scale only applies to 'default')",
    )
    simulate.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON scenario document (overrides --preset/--scale)",
    )

    stats = sub.add_parser("stats", help="dataset statistics (Table 1)")
    stats.add_argument("--trace", required=True, type=Path)

    train = sub.add_parser("train", help="train the DarkVec embedding")
    train.add_argument("--trace", required=True, type=Path)
    train.add_argument("--out", required=True, type=Path)
    train.add_argument(
        "--service", choices=("single", "auto", "domain"), default="domain"
    )
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--vector-size", type=int, default=50)
    train.add_argument("--context", type=int, default=25)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help="training threads (1 = one inline thread, bit-reproducible; "
        "0 = all cores)",
    )
    add_telemetry_flags(train)

    def add_run_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--trace", required=True, type=Path)
        cmd.add_argument(
            "--cache-dir",
            required=True,
            type=Path,
            help="artifact-store directory (created if missing)",
        )
        cmd.add_argument(
            "--state",
            type=Path,
            default=None,
            help="fitted-state directory (default: <cache-dir>/state)",
        )
        cmd.add_argument(
            "--service", choices=("single", "auto", "domain"), default="domain"
        )
        cmd.add_argument("--epochs", type=int, default=10)
        cmd.add_argument("--vector-size", type=int, default=50)
        cmd.add_argument("--context", type=int, default=25)
        cmd.add_argument("--seed", type=int, default=1)
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="training threads (1 = one inline thread, bit-reproducible; "
            "0 = all cores)",
        )
        cmd.add_argument(
            "--out",
            type=Path,
            default=None,
            help="also export the embedding as IP-keyed vectors",
        )
        add_ann_flags(cmd)
        add_scale_flags(cmd)
        add_telemetry_flags(cmd)

    run = sub.add_parser(
        "run",
        help="staged pipeline with a content-addressed artifact cache",
    )
    add_run_args(run)

    resume = sub.add_parser(
        "resume",
        help="re-run the staged pipeline, reusing cached stage artifacts",
    )
    add_run_args(resume)

    update = sub.add_parser(
        "update",
        help="append a day of traffic to a fitted state and refit warm",
    )
    update.add_argument(
        "--trace", required=True, type=Path, help="the new day's trace CSV"
    )
    update.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory whose <cache-dir>/state holds the fitted state",
    )
    update.add_argument(
        "--state",
        type=Path,
        default=None,
        help="fitted-state directory (overrides --cache-dir/state)",
    )
    update.add_argument(
        "--window-days",
        type=float,
        default=None,
        help="rolling training window (default: the state's config)",
    )
    update.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="warm-refit epochs (default: the state's update_epochs)",
    )
    update.add_argument(
        "--health-gate",
        action="store_true",
        help="refuse to persist the update when a health monitor fails "
        "(the previous state stays live; exit code 1)",
    )
    update.add_argument(
        "--labels",
        type=Path,
        default=None,
        help="ground-truth labels CSV enabling the LOO-accuracy probe "
        "monitor",
    )
    update.add_argument(
        "--pool-backend",
        choices=("thread", "process"),
        default=None,
        help="override the state's worker-pool backend for this update",
    )
    update.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="override the state's corpus/vocab shard size",
    )
    add_ann_flags(update, from_state=True)
    add_telemetry_flags(update)

    evaluate = sub.add_parser("evaluate", help="leave-one-out 7-NN report")
    evaluate.add_argument("--trace", required=True, type=Path)
    evaluate.add_argument("--vectors", required=True, type=Path)
    evaluate.add_argument("--labels", required=True, type=Path)
    evaluate.add_argument("--k", type=int, default=7)
    evaluate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="k-NN search parallelism (results are identical)",
    )
    add_ann_flags(evaluate)
    add_pool_flag(evaluate)
    add_telemetry_flags(evaluate)

    cluster = sub.add_parser("cluster", help="Louvain cluster discovery")
    cluster.add_argument("--trace", required=True, type=Path)
    cluster.add_argument("--vectors", required=True, type=Path)
    cluster.add_argument("--k-prime", type=int, default=3)
    cluster.add_argument("--min-size", type=int, default=5)
    cluster.add_argument("--top", type=int, default=20)
    cluster.add_argument(
        "--workers",
        type=int,
        default=1,
        help="k-NN search parallelism (results are identical)",
    )
    add_ann_flags(cluster)
    add_pool_flag(cluster)
    add_telemetry_flags(cluster)

    profile = sub.add_parser(
        "profile",
        help="run the full pipeline on a synthetic scenario and print "
        "a per-stage time/memory/throughput table",
    )
    profile.add_argument(
        "--preset",
        choices=("small", "medium"),
        default="small",
        help="scenario size: small (~seconds) or medium (~a minute)",
    )
    profile.add_argument("--epochs", type=int, default=10)
    profile.add_argument("--workers", type=int, default=1)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the telemetry trace (spans + metrics) as NDJSON",
    )
    add_live_flags(profile)
    profile.set_defaults(profile=True)

    top = sub.add_parser(
        "top",
        help="live dashboard tailing a --telemetry-out stream from "
        "another repro process",
    )
    top.add_argument(
        "--stream",
        type=Path,
        required=True,
        help="NDJSON telemetry stream written by --telemetry-out",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between screen refreshes (default 1.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render the latest frame once and exit (no screen clearing)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="exit after rendering this many refreshes",
    )

    def add_registry_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help="artifact-store directory (registry at <cache-dir>/registry)",
        )
        cmd.add_argument(
            "--registry",
            type=Path,
            default=None,
            help="registry directory (overrides --cache-dir)",
        )

    runs = sub.add_parser("runs", help="inspect the run registry")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="one line per recorded run")
    add_registry_args(runs_list)
    runs_show = runs_sub.add_parser("show", help="full detail of one run")
    runs_show.add_argument("run_id")
    runs_show.add_argument(
        "--quantiles",
        action="store_true",
        help="print sketch quantiles (p50/p95/p99) recorded for the run",
    )
    add_registry_args(runs_show)
    runs_compare = runs_sub.add_parser(
        "compare",
        help="per-stage timing and metric deltas between two runs",
    )
    runs_compare.add_argument("run_a", nargs="?", default=None)
    runs_compare.add_argument("run_b", nargs="?", default=None)
    runs_compare.add_argument(
        "--last",
        action="store_true",
        help="compare the two most recent runs",
    )
    runs_compare.add_argument(
        "--max-time-regression",
        type=float,
        default=None,
        help="exit 1 when wall time regressed by more than this fraction "
        "(e.g. 0.5 = 50%%)",
    )
    runs_compare.add_argument(
        "--max-accuracy-drop",
        type=float,
        default=None,
        help="exit 1 when LOO accuracy dropped by more than this",
    )
    add_registry_args(runs_compare)

    health = sub.add_parser(
        "health", help="latest health verdicts + monitor sparklines"
    )
    add_registry_args(health)
    health.add_argument(
        "--width", type=int, default=48, help="sparkline width in cells"
    )

    serve = sub.add_parser(
        "serve",
        help="streaming daemon: ingest micro-batches, answer queries "
        "from an atomically-swapped model snapshot",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory whose <cache-dir>/state holds the fitted state",
    )
    serve.add_argument(
        "--state",
        type=Path,
        default=None,
        help="fitted-state directory (overrides --cache-dir/state)",
    )
    serve.add_argument(
        "--labels",
        type=Path,
        default=None,
        help="ground-truth labels CSV: labels classify answers and "
        "enables the LOO-accuracy health monitor on every update",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (lets scripts "
        "connect without racing an ephemeral port)",
    )
    serve.add_argument(
        "--health-gate",
        action="store_true",
        help="gate every ingested batch on the health verdict (a fail "
        "rolls the model back and keeps the previous snapshot live)",
    )
    serve.add_argument(
        "--knn-k", type=int, default=7, help="neighbours used by classify"
    )
    serve.add_argument(
        "--clusters",
        dest="with_clusters",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="cache a Louvain partition per snapshot so `members` "
        "queries are O(1) (--no-clusters cuts promotion cost)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="ingest queue capacity; producers block past this",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="shared secret required by mutating ops (ingest, shutdown); "
        "default leaves them open to any local process",
    )
    serve.add_argument(
        "--ingest-root",
        type=Path,
        default=None,
        help="confine path-based ingest to trace files under this "
        "directory (default: any server-readable path)",
    )
    serve.add_argument(
        "--save-state",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="persist the promoted model back to the state directory "
        "on clean shutdown",
    )
    add_ann_flags(serve, from_state=True)
    add_live_flags(serve)
    serve.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the telemetry trace (spans + metrics) as NDJSON "
        "after shutdown",
    )

    query = sub.add_parser(
        "query", help="query or feed a running `repro serve` daemon"
    )
    query.add_argument(
        "op",
        choices=(
            "ping",
            "status",
            "classify",
            "neighbors",
            "members",
            "ingest",
            "drain",
            "shutdown",
        ),
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument(
        "--port", type=int, default=None, help="daemon port"
    )
    query.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="read the daemon port from this file (waits for it)",
    )
    query.add_argument(
        "--ip",
        default=None,
        help="sender address for classify/neighbors/members; classify "
        "and neighbors accept a comma-separated list, answered by the "
        "daemon in one vectorized batch",
    )
    query.add_argument(
        "--k", type=int, default=None, help="neighbours (neighbors op)"
    )
    query.add_argument(
        "--sample",
        type=int,
        default=None,
        help="cluster members to list (members op)",
    )
    query.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="micro-batch trace CSV for the ingest op (the daemon "
        "reads the file, so the path must be visible to it)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds to wait (drain/shutdown ops)",
    )
    query.add_argument(
        "--token",
        default=None,
        help="shared secret for mutating ops on a --token'd daemon",
    )

    return parser


def _labels_path(trace_path: Path) -> Path:
    return trace_path.with_suffix(trace_path.suffix + ".labels.csv")


def _write_labels(path: Path, truth: GroundTruth) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src_ip", "label"])
        for ip, label in sorted(truth.by_ip.items()):
            writer.writerow([ip_to_str(ip), label])


def _read_labels(path: Path) -> GroundTruth:
    truth = GroundTruth()
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["src_ip", "label"]:
            raise ValueError(f"unexpected labels header: {header}")
        rows = [(ip_text, label) for ip_text, label in reader]
    ips = strs_to_ips([ip_text for ip_text, _ in rows])
    for ip, (_, label) in zip(ips.tolist(), rows):
        truth.add_class(label, np.array([ip]))
    return truth


def _cmd_simulate(args) -> int:
    if args.config is not None:
        from repro.trace.config import scenario_from_json

        scenario = scenario_from_json(args.config)
    elif args.preset == "default":
        scenario = default_scenario(
            scale=args.scale, days=args.days, seed=args.seed
        )
    else:
        from repro.trace.presets import PRESETS

        scenario = PRESETS[args.preset](days=args.days, seed=args.seed)
    bundle = generate_trace(scenario)
    write_trace_csv(bundle.trace, args.out)
    labels_file = _labels_path(args.out)
    _write_labels(labels_file, bundle.truth)
    print(
        f"wrote {bundle.trace.n_packets} packets from "
        f"{bundle.trace.n_senders} senders to {args.out}"
    )
    print(f"wrote ground-truth labels to {labels_file}")
    return 0


def _cmd_stats(args) -> int:
    trace = read_trace_csv(args.trace)
    for name, window in (("full trace", trace), ("last day", trace.last_days(1.0))):
        stats = dataset_stats(window)
        top = "; ".join(
            f"{port}/tcp {share:.2f}%" for port, share, _ in stats.top_tcp_ports
        )
        print(
            f"{name}: {stats.n_sources} sources, {stats.n_packets} packets, "
            f"{stats.n_ports} ports, top TCP: {top}"
        )
    print(f"active senders (>=10 packets): {len(trace.active_senders(10))}")
    return 0


def _print_progress(event) -> None:
    """Epoch-line progress printer used when ``--profile`` is active."""
    loss = f" loss {event.loss:.3f}" if event.loss is not None else ""
    print(
        f"epoch {event.epoch + 1}/{event.total_epochs}: "
        f"{event.pairs_processed:,} pairs, "
        f"{event.pairs_per_second:,.0f} pairs/s, "
        f"eta {event.eta_seconds:.1f}s{loss}"
    )


def _cmd_train(args) -> int:
    trace = read_trace_csv(args.trace)
    config = DarkVecConfig(
        service=args.service,
        epochs=args.epochs,
        vector_size=args.vector_size,
        context=args.context,
        seed=args.seed,
        workers=args.workers,
    )
    progress = _print_progress if args.profile else None
    darkvec = DarkVec(config).fit(trace, progress=progress)
    _export_ip_keyed(darkvec, args.out)
    print(
        f"trained on {darkvec.corpus.n_tokens} tokens; embedded "
        f"{len(darkvec.embedding)} senders -> {args.out}"
    )
    return 0


def _export_ip_keyed(darkvec, out: Path) -> None:
    """Save the fitted embedding keyed by IP address (portable)."""
    trace, embedding = darkvec.trace, darkvec.embedding
    ips = trace.sender_ips[embedding.tokens].astype(np.int64)
    order = np.argsort(ips)
    KeyedVectors(tokens=ips[order], vectors=embedding.vectors[order]).save(out)


def _cmd_run(args) -> int:
    """Staged pipeline against the artifact store (also `repro resume`)."""
    trace = read_trace_csv(args.trace)
    config = DarkVecConfig(
        service=args.service,
        epochs=args.epochs,
        vector_size=args.vector_size,
        context=args.context,
        seed=args.seed,
        workers=args.workers,
        **_given(args, _ANN_FLAGS),
        shard_size=args.shard_size,
        use_mmap=args.use_mmap,
        pool_backend=args.pool_backend,
        cache_dir=args.cache_dir,
    )
    progress = _print_progress if args.profile else None
    darkvec = DarkVec(config).fit(trace, progress=progress)
    rows = [
        [status.stage, status.status, f"{status.seconds:.2f}", status.fingerprint]
        for status in darkvec.stage_statuses
    ]
    print(format_table(["Stage", "Status", "Seconds", "Fingerprint"], rows))
    hits = sum(1 for s in darkvec.stage_statuses if s.status == "hit")
    print(
        f"{hits}/{len(darkvec.stage_statuses)} stages served from "
        f"{args.cache_dir}"
    )
    state_dir = args.state or args.cache_dir / "state"
    darkvec.save_state(state_dir)
    print(f"saved fitted state to {state_dir}")
    if darkvec.registry is not None:
        record = darkvec.registry.last()
        if record is not None:
            print(
                f"registry: recorded {record['run_id']} "
                f"({record['kind']}, code {record['code_version']})"
            )
    if args.out is not None:
        _export_ip_keyed(darkvec, args.out)
        print(f"exported {len(darkvec.embedding)} vectors to {args.out}")
    return 0


def _given(args, fields) -> dict:
    """The values ``args`` holds for ``fields``, skipping unset (None)."""
    return {
        field: getattr(args, field)
        for field in fields
        if getattr(args, field, None) is not None
    }


def _load_state(args) -> tuple[DarkVec, Path] | None:
    """The saved state update/serve run on, with the invocation's
    overrides applied; None, after an error message, without a state
    location."""
    if args.state is not None:
        state_dir = args.state
    elif args.cache_dir is not None:
        state_dir = args.cache_dir / "state"
    else:
        print(f"{args.command} needs --state or --cache-dir", file=sys.stderr)
        return None
    darkvec = DarkVec.load_state(state_dir)
    # Scale knobs may be overridden per invocation (e.g. run the nightly
    # update under the process backend on a bigger machine).
    overrides = _given(args, (*_ANN_FLAGS, "pool_backend", "shard_size"))
    if overrides:
        darkvec.config = replace(darkvec.config, **overrides)
    return darkvec, state_dir


def _cmd_update(args) -> int:
    """Warm incremental retrain of a previously saved fitted state."""
    loaded = _load_state(args)
    if loaded is None:
        return 2
    darkvec, state_dir = loaded
    new_trace = read_trace_csv(args.trace)
    truth = _read_labels(args.labels) if args.labels is not None else None
    darkvec.update(
        new_trace,
        window_days=args.window_days,
        epochs=args.epochs,
        health_gate=True if args.health_gate else None,
        truth=truth,
    )
    report = darkvec.last_update
    print(
        f"appended {report.new_packets} packets, evicted "
        f"{report.evicted_packets} outside the rolling window"
    )
    print(
        f"sentences: {report.sentences_retained} retained, "
        f"{report.sentences_rebuilt} rebuilt, {report.sentences_evicted} evicted"
    )
    print(
        f"warm-started {report.warm_tokens} senders, "
        f"{report.new_tokens} new; refit took {report.seconds:.2f}s"
    )
    health = darkvec.last_health
    if health is not None:
        print(_monitor_table(health.monitors, title=f"Health: {health.verdict}"))
        if not health.promoted:
            print(
                "health gate refused promotion; previous state left "
                f"unchanged at {state_dir}"
            )
            return 1
    darkvec.save_state(state_dir)
    print(f"saved updated state to {state_dir}")
    return 0


def _load_embedding_for(trace, path: Path) -> KeyedVectors:
    """Load an IP-keyed embedding and re-key it by sender index."""
    keyed = KeyedVectors.load(path)
    positions = np.searchsorted(trace.sender_ips, keyed.tokens)
    positions = np.clip(positions, 0, max(trace.n_senders - 1, 0))
    hit = trace.sender_ips[positions.astype(int)] == keyed.tokens
    senders = positions[hit].astype(np.int64)
    order = np.argsort(senders)
    return KeyedVectors(
        tokens=senders[order], vectors=keyed.vectors[hit][order]
    )


def _cmd_evaluate(args) -> int:
    from repro.parallel.pool import pool_backend

    trace = read_trace_csv(args.trace)
    truth = _read_labels(args.labels)
    embedding = _load_embedding_for(trace, args.vectors)
    labels = truth.labels_for(trace)[embedding.tokens]
    eval_senders = trace.last_days(1.0).observed_senders()
    rows = embedding.rows_of(eval_senders)
    rows = rows[rows >= 0]
    with pool_backend(args.pool_backend):
        predictions = leave_one_out_predictions(
            embedding.vectors,
            labels,
            rows,
            k=args.k,
            workers=args.workers,
            spec=DarkVecConfig(**_given(args, _ANN_FLAGS)).ann_spec(),
        )
    report = classification_report(labels[rows], predictions)
    print(report.to_text(title=f"{args.k}-NN leave-one-out report"))
    return 0


def _cmd_cluster(args) -> int:
    trace = read_trace_csv(args.trace)
    embedding = _load_embedding_for(trace, args.vectors)
    from repro.graph.knn_graph import build_knn_graph
    from repro.graph.louvain import louvain_communities
    from repro.graph.modularity import modularity
    from repro.parallel.pool import pool_backend

    with pool_backend(args.pool_backend):
        graph = build_knn_graph(
            embedding.vectors,
            k_prime=args.k_prime,
            workers=args.workers,
            spec=DarkVecConfig(**_given(args, _ANN_FLAGS)).ann_spec(),
        )
    csr = graph.symmetric_csr()
    communities = louvain_communities(csr, seed=0)
    score = modularity(csr, communities)
    silhouettes = cluster_silhouettes(embedding.vectors, communities)
    profiles = inspect_clusters(
        trace,
        embedding.tokens,
        communities,
        silhouettes=silhouettes,
        min_size=args.min_size,
    )
    print(
        f"{len(set(communities.tolist()))} clusters, modularity {score:.3f}"
    )
    rows = []
    for profile in profiles[: args.top]:
        top_ports = ", ".join(
            f"{name} ({share:.0%})" for name, share in profile.top_ports[:2]
        )
        rows.append(
            [
                f"C{profile.cluster_id}",
                profile.size,
                profile.n_ports,
                f"{profile.silhouette:.2f}",
                profile.n_subnets24,
                top_ports,
            ]
        )
    print(
        format_table(
            ["Cluster", "IPs", "Ports", "Sh", "/24s", "Top ports"], rows
        )
    )
    return 0


def _cmd_profile(args) -> int:
    """Full pipeline on a synthetic scenario, under full telemetry."""
    if args.preset == "medium":
        scenario = default_scenario(scale=0.05, days=10.0, seed=args.seed)
    else:
        scenario = default_scenario(scale=0.02, days=3.0, seed=args.seed)
    bundle = generate_trace(scenario)
    config = DarkVecConfig(epochs=args.epochs, workers=args.workers)
    darkvec = DarkVec(config).fit(bundle.trace, progress=_print_progress)
    report = darkvec.evaluate(bundle.truth, eval_days=None)
    result = darkvec.cluster()
    print(
        f"accuracy {report.accuracy:.3f}, {result.n_clusters} clusters, "
        f"modularity {result.modularity:.3f}"
    )
    return 0


def _registry_from(args):
    """Resolve the run registry from ``--registry`` / ``--cache-dir``."""
    from repro.obs.registry import RunRegistry

    if args.registry is not None:
        return RunRegistry(args.registry)
    if args.cache_dir is not None:
        return RunRegistry(Path(args.cache_dir) / "registry")
    print("need --registry or --cache-dir", file=sys.stderr)
    return None


def _monitor_table(monitors, title: str | None = None) -> str:
    """Render monitor results (dicts or MonitorResult) as a table."""
    rows = []
    for monitor in monitors:
        doc = monitor if isinstance(monitor, dict) else monitor.to_dict()
        value = doc["value"]
        arrow = "<=" if doc["direction"] == "low" else ">="
        rows.append(
            [
                doc["name"],
                "-" if value is None else f"{value:.4f}",
                doc["verdict"],
                f"{arrow}{doc['warn']:g}/{doc['fail']:g}",
                doc["detail"],
            ]
        )
    return format_table(
        ["Monitor", "Value", "Verdict", "Warn/Fail", "Detail"], rows, title=title
    )


def _run_verdict(record: dict) -> str:
    health = record.get("health") or {}
    return health.get("verdict", "-")


def _cmd_runs(args) -> int:
    """`repro runs list|show|compare` over the run registry."""
    import time as time_mod

    registry = _registry_from(args)
    if registry is None:
        return 2
    records = registry.runs()

    if args.runs_command == "list":
        rows = []
        for record in records:
            stages = record.get("stages") or []
            hits = sum(1 for s in stages if s.get("status") == "hit")
            accuracy = (record.get("extra") or {}).get("loo_accuracy")
            rows.append(
                [
                    record["run_id"],
                    record["kind"],
                    time_mod.strftime(
                        "%Y-%m-%d %H:%M:%S",
                        time_mod.localtime(record["unix_time"]),
                    ),
                    f"{record['wall_seconds']:.2f}",
                    f"{hits}/{len(stages)}" if stages else "-",
                    _run_verdict(record),
                    "-" if accuracy is None else f"{accuracy:.4f}",
                ]
            )
        print(
            format_table(
                ["Run", "Kind", "When", "Wall (s)", "Hits", "Health", "LOO acc"],
                rows,
            )
        )
        print(f"{len(records)} runs in {registry.path}")
        return 0

    if args.runs_command == "show":
        try:
            record = registry.get(args.run_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(
            f"{record['run_id']} ({record['kind']}) — "
            f"code {record['code_version']}, "
            f"config {record['config_fingerprint']}, "
            f"wall {record['wall_seconds']:.2f}s"
        )
        stages = record.get("stages") or []
        if stages:
            rows = [
                [
                    s["stage"],
                    s["status"],
                    f"{s['seconds']:.2f}",
                    s["fingerprint"],
                ]
                for s in stages
            ]
            print(
                format_table(
                    ["Stage", "Status", "Seconds", "Fingerprint"],
                    rows,
                    title="Stages",
                )
            )
        health = record.get("health")
        if health:
            print(
                _monitor_table(
                    health["monitors"], title=f"Health: {health['verdict']}"
                )
            )
        if getattr(args, "quantiles", False):
            sketches = (record.get("metrics") or {}).get("sketches") or {}
            if sketches:
                print(
                    obs.format_quantile_table(
                        sketches, title="Distribution quantiles (sketch)"
                    )
                )
            else:
                print(
                    "no sketch quantiles recorded for this run "
                    "(re-run with telemetry enabled, e.g. --metrics-out)"
                )
        extra = record.get("extra") or {}
        for key in sorted(extra):
            print(f"{key}: {extra[key]}")
        return 0

    # compare
    if args.last:
        if len(records) < 2:
            print("need at least two runs to compare", file=sys.stderr)
            return 2
        base, cand = records[-2], records[-1]
    else:
        if not args.run_a or not args.run_b:
            print(
                "compare needs two run ids (or --last)", file=sys.stderr
            )
            return 2
        try:
            base = registry.get(args.run_a)
            cand = registry.get(args.run_b)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    print(
        f"baseline {base['run_id']} ({base['kind']}, code "
        f"{base['code_version']}) vs candidate {cand['run_id']} "
        f"({cand['kind']}, code {cand['code_version']})"
    )
    wall_a, wall_b = base["wall_seconds"], cand["wall_seconds"]
    regression = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
    rows = [["wall", f"{wall_a:.2f}", f"{wall_b:.2f}", f"{regression:+.1%}"]]
    stages_a = {s["stage"]: s for s in base.get("stages") or []}
    stages_b = {s["stage"]: s for s in cand.get("stages") or []}
    for stage in [*stages_a, *(s for s in stages_b if s not in stages_a)]:
        sec_a = stages_a.get(stage, {}).get("seconds")
        sec_b = stages_b.get(stage, {}).get("seconds")
        delta = (
            "-"
            if sec_a is None or sec_b is None
            else f"{sec_b - sec_a:+.2f}s"
        )
        rows.append(
            [
                f"  {stage}",
                "-" if sec_a is None else f"{sec_a:.2f}",
                "-" if sec_b is None else f"{sec_b:.2f}",
                delta,
            ]
        )
    print(
        format_table(
            ["Stage", "Base (s)", "Cand (s)", "Delta"], rows, title="Timing"
        )
    )

    metric_rows = []
    for scope in ("counters", "gauges"):
        values_a = (base.get("metrics") or {}).get(scope, {})
        values_b = (cand.get("metrics") or {}).get(scope, {})
        for name in sorted(set(values_a) | set(values_b)):
            a, b = values_a.get(name), values_b.get(name)
            delta = "-" if a is None or b is None else f"{b - a:+g}"
            metric_rows.append(
                [
                    name,
                    "-" if a is None else f"{a:g}",
                    "-" if b is None else f"{b:g}",
                    delta,
                ]
            )
    extra_a, extra_b = base.get("extra") or {}, cand.get("extra") or {}
    for name in sorted(set(extra_a) | set(extra_b)):
        a, b = extra_a.get(name), extra_b.get(name)
        numeric = isinstance(a, (int, float)) and isinstance(b, (int, float))
        metric_rows.append(
            [
                name,
                "-" if a is None else f"{a:g}" if numeric else str(a),
                "-" if b is None else f"{b:g}" if numeric else str(b),
                f"{b - a:+g}" if numeric else "-",
            ]
        )
    if metric_rows:
        print(
            format_table(
                ["Metric", "Base", "Cand", "Delta"],
                metric_rows,
                title="Metrics",
            )
        )

    code = 0
    if args.max_time_regression is not None and regression > args.max_time_regression:
        print(
            f"FAIL: wall time regressed {regression:+.1%} "
            f"(limit {args.max_time_regression:.1%})",
            file=sys.stderr,
        )
        code = 1
    acc_a, acc_b = extra_a.get("loo_accuracy"), extra_b.get("loo_accuracy")
    if (
        args.max_accuracy_drop is not None
        and acc_a is not None
        and acc_b is not None
        and acc_a - acc_b > args.max_accuracy_drop
    ):
        print(
            f"FAIL: LOO accuracy dropped {acc_a - acc_b:.4f} "
            f"(limit {args.max_accuracy_drop})",
            file=sys.stderr,
        )
        code = 1
    return code


def _cmd_health(args) -> int:
    """`repro health`: latest verdicts plus per-monitor sparklines."""
    from repro.utils.ascii_plot import sparkline

    registry = _registry_from(args)
    if registry is None:
        return 2
    records = registry.runs()
    latest = next(
        (r for r in reversed(records) if r.get("health")), None
    )
    if latest is None:
        print(f"no health records in {registry.path}")
        return 0
    health = latest["health"]
    print(
        f"latest: {latest['run_id']} ({latest['kind']}) — "
        f"verdict {health['verdict']}, "
        f"{'promoted' if health.get('promoted', True) else 'NOT promoted'}"
    )
    print(_monitor_table(health["monitors"]))
    names = []
    for record in records:
        for monitor in (record.get("health") or {}).get("monitors", []):
            if monitor["name"] not in names:
                names.append(monitor["name"])
    rows = []
    for name in names:
        series = registry.monitor_series(name)
        if not series:
            continue
        rows.append(
            [
                name,
                sparkline(series, width=args.width),
                f"{series[-1]:.4f}",
            ]
        )
    walls = [r["wall_seconds"] for r in records]
    if walls:
        rows.append(
            ["wall_seconds", sparkline(walls, width=args.width), f"{walls[-1]:.2f}"]
        )
    if rows:
        print(
            format_table(
                ["Series", "History", "Latest"], rows, title="Monitor history"
            )
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Tail a ``--telemetry-out`` stream and render a live dashboard."""
    import time as time_mod

    from repro.io.ndjson import tail_ndjson
    from repro.obs.live import render_frame

    stream: Path = args.stream
    offset = 0
    frame = None
    prev = None
    rss_history: list[float] = []
    rendered = 0
    clear = "\x1b[2J\x1b[H"  # ANSI: clear screen, cursor home
    try:
        while True:
            if stream.exists():
                frames, offset = tail_ndjson(stream, offset)
                for new in frames:
                    if frame is not None:
                        prev = frame
                    frame = new
                    rss = (new.get("proc") or {}).get("rss")
                    if rss:
                        rss_history.append(float(rss))
            if args.once:
                if frame is None:
                    print(f"no frames in {stream}", file=sys.stderr)
                    return 2
                print(render_frame(frame, prev, rss_history))
                return 0
            if frame is not None:
                sys.stdout.write(clear + render_frame(frame, prev, rss_history))
                sys.stdout.write("\n")
                sys.stdout.flush()
                rendered += 1
                if args.frames is not None and rendered >= args.frames:
                    return 0
            elif not stream.exists():
                sys.stdout.write(f"waiting for {stream} ...\r")
                sys.stdout.flush()
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_serve(args) -> int:
    """`repro serve`: run the streaming daemon until a shutdown op."""
    from repro.serve import DarkVecService, ServeServer

    loaded = _load_state(args)
    if loaded is None:
        return 2
    darkvec, state_dir = loaded
    truth = _read_labels(args.labels) if args.labels is not None else None
    service = DarkVecService(
        darkvec,
        truth=truth,
        health_gate=True if args.health_gate else None,
        knn_k=args.knn_k,
        with_clusters=args.with_clusters,
        max_pending=args.max_pending,
    )
    server = ServeServer(
        service,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        token=args.token,
        ingest_root=args.ingest_root,
    )
    print(
        f"serving model v0 ({len(service.snapshot)} senders) on "
        f"{args.host}:{server.port} — stop with `repro query shutdown "
        f"--port {server.port}`",
        flush=True,
    )
    try:
        server.serve_until_shutdown()
    except KeyboardInterrupt:
        print("interrupted; draining writer", flush=True)
        service.close()
        server.server_close()
    status = service.status()
    print(
        f"served model v{status['version']}: {status['batches']} batches, "
        f"{status['promotions']} promotions, {status['rollbacks']} rollbacks"
    )
    if args.save_state and service.promotions > 0:
        darkvec.save_state(state_dir)
        print(f"saved promoted state to {state_dir}")
    return 0


def _cmd_query(args) -> int:
    """`repro query`: one JSON round trip against a serve daemon."""
    import json

    from repro.serve import ServeClient

    needs_ip = {"classify", "neighbors", "members"}
    if args.op in needs_ip and args.ip is None:
        print(f"{args.op} needs --ip", file=sys.stderr)
        return 2
    if args.port_file is not None:
        client = ServeClient.from_port_file(
            args.port_file, host=args.host, token=args.token
        )
    elif args.port is not None:
        client = ServeClient(host=args.host, port=args.port, token=args.token)
    else:
        print("query needs --port or --port-file", file=sys.stderr)
        return 2
    with client:
        if args.op == "ingest":
            if args.trace is None:
                print("ingest needs --trace", file=sys.stderr)
                return 2
            response = client.ingest_path(args.trace.resolve())
        elif args.op in needs_ip:
            ip = args.ip
            if args.op in ("classify", "neighbors") and "," in ip:
                ip = [part.strip() for part in ip.split(",") if part.strip()]
            fields = {"ip": ip}
            if args.op == "neighbors":
                fields["k"] = args.k
            if args.op == "members":
                fields["sample"] = args.sample
            response = client.call(args.op, **fields)
        elif args.op in ("drain", "shutdown"):
            response = client.call(args.op, timeout=args.timeout)
        else:
            response = client.call(args.op)
    response.pop("ok", None)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "run": _cmd_run,
    "resume": _cmd_run,
    "update": _cmd_update,
    "evaluate": _cmd_evaluate,
    "cluster": _cmd_cluster,
    "profile": _cmd_profile,
    "top": _cmd_top,
    "runs": _cmd_runs,
    "health": _cmd_health,
    "serve": _cmd_serve,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--metrics-out``, ``--profile`` or ``--telemetry-out`` is
    given, the command runs inside a telemetry session; afterwards the
    trace is exported as NDJSON and/or the per-stage table is printed.
    ``--telemetry-out`` additionally runs a background flusher that
    streams live frames while the command executes, so a second
    process can watch with ``repro top``.  Without any of the flags
    the no-op recorder stays installed and nothing is measured.
    """
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    metrics_out = getattr(args, "metrics_out", None)
    profiling = getattr(args, "profile", False)
    telemetry_out = getattr(args, "telemetry_out", None)
    if metrics_out is None and not profiling and telemetry_out is None:
        return handler(args)
    telemetry = obs.Telemetry(profile_memory=profiling)
    sink = None
    if telemetry_out is not None:
        sink = obs.TelemetrySink(
            telemetry,
            telemetry_out,
            prom_path=getattr(args, "prom_out", None),
            interval=getattr(args, "telemetry_interval", 1.0),
        )
    with obs.session(telemetry):
        if sink is not None:
            sink.start()
        try:
            code = handler(args)
        finally:
            if sink is not None:
                sink.stop()
    if profiling:
        print()
        print(obs.format_stage_table(telemetry, title="Pipeline stages"))
        print()
        print(obs.format_counters_table(telemetry))
        sketches = telemetry.snapshot().get("sketches") or {}
        if sketches:
            print()
            print(
                obs.format_quantile_table(
                    sketches, title="Distribution quantiles (sketch)"
                )
            )
    if metrics_out is not None:
        obs.write_metrics_ndjson(telemetry, metrics_out)
        print(f"wrote telemetry NDJSON to {metrics_out}")
    if telemetry_out is not None:
        print(f"streamed live telemetry to {telemetry_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
