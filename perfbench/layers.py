"""Metric catalogue and the per-layer numbers computed from spans.

:data:`END_TO_END` and :data:`PER_LAYER` are the benchmark's metric
lists; ``BENCHMARK.json`` repeats them and a test keeps the two in
step.  Every workload emits every metric of the list its mode asks
for.  A per-layer metric of a layer the workload does not run is 0.
:data:`STUDY` holds the per-layer figures only the study workloads
move; traced runs print them in the detail line.
"""

from __future__ import annotations

import os
import statistics

from tracing import outermost, self_times

#: (name, unit, better, bound) — what a user of the system sees.  The
#: time bounds are 0.25, the largest a bound may be: on the 2-core
#: virtual machine this was built on, a fixed CPU loop alone spreads
#: by 0.15-0.25 of its median from run to run.  Fit time, query p99,
#: LOO time, restart time and batch throughput are not here (see
#: README.md): over ten equal runs they spread more than any bound
#: allows on at least one workload.  They are per-layer metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.15),
]

READ_OPS = ("classify", "classify_batch", "neighbors", "members")
SERVE_OPS = READ_OPS + ("ingest",)
LAYERS = (
    "trace", "services", "corpus", "w2v", "parallel", "ann", "knn",
    "graph", "store", "core", "serve",
)

#: (name, unit, better) — one layer each; no bound.  Only layers that
#: ``fit_paper`` or ``serve_read`` run: a figure of the update chain
#: would read 0 on both, so those are in :data:`STUDY` instead.
PER_LAYER = (
    [
        ("trace.load_s", "s", "lower"),
        ("services.resolve_s", "s", "lower"),
        ("corpus.build_s", "s", "lower"),
        ("corpus.tokens", "count", "higher"),
        ("w2v.vocab_s", "s", "lower"),
        ("w2v.vocab_merges", "count", "lower"),
        ("w2v.train_s", "s", "lower"),
        ("w2v.pairs_per_s", "1/s", "higher"),
        ("parallel.pool_start_s", "s", "lower"),
        ("parallel.map_s", "s", "lower"),
        ("parallel.tasks", "count", "lower"),
        ("ann.build_s", "s", "lower"),
        ("ann.search_p50_ms", "ms", "lower"),
        ("ann.search_p99_ms", "ms", "lower"),
        ("ann.search_rows", "count", "lower"),
        ("knn.predict_s", "s", "lower"),
        ("knn.vote_s", "s", "lower"),
        ("knn.searches_per_query", "ratio", "lower"),
        ("knn.loo_s", "s", "lower"),
        ("knn.loo_accuracy", "fraction", "higher"),
        ("graph.knn_graph_s", "s", "lower"),
        ("graph.louvain_s", "s", "lower"),
        ("graph.cluster_s", "s", "lower"),
        ("store.save_state_s", "s", "lower"),
        ("store.state_mb", "MB", "lower"),
        ("store.load_state_s", "s", "lower"),
        ("core.fit_s", "s", "lower"),
        ("core.fit_self_s", "s", "lower"),
    ]
    + [
        (f"serve.dispatch.{op}.{q}_ms", "ms", "lower")
        for op in READ_OPS
        for q in ("p50", "p99")
    ]
    + [
        ("serve.query_p50_ms", "ms", "lower"),
        ("serve.query_p99_ms", "ms", "lower"),
        ("serve.restart_s", "s", "lower"),
        ("serve.batch_classify_sps", "1/s", "higher"),
        ("serve.wait_p50_ms", "ms", "lower"),
        ("serve.wait_p99_ms", "ms", "lower"),
        ("serve.lookup_s", "s", "lower"),
        ("serve.snapshot_s", "s", "lower"),
        ("serve.capacity_qps", "1/s", "higher"),
        ("serve.generator_late_p99_ms", "ms", "lower"),
    ]
    + [
        (f"mem.rss_after_{stage}_mb", "MB", "lower")
        for stage in ("corpus", "vocab", "train", "ann")
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("obs.tracing_overhead_pct", "%", "lower")]
)

#: Per-layer figures of the writer path (ingest, update, promotion),
#: of the artifact store and of IVF-PQ recall.  Only the study
#: workloads (``serve_mixed``, ``fit_scale``) run them; a traced run
#: prints them in its detail line.
STUDY = [
    ("ann.recall", "fraction", "higher"),
    ("trace.merge_s", "s", "lower"),
    ("corpus.rebuild_s", "s", "lower"),
    ("corpus.sentences_rebuilt", "count", "lower"),
    ("w2v.refit_s", "s", "lower"),
    ("ann.update_s", "s", "lower"),
    ("store.artifact_s", "s", "lower"),
    ("core.update_s", "s", "lower"),
    ("core.update_self_s", "s", "lower"),
    ("serve.dispatch.ingest.p50_ms", "ms", "lower"),
    ("serve.dispatch.ingest.p99_ms", "ms", "lower"),
    ("serve.ingest_wait_s", "s", "lower"),
    ("serve.ingest_to_queryable_s", "s", "lower"),
    ("serve.promotions", "count", "higher"),
    ("serve.rollbacks", "count", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + STUDY}


def rss_mb() -> float:
    """Current resident set size of this process in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _note_rss(result, args, kwargs):
    return {"rss_mb": rss_mb()}


def _note_corpus(result, args, kwargs):
    return {"tokens": int(getattr(result, "n_tokens", 0)), "rss_mb": rss_mb()}


def _note_fit(result, args, kwargs):
    from repro.w2v.skipgram import expected_pair_count
    import numpy as np

    model, sentences = args[0], args[1]
    lengths = np.array([len(s) for s in sentences if len(s) >= 2], dtype=np.int64)
    pairs = expected_pair_count(lengths, model.context) * model.epochs
    return {
        "pairs": float(pairs),
        "warm": kwargs.get("init") is not None,
        "rss_mb": rss_mb(),
    }


def _note_items(result, args, kwargs):
    items = args[2] if len(args) > 2 else kwargs.get("items")
    return {"tasks": len(items) if hasattr(items, "__len__") else 0}


def _note_search(result, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs.get("query_rows")
    return {"rows": int(len(rows))}


def _note_update(result, args, kwargs):
    report = getattr(args[0], "last_update", None)
    return {"rebuilt": int(report.sentences_rebuilt) if report else 0}


def _note_dispatch(result, args, kwargs):
    request = args[1]
    op = request.get("op")
    if op == "classify" and isinstance(request.get("ip"), list):
        op = "classify_batch"
    return {"op": op}


NOTES = {
    "corpus.build": _note_corpus,
    "corpus.build_sharded": _note_corpus,
    "w2v.vocab_streaming": _note_rss,
    "w2v.vocab_restrict": _note_rss,
    "w2v.fit": _note_fit,
    "parallel.map": _note_items,
    "ann.build": _note_rss,
    "ann.search": _note_search,
    "core.update": _note_update,
    "serve.dispatch": _note_dispatch,
}

VOCAB = {"w2v.vocab_build", "w2v.vocab_merge", "w2v.vocab_restrict", "w2v.vocab_streaming"}
CORPUS = {"corpus.build", "corpus.build_sharded"}


def _ancestors(spans_by_id: dict, span) -> list[str]:
    names = []
    parent = span[4]
    while parent >= 0 and parent in spans_by_id:
        names.append(spans_by_id[parent][1])
        parent = spans_by_id[parent][4]
    return names


def layer_metrics(spans: list[tuple], side: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` and :data:`STUDY` value of one traced run.

    ``spans`` come from the system processes of the run; ``side``
    holds what the benchmark measured itself (client latencies by
    rid, daemon status, ingest chains, workload headline figures).
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    in_update = {
        span[0] for span in spans if "core.update" in _ancestors(by_id, span)
    }

    def dur(span) -> float:
        return span[3] - span[2]

    def total(names: set[str], where=lambda span: True) -> float:
        return sum(dur(s) for s in outermost(spans, names) if where(s))

    def named(name: str) -> list[tuple]:
        """Spans of ``name`` in start order (spans are logged at close)."""
        return sorted((span for span in spans if span[1] == name), key=lambda s: s[2])

    def note(span, key, default=0):
        return (span[7] or {}).get(key, default)

    def fit_side(span) -> bool:
        return span[0] not in in_update

    m: dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER + STUDY}
    m["trace.load_s"] = total({"trace.load"})
    m["trace.merge_s"] = total({"trace.merge"})
    m["services.resolve_s"] = total({"services.resolve"})
    corpus = outermost(spans, CORPUS)
    m["corpus.build_s"] = sum(dur(s) for s in corpus if fit_side(s))
    m["corpus.tokens"] = sum(note(s, "tokens") for s in corpus if fit_side(s))
    m["corpus.rebuild_s"] = sum(dur(s) for s in corpus if not fit_side(s))
    updates = named("core.update")
    m["corpus.sentences_rebuilt"] = sum(note(s, "rebuilt") for s in updates)
    m["w2v.vocab_s"] = total(VOCAB, fit_side)
    m["w2v.vocab_merges"] = len(named("w2v.vocab_merge"))
    fits = named("w2v.fit")
    cold = [s for s in fits if not note(s, "warm", False)]
    m["w2v.train_s"] = sum(dur(s) for s in cold)
    pairs = sum(note(s, "pairs") for s in cold)
    m["w2v.pairs_per_s"] = pairs / m["w2v.train_s"] if m["w2v.train_s"] else 0.0
    m["w2v.refit_s"] = sum(dur(s) for s in fits if note(s, "warm", False))
    m["parallel.pool_start_s"] = total({"parallel.pool_init"})
    m["parallel.map_s"] = total({"parallel.map"})
    m["parallel.tasks"] = sum(note(s, "tasks") for s in named("parallel.map")) + len(
        named("parallel.submit")
    )
    m["ann.build_s"] = total({"ann.build"})
    searches = named("ann.search")
    search_ms = [dur(s) * 1e3 for s in searches]
    m["ann.search_p50_ms"] = percentile(search_ms, 0.5)
    m["ann.search_p99_ms"] = percentile(search_ms, 0.99)
    m["ann.search_rows"] = sum(note(s, "rows") for s in searches)
    m["ann.update_s"] = total({"ann.update"})
    m["knn.predict_s"] = total({"knn.predict"})
    m["knn.vote_s"] = total({"knn.vote"})
    m["knn.loo_s"] = total({"knn.loo"})
    m["graph.knn_graph_s"] = total({"graph.knn_graph"})
    m["graph.louvain_s"] = total({"graph.louvain"})
    m["store.save_state_s"] = total({"store.save_state"})
    m["store.load_state_s"] = total({"store.load_state"})
    m["store.artifact_s"] = total({"store.artifact"})
    if updates:
        m["core.update_s"] = statistics.median(dur(s) for s in updates)
        m["core.update_self_s"] = statistics.median(selfs[s[0]] for s in updates)
    m["core.fit_s"] = total({"core.fit"})
    m["core.fit_self_s"] = sum(selfs[s[0]] for s in named("core.fit"))

    dispatches = named("serve.dispatch")
    by_op: dict[str, list[float]] = {}
    dispatch_by_rid = {}
    for span in dispatches:
        by_op.setdefault(note(span, "op", ""), []).append(dur(span) * 1e3)
        if span[6] is not None:
            dispatch_by_rid[span[6]] = span
    for op in SERVE_OPS:
        m[f"serve.dispatch.{op}.p50_ms"] = percentile(by_op.get(op, []), 0.5)
        m[f"serve.dispatch.{op}.p99_ms"] = percentile(by_op.get(op, []), 0.99)
    classify_rids = {
        span[6]
        for span in dispatches
        if note(span, "op", "") == "classify" and span[6] is not None
    }
    if classify_rids:
        per_query = sum(1 for s in searches if s[6] in classify_rids)
        m["knn.searches_per_query"] = per_query / len(classify_rids)
    waits = [
        observed_ms - dur(dispatch_by_rid[rid]) * 1e3
        for rid, observed_ms in side.get("observed_ms", {}).items()
        if rid in dispatch_by_rid
    ]
    m["serve.wait_p50_ms"] = percentile(waits, 0.5)
    m["serve.wait_p99_ms"] = percentile(waits, 0.99)
    m["serve.lookup_s"] = total({"serve.lookup"})
    snapshots = named("serve.snapshot")
    if snapshots:
        m["serve.snapshot_s"] = statistics.median(dur(s) for s in snapshots)
    # The ingest chain: queue wait is what the update and the snapshot
    # that follows it do not explain.  Initial snapshots (at launch)
    # have no update before them and are skipped.
    promo_snapshots = [s for s in snapshots if s[2] > min(
        (u[2] for u in updates), default=float("inf")
    )]
    chains = side.get("ingest_to_queryable_s", [])
    if chains:
        m["serve.ingest_to_queryable_s"] = statistics.median(chains)
        waits_s = [
            chain - dur(u) - dur(p)
            for chain, u, p in zip(chains, updates, promo_snapshots)
        ]
        if waits_s:
            m["serve.ingest_wait_s"] = statistics.median(waits_s)

    stages = {
        "corpus": [s for s in corpus if fit_side(s)],
        "vocab": [s for s in outermost(spans, VOCAB) if fit_side(s)],
        "train": cold,
        "ann": named("ann.build"),
    }
    for stage, group in stages.items():
        with_rss = [s for s in group if note(s, "rss_mb", None) is not None]
        if with_rss:
            m[f"mem.rss_after_{stage}_mb"] = note(with_rss[0], "rss_mb")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            selfs[span[0]] for span in spans if span[1].split(".")[0] == layer
        )
    # Figures the benchmark measured itself under a per-layer name.
    m.update({key: float(value) for key, value in side.items() if key in m})
    return m
