"""ANN benchmark: exact vs IVF vs HNSW speedup and recall.

Two experiments, one JSON:

1. **Fidelity** — fit DarkVec on a simulated scenario, then run the
   leave-one-out evaluation through all three backends.  Reports the
   exact, IVF and HNSW accuracies and their deltas (the acceptance bar
   for an approximate backend is ``|delta| <= 0.01``).
2. **Scaling sweep** — tile + jitter the trained embedding up to
   larger corpus sizes (the geometry stays darknet-like: the same
   cluster structure, more members per cluster) and, at each size,
   time the exact search once, the IVF search at several ``nprobe``
   values and the HNSW search at several ``ef_search`` values,
   measuring recall@k of every setting against the exact result.
   Build times are reported separately: in the pipeline the index is a
   cached artifact, so search time is what recurring consumers pay.
   Each size also records the matched-recall comparison the HNSW
   acceptance bar uses: at the default ``ef_search``, the best IVF
   speedup among settings with recall at least HNSW's.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_ann.py

``--smoke`` shrinks everything for CI and asserts recall >= 0.9 at the
default operating points (IVF nprobe = 8, HNSW default ``ef_search``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.ann import AnnSpec, ExactIndex, HNSWIndex, IVFIndex
from repro.core import DarkVec, DarkVecConfig
from repro.knn.loo import leave_one_out_predictions
from repro.trace.generator import generate_trace
from repro.trace.scenario import default_scenario
from repro.w2v.mathutils import unit_rows

K = 7
NPROBES = (1, 2, 4, 8, 16)
EF_SEARCHES = (8, 16, 24, 32, 64)
DEFAULT_EF = AnnSpec().hnsw_ef_search


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--days", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--model-seed", type=int, default=1)
    parser.add_argument(
        "--sizes",
        type=str,
        default="8192,32768,131072",
        help="comma list of corpus sizes for the scaling sweep",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=2048,
        help="timed queries per size (sampled without replacement)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny sweep, asserts recall >= 0.9 at nprobe=8",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_ann.json"))
    return parser


def tiled_units(base: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Grow ``base`` to ``n`` rows by tiling with small angular jitter.

    Replicas stay close to their source point (jitter sigma well under
    typical cluster radii), so the grown corpus keeps the embedding's
    cluster geometry while making every neighbourhood denser — the
    regime IVF is built for.
    """
    rng = np.random.default_rng(seed)
    reps = int(np.ceil(n / len(base)))
    grown = np.tile(base, (reps, 1))[:n]
    grown = grown + 0.03 * rng.standard_normal(grown.shape)
    return unit_rows(grown)


def fidelity_experiment(args) -> dict:
    """LOO accuracy through the exact and IVF backends."""
    scenario = default_scenario(
        scale=args.scale, days=args.days, seed=args.seed
    )
    bundle = generate_trace(scenario)
    config = DarkVecConfig(
        service="domain", epochs=args.epochs, seed=args.model_seed
    )
    darkvec = DarkVec(config).fit(bundle.trace)
    embedding = darkvec.embedding
    labels = bundle.truth.labels_for(bundle.trace)[embedding.tokens]
    rows = np.arange(len(embedding))

    t0 = time.perf_counter()
    exact_pred = leave_one_out_predictions(
        embedding.vectors, labels, rows, k=K
    )
    exact_seconds = time.perf_counter() - t0

    ivf_spec = AnnSpec(backend="ivf", nprobe=8, seed=args.model_seed)
    t0 = time.perf_counter()
    ivf_pred = leave_one_out_predictions(
        embedding.vectors, labels, rows, k=K, spec=ivf_spec
    )
    ivf_seconds = time.perf_counter() - t0

    hnsw_spec = AnnSpec(backend="hnsw", seed=args.model_seed)
    t0 = time.perf_counter()
    hnsw_pred = leave_one_out_predictions(
        embedding.vectors, labels, rows, k=K, spec=hnsw_spec
    )
    hnsw_seconds = time.perf_counter() - t0

    known = labels != "Unknown"
    exact_acc = float(np.mean(exact_pred[known] == labels[known]))
    ivf_acc = float(np.mean(ivf_pred[known] == labels[known]))
    hnsw_acc = float(np.mean(hnsw_pred[known] == labels[known]))
    return {
        "n_senders": int(len(embedding)),
        "k": K,
        "exact_accuracy": round(exact_acc, 4),
        "ivf_accuracy": round(ivf_acc, 4),
        "hnsw_accuracy": round(hnsw_acc, 4),
        "accuracy_delta": round(ivf_acc - exact_acc, 4),
        "hnsw_accuracy_delta": round(hnsw_acc - exact_acc, 4),
        "prediction_agreement": round(float(np.mean(exact_pred == ivf_pred)), 4),
        "hnsw_prediction_agreement": round(
            float(np.mean(exact_pred == hnsw_pred)), 4
        ),
        "exact_loo_seconds": round(exact_seconds, 3),
        "ivf_loo_seconds": round(ivf_seconds, 3),
        "hnsw_loo_seconds": round(hnsw_seconds, 3),
        "embedding": embedding,
    }


def sweep_size(units: np.ndarray, n_queries: int, seed: int) -> dict:
    """Time exact vs IVF vs HNSW for one corpus size."""
    n = len(units)
    rng = np.random.default_rng(seed)
    queries = np.sort(rng.choice(n, min(n_queries, n), replace=False))

    exact = ExactIndex(units)
    exact_seconds = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        exact_nb, _ = exact.search(queries, K)
        exact_seconds = min(exact_seconds, time.perf_counter() - t0)

    def timed_recall(index) -> tuple[float, float]:
        # best of two timed passes: one stray scheduler hiccup on a
        # multi-second sweep otherwise reorders whole settings
        seconds = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            nb, _ = index.search(queries, K)
            seconds = min(seconds, time.perf_counter() - t0)
        recall = float(
            np.mean(
                [
                    len(np.intersect1d(nb[i], exact_nb[i])) / K
                    for i in range(len(queries))
                ]
            )
        )
        return seconds, recall

    def setting(knob: str, value: int, seconds: float, recall: float) -> dict:
        return {
            knob: value,
            "search_seconds": round(seconds, 4),
            "speedup_vs_exact": round(exact_seconds / max(seconds, 1e-9), 2),
            "recall_at_k": round(recall, 4),
        }

    t0 = time.perf_counter()
    # recall_sample=0: recall is measured here against exact_nb, so
    # the timed path carries no audit overhead.
    ivf_spec = AnnSpec(backend="ivf", nprobe=8, recall_sample=0, seed=seed)
    ivf = IVFIndex.build(units, ivf_spec)
    ivf_build_seconds = time.perf_counter() - t0

    ivf_settings = []
    for nprobe in NPROBES:
        if nprobe > ivf.nlist:
            continue
        probed = IVFIndex(
            units,
            AnnSpec(backend="ivf", nprobe=nprobe, recall_sample=0, seed=seed),
            ivf.centroids,
            ivf.assign,
            lists32=ivf.lists32,
        )
        seconds, recall = timed_recall(probed)
        ivf_settings.append(setting("nprobe", nprobe, seconds, recall))

    t0 = time.perf_counter()
    hnsw_spec = AnnSpec(backend="hnsw", recall_sample=0, seed=seed)
    hnsw = HNSWIndex.build(units, hnsw_spec)
    hnsw_build_seconds = time.perf_counter() - t0

    hnsw_settings = []
    for ef in EF_SEARCHES:
        # Re-wrap the one built graph with the swept query knob; the
        # graph itself only depends on m/ef_build.
        probed = HNSWIndex(
            units,
            AnnSpec(
                backend="hnsw", recall_sample=0, seed=seed, hnsw_ef_search=ef
            ),
            hnsw.node_row,
            hnsw.levels,
            hnsw.links0,
            hnsw.upper_nodes,
            hnsw.upper_links,
            hnsw.entry,
            units32=hnsw.units32,
        )
        seconds, recall = timed_recall(probed)
        entry = setting("ef_search", ef, seconds, recall)
        entry["default"] = ef == DEFAULT_EF
        hnsw_settings.append(entry)

    # The HNSW acceptance bar: at the default ef_search, does HNSW's
    # speedup beat the best IVF speedup at matched (>=) recall?
    at_default = next(s for s in hnsw_settings if s["default"])
    matched = [
        s
        for s in ivf_settings
        if s["recall_at_k"] >= at_default["recall_at_k"]
    ]
    ivf_matched = max(
        (s["speedup_vs_exact"] for s in matched), default=None
    )
    return {
        "n": n,
        "queries": int(len(queries)),
        "exact_search_seconds": round(exact_seconds, 4),
        "ivf": {
            "nlist": int(ivf.nlist),
            "build_seconds": round(ivf_build_seconds, 4),
            "settings": ivf_settings,
        },
        "hnsw": {
            "m": hnsw_spec.hnsw_m,
            "ef_build": hnsw_spec.hnsw_ef_build,
            "build_seconds": round(hnsw_build_seconds, 4),
            "settings": hnsw_settings,
        },
        "matched_recall_at_default_hnsw": {
            "hnsw_recall": at_default["recall_at_k"],
            "hnsw_speedup": at_default["speedup_vs_exact"],
            "ivf_speedup_at_matched_recall": ivf_matched,
            "hnsw_beats_ivf": (
                ivf_matched is None
                or at_default["speedup_vs_exact"] > ivf_matched
            ),
        },
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.smoke:
        args.scale = 0.05
        args.days = 4.0
        args.epochs = 3
        args.sizes = "4096,16384"
        args.queries = 512

    print("== fidelity: exact vs IVF vs HNSW leave-one-out ==")
    fidelity = fidelity_experiment(args)
    embedding = fidelity.pop("embedding")
    print(
        f"  exact {fidelity['exact_accuracy']:.4f}  "
        f"ivf {fidelity['ivf_accuracy']:.4f} "
        f"(delta {fidelity['accuracy_delta']:+.4f})  "
        f"hnsw {fidelity['hnsw_accuracy']:.4f} "
        f"(delta {fidelity['hnsw_accuracy_delta']:+.4f})"
    )

    base_units = unit_rows(embedding.vectors)
    sweep = []
    for n in [int(s) for s in args.sizes.split(",")]:
        result = sweep_size(
            tiled_units(base_units, n, args.seed), args.queries, args.seed
        )
        sweep.append(result)
        print(f"== N={result['n']} ==")
        print(f"  exact search {result['exact_search_seconds']:.3f}s")
        print(
            f"  ivf (nlist={result['ivf']['nlist']}, build "
            f"{result['ivf']['build_seconds']:.1f}s)"
        )
        for s in result["ivf"]["settings"]:
            print(
                f"    nprobe={s['nprobe']:>2}  {s['search_seconds']:.3f}s  "
                f"{s['speedup_vs_exact']:>6.1f}x  recall "
                f"{s['recall_at_k']:.3f}"
            )
        print(
            f"  hnsw (m={result['hnsw']['m']}, build "
            f"{result['hnsw']['build_seconds']:.1f}s)"
        )
        for s in result["hnsw"]["settings"]:
            mark = " *" if s["default"] else ""
            print(
                f"    ef={s['ef_search']:>3}  {s['search_seconds']:.3f}s  "
                f"{s['speedup_vs_exact']:>6.1f}x  recall "
                f"{s['recall_at_k']:.3f}{mark}"
            )
        matched = result["matched_recall_at_default_hnsw"]
        print(
            f"  matched recall: hnsw {matched['hnsw_speedup']}x at "
            f"{matched['hnsw_recall']:.3f} vs ivf "
            f"{matched['ivf_speedup_at_matched_recall']}x -> "
            f"{'hnsw wins' if matched['hnsw_beats_ivf'] else 'ivf wins'}"
        )

    def flat_settings():
        for r in sweep:
            for backend in ("ivf", "hnsw"):
                for s in r[backend]["settings"]:
                    yield {"backend": backend, "n": r["n"], **s}

    best = max(
        (s for s in flat_settings() if s["recall_at_k"] >= 0.95),
        key=lambda s: s["speedup_vs_exact"],
        default=None,
    )
    document = {
        "benchmark": "ann",
        "preset": {
            "scale": args.scale,
            "days": args.days,
            "scenario_seed": args.seed,
            "model_seed": args.model_seed,
            "epochs": args.epochs,
            "k": K,
        },
        "environment": {"cpu_count": os.cpu_count()},
        "fidelity": fidelity,
        "sweep": sweep,
        "best_speedup_at_recall_0.95": best,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.smoke:
        worst_ivf = min(
            s["recall_at_k"]
            for r in sweep
            for s in r["ivf"]["settings"]
            if s["nprobe"] == 8
        )
        assert worst_ivf >= 0.9, (
            f"smoke ivf recall regression: {worst_ivf:.3f} < 0.9"
        )
        worst_hnsw = min(
            s["recall_at_k"]
            for r in sweep
            for s in r["hnsw"]["settings"]
            if s["default"]
        )
        assert worst_hnsw >= 0.9, (
            f"smoke hnsw recall regression: {worst_hnsw:.3f} < 0.9"
        )
        assert abs(fidelity["accuracy_delta"]) <= 0.02, (
            f"smoke LOO delta too large: {fidelity['accuracy_delta']}"
        )
        assert abs(fidelity["hnsw_accuracy_delta"]) <= 0.02, (
            f"smoke hnsw LOO delta too large: {fidelity['hnsw_accuracy_delta']}"
        )
        print(
            f"smoke OK: recall@nprobe=8 >= {worst_ivf:.3f}, "
            f"recall@ef={DEFAULT_EF} >= {worst_hnsw:.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
