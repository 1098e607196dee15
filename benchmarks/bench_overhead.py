"""Telemetry overhead benchmark: the disabled path must cost < 1%.

The whole observability plane is opt-in; when no session is installed
the :class:`~repro.obs.recorder.NullRecorder` swallows every call.
This benchmark bounds what that opt-out costs, in three measurements
written to one JSON (``BENCH_overhead.json``):

1. **Disabled per-op cost** — tight-loop microbenchmarks of
   ``obs.add`` / ``obs.observe`` / ``obs.span`` with the null
   recorder installed, in nanoseconds per call.
2. **Instrumentation density** — an *enabled* run of the full
   pipeline on a synthetic trace counts how many recorder calls the
   hot paths actually make (counter increments, sketch observations,
   spans).
3. **The bound** — the same pipeline run with telemetry disabled is
   timed; the asserted invariant is

       events x disabled_per_op_cost  <  1% of pipeline wall time

   i.e. even if every instrumentation site paid the *measured* null
   cost, the total would be invisible.  A direct A/B wall-clock diff
   of two runs is recorded too (``disabled_vs_enabled``), but only
   reported, not asserted — at CI scale the diff is dominated by
   noise, which is exactly why the event-count bound exists.

A fourth, reported-only section times the run with a live
:class:`~repro.obs.TelemetrySink` flushing every second, so the
streamed-telemetry cost has a tracked number as well.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_overhead.py

``--smoke`` shrinks the trace for CI; the < 1% assertion is kept.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import DarkVec, DarkVecConfig
from repro.trace.generator import generate_trace
from repro.trace.scenario import default_scenario


def _time_per_op(fn, iterations: int) -> float:
    """Nanoseconds per call of ``fn`` over a tight loop."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations * 1e9


def bench_null_ops(iterations: int) -> dict:
    """Per-op cost of the disabled recorder, in ns."""
    assert obs.current().enabled is False

    def null_span() -> None:
        with obs.span("train.epoch"):
            pass

    values = np.ones(8)
    return {
        "iterations": iterations,
        "add_ns": _time_per_op(lambda: obs.add("train.pairs", 1), iterations),
        "observe_ns": _time_per_op(
            lambda: obs.observe("knn.search_seconds", 0.001), iterations
        ),
        "observe_many_ns": _time_per_op(
            lambda: obs.observe_many("corpus.sentence_length", values),
            iterations,
        ),
        "span_ns": _time_per_op(null_span, iterations),
    }


def _pipeline(trace, config: DarkVecConfig, cache_dir: Path):
    from dataclasses import replace

    return DarkVec(replace(config, cache_dir=cache_dir)).fit(trace)


#: Module-level obs entry points the hot paths call; the benchmark
#: counts invocations of each during an enabled run.
_OBS_OPS = (
    "add",
    "set_gauge",
    "observe",
    "observe_many",
    "span",
    "sample_rss_peak",
    "sample_rss_peak_children",
)


class _CallCounter:
    """Counts invocations of the ``repro.obs`` module entry points.

    Counter *values* cannot stand in for call counts — one ``obs.add``
    can carry a whole batch's increment — so the < 1% bound prices the
    calls the hot paths actually make.
    """

    def __init__(self) -> None:
        self.counts = {name: 0 for name in _OBS_OPS}
        self._originals: dict[str, object] = {}

    def __enter__(self) -> "_CallCounter":
        for name in _OBS_OPS:
            real = getattr(obs, name)
            self._originals[name] = real

            def counted(*a, _name=name, _real=real, **kw):
                self.counts[_name] += 1
                return _real(*a, **kw)

            setattr(obs, name, counted)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for name, real in self._originals.items():
            setattr(obs, name, real)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def bench_pipeline_overhead(args) -> dict:
    """Disabled vs enabled vs streamed pipeline runs + the < 1% bound."""
    scenario = default_scenario(scale=args.scale, days=1, seed=5)
    trace = generate_trace(scenario).trace
    config = DarkVecConfig(
        service="auto",
        epochs=args.epochs,
        vector_size=32,
        seed=11,
        workers=1,
    )

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        disabled = _pipeline(trace, config, Path(tmp) / "c0")
        disabled_seconds = time.perf_counter() - t0

    telemetry = obs.Telemetry()
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        with _CallCounter() as counter, obs.session(telemetry):
            enabled = _pipeline(trace, config, Path(tmp) / "c1")
        enabled_seconds = time.perf_counter() - t0
    events = {"calls": dict(counter.counts), "total": counter.total}

    streamed_telemetry = obs.Telemetry()
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "live.ndjson"
        prom = Path(tmp) / "live.prom"
        sink = obs.TelemetrySink(
            streamed_telemetry, stream, prom_path=prom, interval=1.0
        )
        t0 = time.perf_counter()
        with obs.session(streamed_telemetry):
            sink.start()
            try:
                streamed = _pipeline(trace, config, Path(tmp) / "c2")
            finally:
                sink.stop()
        streamed_seconds = time.perf_counter() - t0
        if args.keep_artifacts is not None:
            args.keep_artifacts.mkdir(parents=True, exist_ok=True)
            (args.keep_artifacts / "live.ndjson").write_bytes(
                stream.read_bytes()
            )
            (args.keep_artifacts / "live.prom").write_bytes(prom.read_bytes())

    # Bit-identity across all three: telemetry observes, never steers.
    assert np.array_equal(disabled.embedding.vectors, enabled.embedding.vectors)
    assert np.array_equal(
        disabled.embedding.vectors, streamed.embedding.vectors
    )

    return {
        "packets": int(len(trace)),
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "streamed_seconds": streamed_seconds,
        "disabled_vs_enabled": enabled_seconds / disabled_seconds - 1.0,
        "disabled_vs_streamed": streamed_seconds / disabled_seconds - 1.0,
        "events": events,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=200_000)
    parser.add_argument(
        "--keep-artifacts",
        type=Path,
        default=None,
        help="directory to keep the streamed run's NDJSON + Prometheus files",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_overhead.json"))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small trace for CI; the < 1%% bound is still asserted",
    )
    args = parser.parse_args()
    if args.smoke:
        args.scale = min(args.scale, 0.02)
        args.epochs = min(args.epochs, 3)
        args.iterations = min(args.iterations, 50_000)

    null_ops = bench_null_ops(args.iterations)
    pipeline = bench_pipeline_overhead(args)

    # The asserted bound: every instrumentation event, priced at the
    # measured null-path cost of its op class, must sum to < 1% of the
    # disabled pipeline wall time.
    calls = pipeline["events"]["calls"]
    per_op = {
        "add": null_ops["add_ns"],
        "set_gauge": null_ops["add_ns"],
        "observe": null_ops["observe_ns"],
        "observe_many": null_ops["observe_many_ns"],
        "span": null_ops["span_ns"],
        "sample_rss_peak": null_ops["add_ns"],
        "sample_rss_peak_children": null_ops["add_ns"],
    }
    implied_ns = sum(calls[name] * per_op[name] for name in calls)
    implied_fraction = implied_ns * 1e-9 / pipeline["disabled_seconds"]
    result = {
        "null_ops": null_ops,
        "pipeline": pipeline,
        "implied_overhead_fraction": implied_fraction,
        "bound": 0.01,
        "ok": bool(implied_fraction < 0.01),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    assert implied_fraction < 0.01, (
        f"disabled-telemetry overhead bound violated: "
        f"{implied_fraction:.4%} >= 1%"
    )
    print(
        f"ok: disabled-path overhead {implied_fraction:.4%} < 1% "
        f"({pipeline['events']['total']:,} recorder calls, "
        f"{pipeline['disabled_seconds']:.2f}s pipeline)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
