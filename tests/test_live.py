"""Tests for the live telemetry plane (repro.obs.live + sketches).

Covers the quantile sketch (accuracy vs exact quantiles, merge
algebra, serialisation), the streaming sink (frames with in-flight
spans, background flusher, Prometheus exposition), cross-process
worker heartbeats, telemetry equality across pool backends and
flusher settings, the frame reader's partial-line tolerance, the
dashboard renderer, and the ``repro top`` CLI verb.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.io.ndjson import tail_ndjson
from repro.obs import QuantileSketch, Telemetry, TelemetrySink
from repro.obs.live import build_frame, prometheus_text, render_frame
from repro.obs.sketch import summarize


class TestQuantileSketch:
    def test_exact_under_capacity(self):
        sketch = QuantileSketch(k=64)
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        sketch.observe_many(np.array(values))
        assert sketch.count == 5
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 5.0
        assert sketch.quantile(0.5) == 3.0

    def test_empty_quantiles_are_none(self):
        import math

        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(0.5))
        summary = summarize(sketch.to_dict())
        assert summary["count"] == 0
        assert summary["p99"] is None

    def test_p99_within_5pct_of_exact(self):
        # Acceptance criterion: sketch p99 within 5% of the exact
        # empirical p99 on a skewed latency-shaped distribution.
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=-4.0, sigma=1.0, size=100_000)
        sketch = QuantileSketch()
        for chunk in np.array_split(values, 37):
            sketch.observe_many(chunk)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            approx = sketch.quantile(q)
            assert abs(approx - exact) / exact < 0.05, q

    def test_scalar_and_vector_updates_agree(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(size=400)
        one = QuantileSketch(k=32)
        many = QuantileSketch(k=32)
        for value in values:
            one.observe(float(value))
        many.observe_many(values)
        assert one.count == many.count == 400
        assert one.sum == pytest.approx(many.sum)

    def test_min_max_sum_exact(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=10_000)
        sketch = QuantileSketch(k=16)  # tiny k: heavy compaction
        sketch.observe_many(values)
        assert sketch.count == 10_000
        assert sketch.quantile(0.0) == pytest.approx(float(values.min()))
        assert sketch.quantile(1.0) == pytest.approx(float(values.max()))
        assert sketch.sum == pytest.approx(float(values.sum()))

    def test_merge_weight_conserved(self):
        rng = np.random.default_rng(3)
        a, b = QuantileSketch(k=32), QuantileSketch(k=32)
        a.observe_many(rng.normal(size=5_000))
        b.observe_many(rng.normal(size=3_000))
        a.merge_dict(b.to_dict())
        assert a.count == 8_000
        # Total weight across levels must equal the count.
        state = a.to_dict()
        weight = sum(
            len(level) * (1 << h) for h, level in enumerate(state["levels"])
        )
        assert weight == 8_000

    def test_merge_commutative_and_associative(self):
        # Property: merge order must not change the quantile estimates
        # beyond sketch error — estimates from (a+b)+c and a+(c+b)
        # agree on the same data within the sketch's accuracy budget.
        rng = np.random.default_rng(11)
        parts = [rng.lognormal(sigma=0.8, size=4_000) for _ in range(3)]

        def build(order):
            merged = QuantileSketch()
            for index in order:
                piece = QuantileSketch()
                piece.observe_many(parts[index])
                merged.merge_dict(piece.to_dict())
            return merged

        exact = np.concatenate(parts)
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            sketch = build(order)
            assert sketch.count == len(exact)
            for q in (0.5, 0.95, 0.99):
                reference = float(np.quantile(exact, q))
                assert abs(sketch.quantile(q) - reference) / reference < 0.05

    def test_merge_mismatched_k_raises(self):
        a, b = QuantileSketch(k=32), QuantileSketch(k=64)
        b.observe(1.0)  # noqa: placeholder
        with pytest.raises(ValueError, match="different capacities"):
            a.merge_dict(b.to_dict())

    def test_dict_round_trip(self):
        rng = np.random.default_rng(5)
        sketch = QuantileSketch(k=32)
        sketch.observe_many(rng.normal(size=2_000))
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.count == sketch.count
        for q in (0.05, 0.5, 0.95):
            assert clone.quantile(q) == sketch.quantile(q)
        # Round-trip survives JSON (the registry/export path).
        again = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert again.quantile(0.5) == sketch.quantile(0.5)


class TestSketchMetrics:
    def test_observe_routes_to_sketch(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.observe("knn.search_seconds", 0.01)
            obs.observe_many("stage.seconds", np.array([0.5, 1.5]))
        snapshot = telemetry.snapshot()
        assert snapshot["sketches"]["knn.search_seconds"]["count"] == 1
        assert snapshot["sketches"]["stage.seconds"]["count"] == 2

    def test_sketches_merge_through_task_scopes(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            task = obs.wrap_task(
                lambda value: obs.observe("train.epoch_seconds", value)
            )
            for value in (0.1, 0.2, 0.3):
                task(value)
        data = telemetry.snapshot()["sketches"]["train.epoch_seconds"]
        assert data["count"] == 3
        assert summarize(data)["max"] == pytest.approx(0.3)

    def test_sketch_in_ndjson_records(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.observe("knn.search_seconds", 0.25)
        records = obs.telemetry_records(telemetry)
        sketch_records = [r for r in records if r["type"] == "sketch"]
        assert len(sketch_records) == 1
        record = sketch_records[0]
        assert record["name"] == "knn.search_seconds"
        assert record["p50"] == pytest.approx(0.25)
        assert record["state"]["count"] == 1


class TestBuildFrame:
    def test_frame_includes_open_spans(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("pipeline.fit"):
                with obs.span("train.epoch", epoch=3):
                    frame = build_frame(telemetry, seq=1)
        spans = {s["path"]: s for s in frame["spans"]}
        assert spans["pipeline.fit"]["open"] is True
        assert spans["pipeline.fit/train.epoch"]["open"] is True
        assert spans["pipeline.fit/train.epoch"]["elapsed"] >= 0.0
        assert spans["pipeline.fit/train.epoch"]["attrs"]["epoch"] == 3
        # After the spans close, a new frame marks them closed.
        frame2 = build_frame(telemetry, seq=2)
        assert all(not s["open"] for s in frame2["spans"])

    def test_frame_includes_inflight_task_counters(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            # Open a task scope by hand: counts are in the live shard,
            # not yet merged into the aggregate registry.
            with telemetry.task_scope():
                obs.add("train.pairs", 7)
                frame = build_frame(telemetry, seq=1)
                assert frame["counters"].get("train.pairs", 0) == 0
                assert frame["inflight"]["counters"]["train.pairs"] == 7
        merged = build_frame(telemetry, seq=2)
        assert merged["counters"]["train.pairs"] == 7

    def test_frame_has_proc_section(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            frame = build_frame(telemetry, seq=0)
        assert frame["proc"]["rss"] is None or frame["proc"]["rss"] > 0


class TestTelemetrySink:
    def test_flush_appends_frames_and_prom(self, tmp_path):
        stream = tmp_path / "live.ndjson"
        prom = tmp_path / "live.prom"
        telemetry = Telemetry()
        with obs.session(telemetry):
            sink = TelemetrySink(telemetry, stream, prom_path=prom)
            sink.start()
            obs.add("trace.packets", 42)
            obs.observe("knn.search_seconds", 0.003)
            sink.flush()
            sink.stop()
        frames, _ = tail_ndjson(stream)
        assert len(frames) >= 2  # explicit flush + final flush on stop
        last = frames[-1]
        assert last["counters"]["trace.packets"] == 42
        assert last["sketches"]["knn.search_seconds"]["count"] == 1
        text = prom.read_text()
        assert "repro_trace_packets 42" in text
        assert 'repro_knn_search_seconds{quantile="0.99"}' in text

    def test_background_flusher_produces_frames(self, tmp_path):
        stream = tmp_path / "live.ndjson"
        telemetry = Telemetry()
        with obs.session(telemetry):
            with TelemetrySink(telemetry, stream, interval=0.02):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    frames, _ = tail_ndjson(stream)
                    if len(frames) >= 2:
                        break
                    time.sleep(0.02)
        frames, _ = tail_ndjson(stream)
        assert len(frames) >= 2
        assert [f["seq"] for f in frames] == sorted(f["seq"] for f in frames)
        assert telemetry.snapshot()["counters"]["telemetry.flushes"] >= 2

    def test_flush_counts_and_latency_sketch(self, tmp_path):
        telemetry = Telemetry()
        with obs.session(telemetry):
            sink = TelemetrySink(telemetry, tmp_path / "s.ndjson")
            sink.start()
            sink.flush()
            sink.flush()
            sink.stop()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["telemetry.flushes"] >= 2
        assert snapshot["sketches"]["telemetry.flush_seconds"]["count"] >= 2

    def test_prometheus_text_shapes(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.add("trace.packets", 3)
            obs.set_gauge("graph.nodes", 5)
            obs.observe("corpus.sentence_length", 4)
            obs.observe("stage.seconds", 1.25)
        text = prometheus_text(telemetry.snapshot())
        assert "# TYPE repro_trace_packets counter" in text
        assert "# TYPE repro_graph_nodes gauge" in text
        assert "# TYPE repro_corpus_sentence_length summary" in text
        assert 'repro_corpus_sentence_length{quantile="0.5"} 4.0' in text
        assert "histogram" not in text
        assert "# TYPE repro_stage_seconds summary" in text
        assert 'repro_stage_seconds{quantile="0.5"} 1.25' in text
        assert "repro_stage_seconds_count 1" in text


class TestReadFrames:
    def test_partial_trailing_line_deferred(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        whole = json.dumps({"seq": 0}) + "\n"
        partial = json.dumps({"seq": 1})[:-4]
        path.write_text(whole + partial)
        frames, offset = tail_ndjson(path)
        assert [f["seq"] for f in frames] == [0]
        # Writer finishes the line: the reader resumes mid-file.
        with path.open("a") as handle:
            handle.write(json.dumps({"seq": 1})[-4:] + "\n")
        more, _ = tail_ndjson(path, offset)
        assert [f["seq"] for f in more] == [1]

    def test_malformed_line_skipped(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text('{"seq": 0}\nnot json\n{"seq": 2}\n')
        frames, _ = tail_ndjson(path)
        assert [f["seq"] for f in frames] == [0, 2]

    def test_missing_file(self, tmp_path):
        frames, offset = tail_ndjson(tmp_path / "absent.ndjson")
        assert frames == [] and offset == 0


class TestRenderFrame:
    def _frame(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.add("train.pairs", 500)
            obs.set_gauge("train.pairs_planned", 1000)
            obs.observe("train.epoch_seconds", 2.0)
            with obs.span("pipeline.fit"):
                with obs.span("train.epoch", epoch=1):
                    frame = build_frame(telemetry, seq=9)
        return frame

    def test_render_mentions_key_sections(self):
        frame = self._frame()
        text = render_frame(frame, rss_history=[1e6, 2e6, 3e6])
        assert "frame 9" in text
        assert "pipeline.fit" in text
        assert "train.epoch" in text
        assert "▶" in text  # open-span marker
        assert "50.0%" in text  # 500/1000 pairs
        assert "train.epoch_seconds" in text
        assert "p99" in text

    def test_render_rates_against_prev(self):
        frame = self._frame()
        prev = dict(frame)
        prev = json.loads(json.dumps(frame))
        prev["time"] = frame["time"] - 1.0
        prev["counters"] = {"train.pairs": 250}
        text = render_frame(frame, prev=prev)
        assert "/s" in text

    def test_render_formats_sketches_by_unit(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.observe("ann.candidate_set_size", 80)
            obs.observe("knn.search_seconds", 0.0004)
        text = render_frame(build_frame(telemetry, seq=0))
        rows = {
            line.split()[0]: line.split()[1:]
            for line in text.splitlines()
            if line.startswith("  ") and len(line.split()) == 5
        }
        assert rows["ann.candidate_set_size"] == ["1", "80", "80", "80"]
        assert rows["knn.search_seconds"] == ["1", "400us", "400us", "400us"]

    def test_render_worker_table(self):
        frame = self._frame()
        frame["workers"] = [
            {
                "pid": 4242,
                "rss": 1 << 20,
                "age": 0.5,
                "counters": {"train.pairs": 10},
            }
        ]
        text = render_frame(frame)
        assert "4242" in text


class TestWorkerVisibility:
    def test_publish_worker_feeds_frame(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            telemetry.publish_worker(
                {
                    "pid": 111,
                    "time": time.time(),
                    "rss": 2 << 20,
                    "metrics": {"counters": {"train.pairs": 12}},
                }
            )
            frame = build_frame(telemetry, seq=0)
        workers = {w["pid"]: w for w in frame["workers"]}
        assert workers[111]["counters"]["train.pairs"] == 12
        # Heartbeats contribute to the in-flight view only — the
        # aggregate registry stays untouched (end-of-task snapshots
        # are the single source of merged truth).
        assert frame["counters"].get("train.pairs", 0) == 0
        assert frame["inflight"]["counters"]["train.pairs"] == 12
        counters = telemetry.snapshot()["counters"]
        assert counters["telemetry.worker_snapshots"] == 1

    def test_stale_workers_dropped_from_frame(self):
        telemetry = Telemetry()
        telemetry.worker_stream_interval = 0.01
        with obs.session(telemetry):
            telemetry.publish_worker(
                {"pid": 5, "time": time.time() - 60.0, "rss": 1, "metrics": {}}
            )
            frame = build_frame(telemetry, seq=0)
        assert frame["workers"] == []

    def test_rss_peak_children_probe(self):
        from repro.obs.proc import rss_peak_children_bytes

        # In this test process there may be no children; the probe
        # must still return a clean int (possibly 0), never raise.
        value = rss_peak_children_bytes()
        assert isinstance(value, int)
        assert value >= 0


class TestBackendEquality:
    """Deterministic telemetry must agree across pool backends and
    flusher settings — streaming observes, it never changes totals."""

    def _fit(self, backend, stream_path=None, workers=2):
        from repro.w2v.model import Word2Vec

        rng = np.random.default_rng(1)
        sentences = [
            rng.integers(0, 30, size=15).astype(np.int64) for _ in range(60)
        ]
        telemetry = Telemetry()
        with obs.session(telemetry):
            sink = None
            if stream_path is not None:
                sink = TelemetrySink(telemetry, stream_path, interval=0.01)
                sink.start()
            try:
                model = Word2Vec(
                    vector_size=8,
                    epochs=2,
                    seed=3,
                    workers=workers,
                    pool_backend=backend,
                ).fit(sentences)
            finally:
                if sink is not None:
                    sink.stop()
        return model, telemetry.snapshot()

    def _deterministic_counters(self, snapshot):
        from repro.obs import METRICS

        return {
            name: value
            for name, value in snapshot["counters"].items()
            if METRICS[name].deterministic
        }

    def test_thread_vs_process_backend_counters(self):
        model_t, snap_t = self._fit("thread")
        model_p, snap_p = self._fit("process")
        assert self._deterministic_counters(
            snap_t
        ) == self._deterministic_counters(snap_p)
        # Sketch counts agree too: one epoch-latency sample per epoch.
        assert (
            snap_t["sketches"]["train.epoch_seconds"]["count"]
            == snap_p["sketches"]["train.epoch_seconds"]["count"]
        )

    def test_flusher_on_vs_off_counters(self, tmp_path):
        _, snap_off = self._fit("thread")
        _, snap_on = self._fit("thread", tmp_path / "live.ndjson")
        off = self._deterministic_counters(snap_off)
        on = self._deterministic_counters(snap_on)
        assert off == on
        # Counters are deterministic at any worker count, but vectors
        # are bit-identical only when the pool runs inline: real
        # threads race lock-free (Hogwild).
        model_off, _ = self._fit("thread", workers=1)
        model_on, _ = self._fit("thread", tmp_path / "inline.ndjson", workers=1)
        assert np.array_equal(model_off.vectors, model_on.vectors)


class TestTopCli:
    def test_top_once_renders_latest_frame(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "live.ndjson"
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.add("trace.packets", 9)
            sink = TelemetrySink(telemetry, stream)
            sink.start()
            sink.stop()
        assert main(["top", "--stream", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "trace.packets" in out
        assert "frame" in out

    def test_top_once_missing_stream(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["top", "--stream", str(tmp_path / "absent.ndjson"), "--once"]
        )
        assert code == 2

    def test_runs_show_quantiles(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import DarkVecConfig
        from repro.obs.registry import RunRegistry, record_run

        registry = RunRegistry(tmp_path / "registry")
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.observe("knn.search_seconds", 0.125)
            record = record_run(
                registry, "fit", DarkVecConfig(), wall_seconds=1.0
            )
        code = main(
            [
                "runs",
                "show",
                record["run_id"],
                "--quantiles",
                "--registry",
                str(tmp_path / "registry"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "knn.search_seconds" in out
        assert "p99" in out

    def test_runs_show_quantiles_of_summaries_and_of_levels(
        self, tmp_path, capsys
    ):
        """A record holds each sketch's summary, not its levels; a
        record written with the levels prints the same quantiles."""
        from repro.cli import main
        from repro.core import DarkVecConfig
        from repro.obs.registry import RunRegistry, record_run

        registry = RunRegistry(tmp_path / "registry")
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.observe_many("knn.search_seconds", np.linspace(1e-3, 0.1, 5_000))
            record = record_run(
                registry, "fit", DarkVecConfig(), wall_seconds=1.0
            )
        summary = record["metrics"]["sketches"]["knn.search_seconds"]
        assert "levels" not in summary and summary["count"] == 5_000
        state = telemetry.snapshot()["sketches"]
        assert "levels" in state["knn.search_seconds"]
        registry.append(
            dict(
                record,
                run_id="run-0002",
                metrics=dict(record["metrics"], sketches=state),
            )
        )
        tables = []
        for run_id in ("run-0001", "run-0002"):
            flags = ["--registry", str(registry.root)]
            assert main(["runs", "show", run_id, "--quantiles", *flags]) == 0
            out = capsys.readouterr().out
            tables.append(out[out.index("Distribution quantiles") :])
        assert "knn.search_seconds" in tables[0]
        assert tables[0] == tables[1]
