"""Tests for the observability subsystem (repro.obs)."""

import gzip
import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import recorder
from repro.io.ndjson import read_ndjson, write_ndjson
from repro.obs import (
    METRICS,
    MetricSpec,
    MetricsRegistry,
    Telemetry,
    counters_from_records,
    epoch_event,
    format_stage_table,
    telemetry_records,
    write_metrics_ndjson,
)
from repro.parallel.pool import WorkerPool, fork_available


class TestNullRecorder:
    def test_disabled_by_default(self):
        assert obs.current().enabled is False

    def test_span_and_metrics_are_noops(self):
        with obs.span("train.fit", workers=1) as sp:
            sp.set(items=10)
        obs.add("trace.packets", 5)
        obs.set_gauge("graph.nodes", 3)
        obs.observe("corpus.sentence_length", 4)
        obs.observe_many("corpus.sentence_length", np.array([1.0, 2.0]))

    def test_unknown_names_not_validated_when_disabled(self):
        # Zero-overhead path: no dict lookup, no validation.
        obs.add("not.a.metric")

    def test_wrap_task_returns_fn_unchanged(self):
        def fn(x):
            return x + 1

        assert obs.wrap_task(fn) is fn


class TestSpans:
    def test_nesting_and_attributes(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("pipeline.fit", stage="outer") as outer:
                with obs.span("train.fit", workers=1):
                    pass
                outer.set(items=7, items_unit="pairs")
        root = telemetry.root
        assert [child.name for child in root.children] == ["pipeline.fit"]
        fit = root.children[0]
        assert fit.attrs["stage"] == "outer"
        assert fit.attrs["items"] == 7
        assert [child.name for child in fit.children] == ["train.fit"]
        assert fit.elapsed >= fit.children[0].elapsed >= 0.0

    def test_walk_paths(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("a"):
                with obs.span("b"):
                    pass
        paths = [path for _, _, path in telemetry.root.walk()]
        assert paths == ["root", "root/a", "root/a/b"]

    def test_find(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("a"):
                with obs.span("b", tag=1):
                    pass
        found = telemetry.root.find("b")
        assert found is not None and found.attrs["tag"] == 1
        assert telemetry.root.find("missing") is None

    def test_root_keeps_the_newest_top_level_spans(self):
        """40 top-level spans leave the newest MAX_ROOT_SPANS with their
        subtrees; an open span is never dropped."""
        import threading

        assert recorder.MAX_ROOT_SPANS == 16
        telemetry = Telemetry()

        def top_level(prefix):
            for i in range(40):
                with obs.span(f"{prefix}{i}"):
                    with obs.span("child"):
                        pass

        with obs.session(telemetry):
            top_level("s")
            root = telemetry.root
            assert [c.name for c in root.children] == [
                f"s{i}" for i in range(24, 40)
            ]
            assert all(len(c.children) == 1 for c in root.children)
            with obs.span("open"):
                # Another thread's spans are top-level while this one is open.
                reader = threading.Thread(target=top_level, args=("r",))
                reader.start()
                reader.join(timeout=60)
                assert not reader.is_alive()
                assert [c.name for c in root.children] == ["open"] + [
                    f"r{i}" for i in range(25, 40)
                ]

    def test_exception_propagates_and_span_closes(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with pytest.raises(ValueError):
                with obs.span("a"):
                    raise ValueError("boom")
        assert telemetry.root.children[0].elapsed >= 0.0

    def test_throughput_from_items(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("a") as sp:
                sp.set(items=1000, items_unit="pairs")
        span = telemetry.root.children[0]
        assert span.throughput is not None and span.throughput > 0

    def test_memory_profiling_records_peaks(self):
        telemetry = Telemetry(profile_memory=True)
        with obs.session(telemetry):
            with obs.span("alloc"):
                _ = np.zeros(200_000)
        span = telemetry.root.children[0]
        assert span.mem_peak_bytes is not None
        assert span.mem_peak_bytes > 1_000_000

    def test_nested_peak_folds_into_parent(self):
        telemetry = Telemetry(profile_memory=True)
        with obs.session(telemetry):
            with obs.span("outer"):
                with obs.span("inner"):
                    _ = np.zeros(200_000)
        outer, inner = (
            telemetry.root.children[0],
            telemetry.root.children[0].children[0],
        )
        assert outer.mem_peak_bytes >= inner.mem_peak_bytes


class TestMetrics:
    def test_unknown_name_raises_when_enabled(self):
        with obs.session(Telemetry()):
            with pytest.raises(ValueError, match="unknown metric"):
                obs.add("not.a.metric")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="is a counter"):
            registry.set_gauge("trace.packets", 1.0)

    def test_counter_accumulates(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.add("trace.packets", 3)
            obs.add("trace.packets", 4)
        assert telemetry.snapshot()["counters"]["trace.packets"] == 7

    def test_gauge_last_write_wins(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.set_gauge("graph.nodes", 5)
            obs.set_gauge("graph.nodes", 9)
        assert telemetry.snapshot()["gauges"]["graph.nodes"] == 9

    def test_metric_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MetricSpec("bogus", "x")
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricSpec("histogram", "x")


class TestWorkerPoolAggregation:
    def _count_task(self, n):
        obs.add("trace.packets", n)
        obs.observe("corpus.sentence_length", n)
        return n

    def test_submit_merges_task_metrics(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with WorkerPool(workers=2) as pool:
                futures = [
                    pool.submit(self._count_task, n) for n in range(1, 11)
                ]
                assert sorted(f.result() for f in futures) == list(
                    range(1, 11)
                )
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["trace.packets"] == 55
        assert snapshot["sketches"]["corpus.sentence_length"]["count"] == 10

    def test_map_merges_task_metrics(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with WorkerPool(workers=3) as pool:
                pool.map(self._count_task, range(1, 11))
        assert telemetry.snapshot()["counters"]["trace.packets"] == 55

    def test_inline_pool_same_aggregation(self):
        results = {}
        for workers in (1, 4):
            telemetry = Telemetry()
            with obs.session(telemetry):
                with WorkerPool(workers=workers) as pool:
                    pool.map(self._count_task, range(1, 11))
            results[workers] = telemetry.snapshot()["counters"]
        assert results[1] == results[4]


class TestForkSafety:
    def test_refresh_releases_inherited_locks(self):
        # Simulate what a forked child inherits when another thread of
        # the parent sat inside a recorder critical section at fork
        # time: a locked mutex with nobody left to unlock it.
        telemetry = Telemetry()
        telemetry._lock.acquire()
        recorder._refresh_locks_after_fork()
        assert not telemetry._lock.locked()
        with obs.session(telemetry):
            obs.add("trace.packets", 1)  # must not deadlock
        assert telemetry.snapshot()["counters"]["trace.packets"] == 1

    @pytest.mark.skipif(
        not fork_available(), reason="fork-based pools unavailable"
    )
    def test_forked_child_records_while_parent_holds_lock(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            telemetry._lock.acquire()  # stands in for a mid-write thread
            try:
                pid = os.fork()
                if pid == 0:  # pragma: no cover - child process
                    status = 1
                    try:
                        obs.add("trace.packets", 1)
                        status = 0
                    finally:
                        os._exit(status)
                # poll so a regression shows up as a failure, not a hang
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    done, raw_status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        break
                    time.sleep(0.05)
                else:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child deadlocked on recorder lock")
            finally:
                telemetry._lock.release()
        assert raw_status == 0


class TestNdjsonExport:
    def _session(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("pipeline.fit") as sp:
                sp.set(items=10, items_unit="pairs")
                obs.add("trace.packets", 42)
                obs.set_gauge("graph.nodes", 7)
                obs.observe_many(
                    "corpus.sentence_length", np.array([3.0, 9.0])
                )
        return telemetry

    def test_records_structure(self):
        records = telemetry_records(self._session())
        kinds = [record["type"] for record in records]
        assert kinds == ["span", "counter", "gauge", "sketch"]
        span = records[0]
        assert span["path"] == "pipeline.fit" and span["depth"] == 0
        counter = records[1]
        assert counter["name"] == "trace.packets"
        assert counter["value"] == 42
        assert counter["deterministic"] is True

    def test_round_trip(self, tmp_path):
        telemetry = self._session()
        path = tmp_path / "metrics.ndjson"
        write_metrics_ndjson(telemetry, path)
        records = read_ndjson(path)
        assert records == telemetry_records(telemetry)

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "metrics.ndjson.gz"
        write_ndjson([{"a": 1}, {"b": [1, 2]}], path)
        with gzip.open(path, "rt") as handle:
            assert json.loads(handle.readline()) == {"a": 1}
        assert read_ndjson(path) == [{"a": 1}, {"b": [1, 2]}]

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"ok": 1}\nnot-json\n')
        with pytest.raises(ValueError, match=":2: malformed"):
            read_ndjson(path)

    def test_counters_from_records_filters_deterministic(self):
        records = [
            {"type": "counter", "name": "a", "value": 1, "deterministic": True},
            {"type": "counter", "name": "b", "value": 2, "deterministic": False},
            {"type": "gauge", "name": "c", "value": 3, "deterministic": True},
        ]
        assert counters_from_records(records) == {"a": 1, "b": 2}
        assert counters_from_records(records, deterministic_only=True) == {
            "a": 1
        }


class TestProgress:
    def test_epoch_event_rates(self):
        event = epoch_event(0, 4, 500, 2000, 2.0, loss=1.5)
        assert event.pairs_per_second == 250.0
        assert event.eta_seconds == pytest.approx(6.0)
        assert event.loss == 1.5

    def test_zero_elapsed_is_safe(self):
        event = epoch_event(0, 1, 0, 0, 0.0)
        assert event.pairs_per_second == 0.0
        assert event.eta_seconds == 0.0
        assert event.loss is None

    def test_fit_emits_one_event_per_epoch(self):
        from repro.w2v.model import Word2Vec

        rng = np.random.default_rng(3)
        sentences = [
            rng.integers(0, 20, size=12).astype(np.int64) for _ in range(30)
        ]
        events = []
        model = Word2Vec(
            vector_size=8, epochs=3, seed=5, progress=events.append
        )
        model.fit(sentences)
        assert [event.epoch for event in events] == [0, 1, 2]
        assert all(event.total_epochs == 3 for event in events)
        assert events[-1].pairs_processed > 0
        # pairs_processed tracks the *expected* pair count only
        # approximately (buffered pairs carry over), so the final ETA
        # is near zero, not exactly zero.
        assert 0.0 <= events[-1].eta_seconds < 0.1
        assert all(event.loss is not None and event.loss > 0 for event in events)

    def test_parallel_fit_emits_events(self):
        from repro.w2v.model import Word2Vec

        rng = np.random.default_rng(3)
        sentences = [
            rng.integers(0, 20, size=12).astype(np.int64) for _ in range(30)
        ]
        events = []
        model = Word2Vec(
            vector_size=8, epochs=2, seed=5, workers=2, progress=events.append
        )
        model.fit(sentences)
        assert [event.epoch for event in events] == [0, 1]
        assert all(event.loss is not None and event.loss > 0 for event in events)


class TestDeterminism:
    """Instrumentation must not perturb the reference RNG streams."""

    def _sentences(self):
        rng = np.random.default_rng(0)
        return [
            rng.integers(0, 40, size=rng.integers(3, 25)).astype(np.int64)
            for _ in range(80)
        ]

    def test_instrumented_fit_bit_identical(self):
        from repro.w2v.model import Word2Vec

        sentences = self._sentences()
        plain = Word2Vec(vector_size=12, epochs=2, seed=9).fit(sentences)
        instrumented_model = Word2Vec(
            vector_size=12, epochs=2, seed=9, progress=lambda event: None
        )
        with obs.session(Telemetry(profile_memory=True)):
            instrumented = instrumented_model.fit(sentences)
        assert np.array_equal(plain.vectors, instrumented.vectors)
        assert np.array_equal(plain.tokens, instrumented.tokens)

    def test_fit_bit_identical_with_live_sink(self, tmp_path):
        # The background flusher must observe, never perturb: a fit
        # streamed at a fast flush interval is bit-identical to the
        # uninstrumented one.
        from repro.obs import TelemetrySink
        from repro.w2v.model import Word2Vec

        sentences = self._sentences()
        plain = Word2Vec(vector_size=12, epochs=2, seed=9).fit(sentences)
        telemetry = Telemetry()
        sink = TelemetrySink(
            telemetry, tmp_path / "live.ndjson", interval=0.01
        )
        with obs.session(telemetry):
            with sink:
                streamed = Word2Vec(vector_size=12, epochs=2, seed=9).fit(
                    sentences
                )
        assert np.array_equal(plain.vectors, streamed.vectors)
        assert np.array_equal(plain.tokens, streamed.tokens)
        assert (tmp_path / "live.ndjson").exists()


class TestStageTable:
    def test_table_contains_stages_and_throughput(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.span("pipeline.fit"):
                with obs.span("train.fit") as sp:
                    sp.set(items=50_000, items_unit="pairs")
        table = format_stage_table(telemetry, title="Stages")
        lines = table.splitlines()
        assert lines[0] == "Stages"
        assert any(line.startswith("pipeline.fit") for line in lines)
        assert any(line.startswith("  train.fit") for line in lines)
        assert "pairs/s" in table
        assert "Peak mem" in table

    def test_counters_table(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.add("trace.packets", 1234)
        table = obs.format_counters_table(telemetry)
        assert "trace.packets" in table
        assert "1,234" in table


class TestMetricDeclarations:
    def test_all_spec_kinds_valid(self):
        for name, spec in METRICS.items():
            assert spec.kind in ("counter", "gauge", "sketch"), name
            assert spec.description, name

    def test_deterministic_flags(self):
        # Schedule-dependent training/louvain metrics must be flagged.
        assert not METRICS["train.pairs"].deterministic
        assert not METRICS["train.negative_draws"].deterministic
        assert not METRICS["louvain.passes"].deterministic
        assert METRICS["trace.packets"].deterministic
        assert METRICS["corpus.tokens"].deterministic
        assert METRICS["knn.distance_computations"].deterministic


class TestUpdateMetricsDeterminism:
    """Deterministic metrics must agree between workers=1 and workers=2
    through a full fit + warm update, exercising snapshot/merge across
    worker task scopes."""

    @pytest.fixture(scope="class")
    def sessions(self, small_bundle, tmp_path_factory):
        from repro.core import DarkVec, DarkVecConfig

        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        head = trace.between(trace.start_time, cut)
        tail = trace.between(cut, cut + 86400.0)
        sessions = {}
        for workers in (1, 2):
            config = DarkVecConfig(
                service="domain",
                epochs=2,
                seed=3,
                workers=workers,
                window_days=3.0,
                cache_dir=tmp_path_factory.mktemp(f"workers{workers}"),
            )
            telemetry = Telemetry()
            with obs.session(telemetry):
                darkvec = DarkVec(config).fit(head)
                darkvec.update(tail)
            sessions[workers] = telemetry
        return sessions

    @pytest.fixture(scope="class")
    def snapshots(self, sessions):
        return {workers: t.snapshot() for workers, t in sessions.items()}

    def test_deterministic_counters_agree(self, snapshots):
        names = set(snapshots[1]["counters"]) | set(snapshots[2]["counters"])
        for name in names:
            if not METRICS[name].deterministic:
                continue
            assert snapshots[1]["counters"].get(name) == snapshots[2][
                "counters"
            ].get(name), name

    def test_deterministic_gauges_agree(self, snapshots):
        names = set(snapshots[1]["gauges"]) | set(snapshots[2]["gauges"])
        for name in names:
            if not METRICS[name].deterministic:
                continue
            assert snapshots[1]["gauges"].get(name) == pytest.approx(
                snapshots[2]["gauges"].get(name)
            ), name

    def test_deterministic_sketches_agree(self, snapshots):
        names = set(snapshots[1]["sketches"]) | set(snapshots[2]["sketches"])
        deterministic = [name for name in names if METRICS[name].deterministic]
        assert "corpus.sentence_length" in deterministic
        assert "ingest.sender_packets" in deterministic
        for name in deterministic:
            # The whole state, compactor levels included, not only the
            # summary quantiles.
            assert (
                snapshots[1]["sketches"][name] == snapshots[2]["sketches"][name]
            ), name

    def test_distribution_counts_match_counters(self, snapshots):
        for snapshot in snapshots.values():
            sketches, counters = snapshot["sketches"], snapshot["counters"]
            assert (
                sketches["corpus.sentence_length"]["count"]
                == counters["corpus.sentences"]
            )
            assert (
                sketches["train.batch_pairs"]["count"]
                == counters["train.batches"]
            )
            # Each batch records its raw pairs, the ones train.pairs
            # counts, not the unique pairs left after dedup.
            assert sketches["train.batch_pairs"]["sum"] == counters["train.pairs"]

    def test_frame_lists_distributions(self, sessions):
        from repro.obs.live import build_frame

        frame = build_frame(sessions[1], seq=0)
        for name in (
            "ingest.sender_packets",
            "corpus.sentence_length",
            "train.batch_pairs",
            "knn.neighbor_distance",
        ):
            assert frame["sketches"][name]["count"] > 0, name

    def test_monitor_gauges_present(self, snapshots):
        # The update path with a registry attached emits quality gauges.
        for workers in (1, 2):
            gauges = snapshots[workers]["gauges"]
            assert "quality.empty_window_rate" in gauges
            assert "drift.cosine_displacement" in gauges

    def test_ingest_histogram_records_all_senders(self, snapshots, small_bundle):
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        head = trace.between(trace.start_time, cut)
        sketch = snapshots[1]["sketches"]["ingest.sender_packets"]
        # fit ingests the 3-day head; update adds the day-4 slice.
        assert sketch["count"] >= len(head.observed_senders())
