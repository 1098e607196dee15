"""Million-sender scale-out: mmap artifacts, sharded stages, process
pool, and the IVF-PQ backend.

The scale features are only acceptable if they are invisible to the
results: the sharded corpus/vocab path and the raw mmap container must
be bit-identical to the unsharded npz path, the process pool at
``workers=1`` must match the thread pool exactly, and the IVF-PQ
backend must hold recall while its mis-tunings stay visible to the
health monitors.  These tests pin each of those contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.ann import AnnSpec, IVFPQIndex, build_index
from repro.ann.exact import exact_topk, score_chunk_rows
from repro.ann.ivfpq import default_pq_m
from repro.core import DarkVec, DarkVecConfig
from repro.core.sharding import (
    build_corpus_sharded,
    build_vocab_streaming,
    plan_window_shards,
    shard_ranges,
)
from repro.corpus.builder import CorpusBuilder
from repro.corpus.windows import window_indices
from repro.io.artifacts import (
    CORPUS_CODEC,
    CORPUS_RAW_CODEC,
    IVFPQ_INDEX_CODEC,
    TRACE_CODEC,
    TRACE_RAW_CODEC,
)
from repro.io.rawio import read_raw, write_raw
from repro.obs.health import HealthPolicy, classify
from repro.obs.metrics import METRICS
from repro.obs.recorder import Telemetry
from repro.parallel.pool import (
    POOL_BACKENDS,
    WorkerPool,
    default_backend,
    fork_available,
    pool_backend,
)
from repro.parallel.shm import SharedArray
from repro.services.domain import DomainServiceMap
from repro.store.cache import ArtifactStore
from repro.w2v.mathutils import unit_rows
from repro.w2v.model import Word2Vec
from repro.w2v.vocab import Vocabulary

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def clustered_units(
    n: int = 2000, dim: int = 32, n_clusters: int = 20, seed: int = 0
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=n)
    points = centers[assign] + 0.1 * rng.normal(size=(n, dim))
    return unit_rows(points)


# ---------------------------------------------------------------------------
# Raw mmap container
# ---------------------------------------------------------------------------


class TestRawContainer:
    def test_round_trip_and_alignment(self, tmp_path):
        payload = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0, 1, 13).reshape(13, 1),
            "c": np.array([], dtype=np.float32),
            "flag": np.array([True, False]),
        }
        path = tmp_path / "arrays.raw"
        write_raw(path, payload)
        back = read_raw(path)
        assert set(back) == set(payload)
        for name, array in payload.items():
            np.testing.assert_array_equal(back[name], array)
            assert back[name].dtype == array.dtype

    def test_mmap_views_are_memmaps(self, tmp_path):
        path = tmp_path / "arrays.raw"
        write_raw(path, {"x": np.arange(100, dtype=np.float64)})
        views = read_raw(path, mmap=True)
        assert isinstance(views["x"], np.memmap)
        np.testing.assert_array_equal(np.asarray(views["x"]), np.arange(100))

    def test_rejects_object_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_raw(tmp_path / "bad.raw", {"x": np.array([object()])})

    def test_raw_codec_hash_matches_npz_codec(self, small_trace):
        # Stage fingerprints hash the payload, not the container, so
        # flipping --mmap must not look like different content.
        assert TRACE_RAW_CODEC.content_hash(
            small_trace
        ) == TRACE_CODEC.content_hash(small_trace)

    def test_store_round_trip_and_tamper_detection(self, tmp_path, small_trace):
        store = ArtifactStore(tmp_path)
        store.save("ingest", "f" * 12, TRACE_RAW_CODEC, small_trace)
        loaded = store.load("ingest", "f" * 12, TRACE_RAW_CODEC)
        assert loaded is not None
        np.testing.assert_array_equal(loaded[0].senders, small_trace.senders)
        # Flip one payload byte: sha256 verification must fail closed.
        (payload_path,) = tmp_path.glob("objects/*.raw")
        blob = bytearray(payload_path.read_bytes())
        blob[-1] ^= 0xFF
        payload_path.write_bytes(bytes(blob))
        assert store.load("ingest", "f" * 12, TRACE_RAW_CODEC) is None


# ---------------------------------------------------------------------------
# Sharded streaming stages
# ---------------------------------------------------------------------------


class TestSharding:
    def test_shard_ranges_cover(self):
        assert shard_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert shard_ranges(0, 4) == []
        with pytest.raises(ValueError):
            shard_ranges(10, 0)

    def test_plan_window_shards_budget(self, small_trace):
        windows = window_indices(
            small_trace.times, small_trace.start_time, 1800.0
        )
        ranges = plan_window_shards(windows, small_trace.senders, 200)
        # Ranges partition the window span in order, no gaps.
        assert ranges[0][0] == int(windows[0])
        assert ranges[-1][1] == int(windows[-1]) + 1
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        # Each multi-window range respects the distinct-sender budget.
        for w_lo, w_hi in ranges:
            if w_hi - w_lo <= 1:
                continue  # single busy window may exceed the budget
            mask = (windows >= w_lo) & (windows < w_hi)
            assert len(np.unique(small_trace.senders[mask])) <= 200

    def test_sharded_corpus_bit_identical(self, small_trace):
        service_map = DomainServiceMap()
        full = CorpusBuilder(service_map, delta_t=1800.0).build(small_trace)
        for shard_size in (1, 37, 500, 10**9):
            sharded = build_corpus_sharded(
                small_trace,
                service_map,
                delta_t=1800.0,
                shard_size=shard_size,
                t_origin=small_trace.start_time,
            )
            assert CORPUS_CODEC.content_hash(
                sharded
            ) == CORPUS_CODEC.content_hash(full)
            assert CORPUS_RAW_CODEC.content_hash(
                sharded
            ) == CORPUS_CODEC.content_hash(full)

    def test_streaming_vocab_equals_global(self):
        rng = np.random.default_rng(3)
        arrays = [
            rng.integers(0, 50, size=rng.integers(0, 30)) for _ in range(100)
        ]
        full = Vocabulary.build(arrays, min_count=3)
        for chunk_tokens in (1, 17, 1000, 10**9):
            streamed = build_vocab_streaming(
                arrays, chunk_tokens=chunk_tokens, min_count=3
            )
            np.testing.assert_array_equal(streamed.tokens, full.tokens)
            np.testing.assert_array_equal(streamed.counts, full.counts)

    def test_sharded_fit_bit_identical(self, small_trace):
        base = DarkVec(DarkVecConfig(epochs=2, seed=3)).fit(small_trace)
        sharded = DarkVec(
            DarkVecConfig(epochs=2, seed=3, shard_size=64)
        ).fit(small_trace)
        np.testing.assert_array_equal(
            base.embedding.tokens, sharded.embedding.tokens
        )
        np.testing.assert_array_equal(
            base.embedding.vectors, sharded.embedding.vectors
        )

    def test_shard_size_changes_fingerprints(self):
        a = DarkVecConfig(shard_size=0).stage_fields("corpus")
        b = DarkVecConfig(shard_size=64).stage_fields("corpus")
        assert a != b


# ---------------------------------------------------------------------------
# Process-backend worker pool
# ---------------------------------------------------------------------------


class TestProcessPool:
    def test_backend_validation(self):
        assert default_backend() in POOL_BACKENDS
        with pytest.raises(ValueError):
            WorkerPool(2, backend="fibers")
        with pytest.raises(ValueError):
            with pool_backend("fibers"):
                pass

    def test_pool_backend_scope_swaps_default(self):
        before = default_backend()
        with pool_backend("process" if fork_available() else "thread"):
            assert default_backend() in POOL_BACKENDS
        assert default_backend() == before

    @needs_fork
    def test_process_map_matches_thread_map(self):
        items = list(range(23))
        with WorkerPool(4, backend="thread") as pool:
            thread_result = pool.map(lambda x: x * x, items)
        with WorkerPool(4, backend="process") as pool:
            process_result = pool.map(lambda x: x * x, items)
        assert process_result == thread_result

    @needs_fork
    def test_process_map_merges_metric_snapshots(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with WorkerPool(2, backend="process") as pool:
                pool.map(lambda x: obs.add("knn.queries", x), [1, 2, 3, 4])
        assert telemetry.registry.counters["knn.queries"] == 10

    @needs_fork
    def test_shared_array_propagates_across_fork(self):
        import multiprocessing

        shared = SharedArray((8,), np.float64)
        try:
            shared.array[:] = 0.0
            target = shared.array

            def bump(i):
                target[i] = i + 1.0
                return i

            ctx = multiprocessing.get_context("fork")
            with WorkerPool(2, backend="process") as pool:
                pool.map(bump, list(range(8)))
            np.testing.assert_array_equal(
                shared.array, np.arange(1.0, 9.0)
            )
        finally:
            shared.release()

    def test_invalid_model_backend_rejected(self):
        with pytest.raises(ValueError):
            Word2Vec(pool_backend="fibers")
        with pytest.raises(ValueError):
            DarkVecConfig(pool_backend="fibers")


class TestProcessTraining:
    @needs_fork
    def test_workers1_process_bit_identical_to_thread(self, small_trace):
        thread = DarkVec(DarkVecConfig(epochs=2, seed=3, workers=1)).fit(
            small_trace
        )
        process = DarkVec(
            DarkVecConfig(
                epochs=2, seed=3, workers=1, pool_backend="process"
            )
        ).fit(small_trace)
        np.testing.assert_array_equal(
            thread.embedding.vectors, process.embedding.vectors
        )

    @needs_fork
    def test_process_training_metrics_match_thread(self, small_trace):
        def metrics_with(backend):
            telemetry = Telemetry()
            with obs.session(telemetry):
                DarkVec(
                    DarkVecConfig(
                        epochs=2, seed=3, workers=2, pool_backend=backend
                    )
                ).fit(small_trace)
            return telemetry.registry.counters

        thread = metrics_with("thread")
        process = metrics_with("process")
        # Hogwild float sums differ across schedules, but the
        # deterministic counters (work accounting) must agree exactly.
        for name, value in thread.items():
            if METRICS[name].deterministic:
                assert process[name] == value, name

    @needs_fork
    def test_process_fit_learns(self, small_bundle):
        config = DarkVecConfig(
            epochs=6, seed=3, workers=2, pool_backend="process"
        )
        darkvec = DarkVec(config).fit(small_bundle.trace)
        report = darkvec.evaluate(small_bundle.truth, eval_days=None)
        baseline = DarkVec(DarkVecConfig(epochs=6, seed=3)).fit(
            small_bundle.trace
        ).evaluate(small_bundle.truth, eval_days=None)
        # Hogwild schedules differ across backends, so only degradation
        # is a bug; the process run may legitimately score higher.
        assert report.accuracy > baseline.accuracy - 0.1


# ---------------------------------------------------------------------------
# Exact-backend chunk budget
# ---------------------------------------------------------------------------


class TestChunkBudget:
    def test_single_arg_values_unchanged(self):
        assert score_chunk_rows(100) == 1024
        assert score_chunk_rows(1 << 17) == 64
        assert score_chunk_rows(1 << 16) == 128
        assert score_chunk_rows(1 << 20) == 16
        assert score_chunk_rows(1 << 30) == 16

    def test_concurrency_divides_budget(self):
        n = 1 << 16
        assert score_chunk_rows(n, concurrency=2) == 64
        assert score_chunk_rows(n, concurrency=4) == 32
        # The floor holds even under huge fan-out.
        assert score_chunk_rows(n, concurrency=1024) == 16

    def test_exact_topk_identical_across_workers(self):
        units = clustered_units(n=600, dim=16)
        rows = np.arange(200)
        nb1, s1 = exact_topk(units, rows, 7, workers=1)
        nb4, s4 = exact_topk(units, rows, 7, workers=4)
        np.testing.assert_array_equal(nb1, nb4)
        np.testing.assert_array_equal(s1, s4)


# ---------------------------------------------------------------------------
# IVF-PQ backend
# ---------------------------------------------------------------------------


class TestIVFPQ:
    def test_build_shapes_and_auto_m(self):
        units = clustered_units()
        index = build_index(units, AnnSpec(backend="ivfpq"))
        assert isinstance(index, IVFPQIndex)
        assert index.m == default_pq_m(units.shape[1])
        assert index.codes.shape == (len(units), index.m)
        assert index.codes.dtype == np.uint8
        assert index.codebooks.shape[1] == 256  # 2**8 codewords

    def test_recall_at_operating_point(self):
        units = clustered_units()
        spec = AnnSpec(backend="ivfpq", nprobe=16, recall_sample=0, seed=1)
        index = build_index(units, spec)
        rows = np.arange(300)
        nb, _ = index.search(rows, 7)
        exact_nb, _ = exact_topk(units, rows, 7)
        overlap = sum(
            len(np.intersect1d(nb[i], exact_nb[i])) for i in range(len(rows))
        )
        assert overlap / (len(rows) * 7) >= 0.9

    def test_returned_similarities_are_exact(self):
        units = clustered_units(n=800)
        index = build_index(units, AnnSpec(backend="ivfpq", nprobe=8))
        rows = np.arange(50)
        nb, sims = index.search(rows, 5)
        expected = np.einsum(
            "qkd,qkd->qk", units[rows][:, None, :].repeat(5, axis=1), units[nb]
        )
        np.testing.assert_allclose(sims, expected, rtol=0, atol=1e-12)

    def test_search_identical_across_workers(self):
        units = clustered_units()
        index = build_index(units, AnnSpec(backend="ivfpq", nprobe=8))
        rows = np.arange(500)
        nb1, s1 = index.search(rows, 7, workers=1)
        nb3, s3 = index.search(rows, 7, workers=3)
        np.testing.assert_array_equal(nb1, nb3)
        np.testing.assert_array_equal(s1, s3)

    def test_self_audit_records_recall(self):
        units = clustered_units()
        index = build_index(
            units, AnnSpec(backend="ivfpq", nprobe=16, recall_sample=64)
        )
        index.search(np.arange(200), 7)
        assert index.last_recall is not None
        assert 0.0 <= index.last_recall <= 1.0

    def test_mistuned_quantizer_trips_health_monitor(self):
        # Near-random codes (1 bit) + a single probed list: recall
        # collapses, and the audited value must cross the policy's
        # warn threshold so the ann_recall monitor says so.
        units = clustered_units()
        spec = AnnSpec(
            backend="ivfpq", nprobe=1, pq_bits=1, recall_sample=128, seed=1
        )
        index = build_index(units, spec)
        index.search(np.arange(400), 7)
        policy = HealthPolicy()
        verdict = classify(
            "ann_recall",
            index.last_recall,
            policy.recall_warn,
            policy.recall_fail,
            direction="low",
        )
        assert verdict.verdict in ("warn", "fail")

    def test_updated_reencodes_and_preserves_search(self):
        units = clustered_units()
        spec = AnnSpec(backend="ivfpq", nprobe=16, recall_sample=0)
        index = build_index(units, spec)
        # Perturb vectors (a warm refit) and drop/keep/add rows.
        rng = np.random.default_rng(9)
        moved = unit_rows(units + 0.01 * rng.normal(size=units.shape))
        prior_rows = np.arange(len(units))
        evolved = index.updated(moved, prior_rows)
        assert isinstance(evolved, IVFPQIndex)
        assert evolved.codes.shape == index.codes.shape
        # Codes were re-encoded against the moved vectors, so ADC
        # search still tracks the exact result.
        rows = np.arange(200)
        nb, _ = evolved.search(rows, 7)
        exact_nb, _ = exact_topk(moved, rows, 7)
        overlap = sum(
            len(np.intersect1d(nb[i], exact_nb[i])) for i in range(len(rows))
        )
        assert overlap / (len(rows) * 7) >= 0.9

    def test_updated_retrains_on_imbalance(self):
        units = clustered_units(n=500)
        index = build_index(units, AnnSpec(backend="ivfpq", recall_sample=0))
        telemetry = Telemetry()
        with obs.session(telemetry):
            index.updated(units, np.arange(len(units)), retrain_threshold=0.0)
        assert telemetry.registry.counters.get("ann.retrains", 0) == 1

    def test_store_round_trip(self, tmp_path):
        units = clustered_units(n=600)
        spec = AnnSpec(
            backend="ivfpq", nprobe=8, pq_m=4, pq_bits=6, recall_sample=0
        )
        index = build_index(units, spec)
        store = ArtifactStore(tmp_path)
        store.save("ann-index", "a" * 12, IVFPQ_INDEX_CODEC, index)
        loaded = store.load("ann-index", "a" * 12, IVFPQ_INDEX_CODEC)
        assert loaded is not None
        back = loaded[0]
        assert isinstance(back, IVFPQIndex)
        assert back.spec == spec
        rows = np.arange(100)
        nb_a, s_a = index.search(rows, 5)
        nb_b, s_b = back.search(rows, 5)
        np.testing.assert_array_equal(nb_a, nb_b)
        np.testing.assert_array_equal(s_a, s_b)

    def test_pipeline_end_to_end_with_ivfpq(self, small_bundle):
        config = DarkVecConfig(
            epochs=4, seed=3, ann_backend="ivfpq", ann_nprobe=16
        )
        darkvec = DarkVec(config).fit(small_bundle.trace)
        report = darkvec.evaluate(small_bundle.truth, eval_days=None)
        assert report.accuracy >= 0.0  # runs end to end
        result = darkvec.cluster()
        assert result.n_clusters > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AnnSpec(backend="ivfpq", pq_bits=0)
        with pytest.raises(ValueError):
            AnnSpec(backend="ivfpq", pq_bits=9)
        with pytest.raises(ValueError):
            AnnSpec(backend="ivfpq", pq_m=-1)
        with pytest.raises(ValueError):
            DarkVecConfig(ann_pq_bits=12)


# ---------------------------------------------------------------------------
# RSS gauge + CLI flags
# ---------------------------------------------------------------------------


class TestRssGauge:
    def test_sample_rss_peak_sets_gauge(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            obs.sample_rss_peak()
        value = telemetry.registry.gauges.get("proc.rss_peak")
        assert value is not None and value > 0

    def test_rss_readers_positive(self):
        assert obs.rss_bytes() > 0
        assert obs.rss_peak_bytes() >= obs.rss_bytes() // 2


class TestCliFlags:
    def test_run_parser_accepts_scale_flags(self):
        from repro.cli import build_parser

        for verb in ("run", "resume"):
            args = build_parser().parse_args(
                [
                    verb,
                    "--trace", "t.csv",
                    "--cache-dir", "cache",
                    "--shard-size", "50000",
                    "--mmap",
                    "--pool-backend", "process",
                    "--ann-backend", "ivfpq",
                    "--ann-pq-m", "10",
                    "--ann-pq-bits", "6",
                ]
            )
            assert args.shard_size == 50000
            assert args.use_mmap is True
            assert args.pool_backend == "process"
            assert args.ann_backend == "ivfpq"
            assert args.ann_pq_m == 10
            assert args.ann_pq_bits == 6

    def test_no_mmap_negation(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--trace", "t.csv", "--cache-dir", "c", "--no-mmap"]
        )
        assert args.use_mmap is False

    @pytest.mark.parametrize("verb", ["evaluate", "cluster"])
    @pytest.mark.parametrize(
        "flag",
        [["--shard-size", "1000"], ["--mmap"], ["--no-mmap"]],
        ids=["shard-size", "mmap", "no-mmap"],
    )
    def test_search_verbs_take_only_the_pool_flag(self, verb, flag, capsys):
        """evaluate and cluster build no stage artifacts: they refuse
        the shard and mmap flags and keep --pool-backend."""
        from repro.cli import build_parser

        base = [verb, "--trace", "t.csv", "--vectors", "v.npz"]
        if verb == "evaluate":
            base += ["--labels", "l.csv"]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(base + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        args = build_parser().parse_args(base + ["--pool-backend", "process"])
        assert args.pool_backend == "process"
        assert not hasattr(args, "shard_size") and not hasattr(args, "use_mmap")

    def test_update_parser_accepts_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "update",
                "--trace", "d.csv",
                "--cache-dir", "c",
                "--pool-backend", "process",
                "--shard-size", "1000",
            ]
        )
        assert args.pool_backend == "process"
        assert args.shard_size == 1000

    def test_registry_fingerprint_covers_scale_knobs(self, tmp_path, small_trace):
        from repro.obs.registry import config_fingerprint

        base = DarkVecConfig(epochs=1, seed=3)
        assert config_fingerprint(base) != config_fingerprint(
            DarkVecConfig(epochs=1, seed=3, shard_size=64)
        )
        assert config_fingerprint(base) != config_fingerprint(
            DarkVecConfig(epochs=1, seed=3, pool_backend="process")
        )
        assert config_fingerprint(base) != config_fingerprint(
            DarkVecConfig(epochs=1, seed=3, use_mmap=True)
        )
        assert config_fingerprint(base) != config_fingerprint(
            DarkVecConfig(epochs=1, seed=3, ann_pq_m=4)
        )
        config = DarkVecConfig(
            epochs=1, seed=3, shard_size=64, use_mmap=True, cache_dir=tmp_path
        )
        darkvec = DarkVec(config).fit(small_trace)
        record = darkvec.registry.last()
        assert record["config_fingerprint"] == config_fingerprint(config)
