"""Artifact store: fingerprints, codecs, cache correctness."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import DarkVec, DarkVecConfig
from repro.core.stages import StagedPipeline
from repro.corpus.document import Corpus, Sentence
from repro.graph.knn_graph import KnnGraph
from repro.io.artifacts import (
    CORPUS_CODEC,
    KEYEDVECTORS_CODEC,
    KNN_GRAPH_CODEC,
    TRACE_CODEC,
    VOCAB_CODEC,
    trace_content_hash,
)
from repro import obs
from repro.store.cache import ArtifactStore
from repro.store.fingerprint import stable_hash, stage_fingerprint
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.vocab import Vocabulary


class TestStableHash:
    def test_deterministic_across_calls(self):
        value = {"a": np.arange(5), "b": [1, 2.5, "x"], "c": None}
        assert stable_hash(value) == stable_hash(
            {"c": None, "b": [1, 2.5, "x"], "a": np.arange(5)}
        )

    def test_distinguishes_types(self):
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash("1") != stable_hash(1)
        # tuples and lists hash alike on purpose: stage fields travel
        # through JSON, which cannot tell them apart
        assert stable_hash([1]) == stable_hash((1,))

    def test_distinguishes_array_dtype_and_shape(self):
        a = np.arange(6, dtype=np.int64)
        assert stable_hash(a) != stable_hash(a.astype(np.int32))
        assert stable_hash(a) != stable_hash(a.reshape(2, 3))

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_stage_fingerprint_sensitivity(self):
        base = stage_fingerprint("corpus", 1, {"delta_t": 3600.0}, {"ingest": "ab"})
        assert base == stage_fingerprint(
            "corpus", 1, {"delta_t": 3600.0}, {"ingest": "ab"}
        )
        assert base != stage_fingerprint(
            "corpus", 2, {"delta_t": 3600.0}, {"ingest": "ab"}
        )
        assert base != stage_fingerprint(
            "corpus", 1, {"delta_t": 1800.0}, {"ingest": "ab"}
        )
        assert base != stage_fingerprint(
            "corpus", 1, {"delta_t": 3600.0}, {"ingest": "cd"}
        )


class TestCodecs:
    def test_trace_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.npz"
        TRACE_CODEC.save(tiny_trace, path)
        loaded = TRACE_CODEC.load(path)
        assert np.array_equal(loaded.times, tiny_trace.times)
        assert np.array_equal(loaded.senders, tiny_trace.senders)
        assert np.array_equal(loaded.sender_ips, tiny_trace.sender_ips)
        assert trace_content_hash(loaded) == trace_content_hash(tiny_trace)

    def test_corpus_round_trip(self, tmp_path):
        corpus = Corpus(
            sentences=[
                Sentence(np.array([3, 1, 4, 1]), service_id=0, window=2),
                Sentence(np.array([5]), service_id=1, window=0),
            ],
            service_names=("telnet", "other"),
        )
        path = tmp_path / "corpus.npz"
        CORPUS_CODEC.save(corpus, path)
        loaded = CORPUS_CODEC.load(path)
        assert loaded.service_names == corpus.service_names
        assert len(loaded) == 2
        for got, want in zip(loaded.sentences, corpus.sentences):
            assert np.array_equal(got.tokens, want.tokens)
            assert (got.service_id, got.window) == (want.service_id, want.window)
        assert CORPUS_CODEC.content_hash(loaded) == CORPUS_CODEC.content_hash(corpus)

    def test_empty_corpus_round_trip(self, tmp_path):
        corpus = Corpus(sentences=[], service_names=())
        path = tmp_path / "corpus.npz"
        CORPUS_CODEC.save(corpus, path)
        assert len(CORPUS_CODEC.load(path)) == 0

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary(
            tokens=np.array([2, 5, 9]), counts=np.array([4, 1, 7])
        )
        active = np.array([2, 9])
        path = tmp_path / "vocab.npz"
        VOCAB_CODEC.save((vocab, active), path)
        got_vocab, got_active = VOCAB_CODEC.load(path)
        assert np.array_equal(got_vocab.tokens, vocab.tokens)
        assert np.array_equal(got_vocab.counts, vocab.counts)
        assert np.array_equal(got_active, active)

    def test_keyedvectors_round_trip_with_context(self, tmp_path):
        keyed = KeyedVectors(
            tokens=np.array([1, 3]),
            vectors=np.ones((2, 4), dtype=np.float32),
            context_vectors=np.full((2, 4), 2.0, dtype=np.float32),
        )
        path = tmp_path / "kv.npz"
        KEYEDVECTORS_CODEC.save(keyed, path)
        loaded = KEYEDVECTORS_CODEC.load(path)
        assert np.array_equal(loaded.vectors, keyed.vectors)
        assert np.array_equal(loaded.context_vectors, keyed.context_vectors)
        # presence/absence of the context matrix changes the content
        bare = KeyedVectors(tokens=keyed.tokens, vectors=keyed.vectors)
        assert KEYEDVECTORS_CODEC.content_hash(
            keyed
        ) != KEYEDVECTORS_CODEC.content_hash(bare)

    def test_graph_round_trip(self, tmp_path):
        graph = KnnGraph(
            n_nodes=4,
            sources=np.array([0, 1, 2]),
            targets=np.array([1, 2, 3]),
            weights=np.array([0.5, 0.25, 1.0]),
        )
        path = tmp_path / "graph.npz"
        KNN_GRAPH_CODEC.save(graph, path)
        loaded = KNN_GRAPH_CODEC.load(path)
        assert loaded.n_nodes == 4
        assert np.array_equal(loaded.targets, graph.targets)


class TestArtifactStore:
    def test_save_load_round_trip(self, tiny_trace, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "a" * 16
        content = store.save("ingest", fp, TRACE_CODEC, tiny_trace)
        loaded = store.load("ingest", fp, TRACE_CODEC)
        assert loaded is not None
        obj, got_hash = loaded
        assert got_hash == content
        assert np.array_equal(obj.times, tiny_trace.times)

    def test_miss_on_absent_fingerprint(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("ingest", "b" * 16, TRACE_CODEC) is None

    def test_corrupted_artifact_is_discarded(self, tiny_trace, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "c" * 16
        store.save("ingest", fp, TRACE_CODEC, tiny_trace)
        # flip bytes of the payload file
        (payload,) = [
            p
            for p in (tmp_path / "objects").iterdir()
            if p.suffix == ".npz"
        ]
        payload.write_bytes(b"garbage")
        assert store.load("ingest", fp, TRACE_CODEC) is None
        # a fresh save repairs the entry
        store.save("ingest", fp, TRACE_CODEC, tiny_trace)
        assert store.load("ingest", fp, TRACE_CODEC) is not None

    def test_unreadable_meta_is_a_miss(self, tiny_trace, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "d" * 16
        store.save("ingest", fp, TRACE_CODEC, tiny_trace)
        (meta,) = (tmp_path / "objects").glob("*.meta.json")
        meta.write_text("{not json")
        assert store.load("ingest", fp, TRACE_CODEC) is None

    def test_stale_format_is_a_miss(self, tiny_trace, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "e" * 16
        store.save("ingest", fp, TRACE_CODEC, tiny_trace)
        (meta,) = (tmp_path / "objects").glob("*.meta.json")
        doc = json.loads(meta.read_text())
        doc["format"] = 999
        meta.write_text(json.dumps(doc))
        assert store.load("ingest", fp, TRACE_CODEC) is None

    def test_entries_lists_artifacts(self, tiny_trace, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("ingest", "f" * 16, TRACE_CODEC, tiny_trace)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["stage"] == "ingest"

    def test_counters_are_recorded(self, tiny_trace, tmp_path):
        telemetry = obs.Telemetry()
        with obs.session(telemetry):
            store = ArtifactStore(tmp_path)
            fp = "9" * 16
            store.load("ingest", fp, TRACE_CODEC)  # miss
            store.save("ingest", fp, TRACE_CODEC, tiny_trace)
            store.load("ingest", fp, TRACE_CODEC)  # hit
        counters = telemetry.registry.counters
        assert counters["store.misses"] == 1
        assert counters["store.writes"] == 1
        assert counters["store.hits"] == 1


class TestCacheCorrectness:
    """ISSUE acceptance: all-hit reruns, downstream-only invalidation."""

    @pytest.fixture(scope="class")
    def cached_fit(self, small_trace, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("cache")
        config = DarkVecConfig(epochs=2, seed=3, cache_dir=cache_dir)
        darkvec = DarkVec(config).fit(small_trace)
        return cache_dir, config, darkvec

    def test_first_run_misses_everything(self, cached_fit):
        _, _, darkvec = cached_fit
        assert [s.status for s in darkvec.stage_statuses] == ["miss"] * 5

    def test_second_run_hits_everything(self, cached_fit, small_trace):
        cache_dir, config, first = cached_fit
        again = DarkVec(config).fit(small_trace)
        assert [s.status for s in again.stage_statuses] == ["hit"] * 5
        assert np.array_equal(again.embedding.vectors, first.embedding.vectors)
        assert np.array_equal(again.embedding.tokens, first.embedding.tokens)

    def test_flipping_k_prime_invalidates_only_knn_index(
        self, cached_fit, small_trace
    ):
        _, config, darkvec = cached_fit

        def store_ops(fitted: DarkVec) -> dict[str, int]:
            """Artifact-store hits, misses and writes of one cluster()."""
            telemetry = obs.Telemetry()
            with obs.session(telemetry):
                fitted.cluster()
            counters = telemetry.registry.counters
            return {
                op: counters.get(f"store.{op}", 0)
                for op in ("hits", "misses", "writes")
            }

        darkvec.cluster()  # populate the knn-index artifact
        assert store_ops(darkvec) == {"hits": 1, "misses": 0, "writes": 0}
        flipped = dataclasses.replace(config, k_prime=config.k_prime + 1)
        refit = DarkVec(flipped).fit(small_trace)
        assert [s.status for s in refit.stage_statuses] == ["hit"] * 5
        assert store_ops(refit) == {"hits": 0, "misses": 1, "writes": 1}

    def test_flipping_delta_t_invalidates_corpus_downstream(
        self, cached_fit, small_trace
    ):
        cache_dir, config, _ = cached_fit
        flipped = dataclasses.replace(config, delta_t=config.delta_t / 2)
        pipeline = StagedPipeline(flipped, store=ArtifactStore(cache_dir))
        _, statuses = pipeline.run(small_trace)
        by_stage = {s.stage: s.status for s in statuses}
        assert by_stage["ingest"] == "hit"
        assert by_stage["service-map"] == "hit"
        assert by_stage["corpus"] == "miss"
        assert by_stage["vocab"] == "miss"
        assert by_stage["train"] == "miss"

    def test_flipping_seed_invalidates_only_train(self, cached_fit, small_trace):
        cache_dir, config, _ = cached_fit
        flipped = dataclasses.replace(config, seed=config.seed + 1)
        pipeline = StagedPipeline(flipped, store=ArtifactStore(cache_dir))
        _, statuses = pipeline.run(small_trace)
        by_stage = {s.stage: s.status for s in statuses}
        assert by_stage["train"] == "miss"
        for stage in ("ingest", "service-map", "corpus", "vocab"):
            assert by_stage[stage] == "hit", stage

    def test_corrupted_train_artifact_recomputes(self, cached_fit, small_trace):
        cache_dir, config, first = cached_fit
        for payload in (cache_dir / "objects").glob("train-*.npz"):
            payload.write_bytes(b"\x00corrupt")
        again = DarkVec(config).fit(small_trace)
        by_stage = {s.stage: s.status for s in again.stage_statuses}
        assert by_stage["train"] == "miss"
        assert np.array_equal(again.embedding.vectors, first.embedding.vectors)

    def test_staged_path_without_store_is_uncached(self, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(small_trace)
        assert [s.status for s in darkvec.stage_statuses] == ["uncached"] * 5
