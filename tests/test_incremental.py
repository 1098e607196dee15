"""Staged fit equivalence, warm starts, and incremental update()."""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.obs.drift as drift_module
from repro.ann import ExactIndex, IVFIndex, IVFPQIndex, audit
from repro.core import DarkVec, DarkVecConfig
from repro.core.pipeline import NotFittedError
from repro.corpus.builder import CorpusBuilder
from repro.io.artifacts import IVF_INDEX_CODEC, IVFPQ_INDEX_CODEC
from repro.trace.merge import merge_traces
from repro.trace.packet import SECONDS_PER_DAY
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.model import Word2Vec
from repro.w2v.vocab import Vocabulary

DAY = float(SECONDS_PER_DAY)


class TestStagedFitEquivalence:
    def test_bit_identical_to_monolithic_path(self, small_trace):
        """The staged fit reproduces the historical fit exactly.

        Reference: filter-first corpus build + cold Word2Vec, i.e. the
        monolithic pipeline before the stage-graph refactor.
        """
        config = DarkVecConfig(epochs=3, seed=3)
        active = small_trace.active_senders(config.min_packets)
        service_map = config.resolve_service_map(small_trace)
        corpus = CorpusBuilder(service_map, delta_t=config.delta_t).build(
            small_trace, keep_senders=active
        )
        reference = Word2Vec(
            vector_size=config.vector_size,
            context=config.context,
            negative=config.negative,
            epochs=config.epochs,
            seed=config.seed,
            workers=config.workers,
        ).fit([sentence.tokens for sentence in corpus])

        darkvec = DarkVec(config).fit(small_trace)
        assert np.array_equal(darkvec.embedding.tokens, reference.tokens)
        assert np.array_equal(darkvec.embedding.vectors, reference.vectors)

    def test_filtered_corpus_matches_legacy_view(self, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(small_trace)
        active = small_trace.active_senders(config.min_packets)
        service_map = config.resolve_service_map(small_trace)
        legacy = CorpusBuilder(service_map, delta_t=config.delta_t).build(
            small_trace, keep_senders=active
        )
        assert len(darkvec.corpus) == len(legacy)
        for got, want in zip(darkvec.corpus, legacy):
            assert np.array_equal(got.tokens, want.tokens)


class TestWarmStart:
    def test_seeds_prior_vectors(self):
        sentences = [np.array([0, 1, 2, 0, 1, 2, 1, 0])] * 4
        prior = KeyedVectors(
            tokens=np.array([0, 2]),
            vectors=np.full((2, 8), 0.5, dtype=np.float32),
        )
        model = Word2Vec(
            vector_size=8, context=2, epochs=1, seed=5, alpha=1e-10,
            min_alpha=1e-12, negative=0,
        )
        warm = model.fit(sentences, init=prior)
        rows = warm.rows_of(np.array([0, 2]))
        # with a negligible learning rate the seeded vectors survive
        np.testing.assert_allclose(
            warm.vectors[rows], prior.vectors, atol=1e-4
        )
        fresh_row = int(warm.rows_of(np.array([1]))[0])
        assert not np.allclose(warm.vectors[fresh_row], 0.5, atol=1e-2)

    def test_rng_stream_unchanged_by_warm_start(self):
        sentences = [np.array([0, 1, 2, 3, 0, 1, 2, 3])] * 4
        prior = KeyedVectors(
            tokens=np.array([7]),  # disjoint: seeds nothing
            vectors=np.zeros((1, 8), dtype=np.float32),
        )
        kw = dict(vector_size=8, context=2, epochs=2, seed=5)
        cold = Word2Vec(**kw).fit(sentences)
        warm = Word2Vec(**kw).fit(sentences, init=prior)
        assert np.array_equal(cold.vectors, warm.vectors)

    def test_dimension_mismatch_raises(self):
        prior = KeyedVectors(
            tokens=np.array([0]), vectors=np.zeros((1, 4), dtype=np.float32)
        )
        model = Word2Vec(vector_size=8, context=2, epochs=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.fit([np.array([0, 1, 0, 1])], init=prior)

    def test_context_matrix_round_trips(self, tmp_path):
        sentences = [np.array([0, 1, 2, 0, 1, 2])] * 3
        keyed = Word2Vec(vector_size=4, context=2, epochs=1, seed=2).fit(
            sentences
        )
        assert keyed.context_vectors is not None
        assert keyed.context_vectors.shape == keyed.vectors.shape
        keyed.save(tmp_path / "kv")
        loaded = KeyedVectors.load(tmp_path / "kv")
        assert np.array_equal(loaded.context_vectors, keyed.context_vectors)


class TestKeyedVectorsSuffix:
    def test_save_load_round_trip_without_suffix(self, tmp_path):
        keyed = KeyedVectors(
            tokens=np.array([1, 5]), vectors=np.eye(2, dtype=np.float32)
        )
        keyed.save(tmp_path / "emb")  # np.savez appends .npz
        loaded = KeyedVectors.load(tmp_path / "emb")
        assert np.array_equal(loaded.tokens, keyed.tokens)
        assert np.array_equal(loaded.vectors, keyed.vectors)

    def test_save_load_round_trip_with_suffix(self, tmp_path):
        keyed = KeyedVectors(
            tokens=np.array([1, 5]), vectors=np.eye(2, dtype=np.float32)
        )
        keyed.save(tmp_path / "emb.npz")
        assert (tmp_path / "emb.npz").exists()
        assert not (tmp_path / "emb.npz.npz").exists()
        loaded = KeyedVectors.load(tmp_path / "emb.npz")
        assert np.array_equal(loaded.vectors, keyed.vectors)


class TestMergeTraces:
    def test_union_table_and_monotone_remaps(self, tiny_trace):
        half = tiny_trace.between(0.0, 5.0)
        rest = tiny_trace.between(5.0, np.inf)
        merged, remap_a, remap_b = merge_traces(half, rest)
        assert len(merged) == len(tiny_trace)
        assert np.array_equal(merged.times, tiny_trace.times)
        assert np.all(np.diff(remap_a) > 0)
        assert np.all(np.diff(remap_b) >= 0)
        # per-packet sender IPs are preserved
        assert np.array_equal(
            merged.sender_ips[merged.senders],
            tiny_trace.sender_ips[tiny_trace.senders],
        )

    def test_self_merge_is_identity_remap(self, tiny_trace):
        merged, remap_a, remap_b = merge_traces(tiny_trace, tiny_trace)
        assert merged.n_senders == tiny_trace.n_senders
        assert np.array_equal(remap_a, np.arange(tiny_trace.n_senders))
        assert np.array_equal(remap_a, remap_b)
        assert len(merged) == 2 * len(tiny_trace)


class TestVocabularyOps:
    def test_restricted_to_preserves_counts(self):
        vocab = Vocabulary(
            tokens=np.array([1, 3, 5, 7]), counts=np.array([10, 2, 4, 8])
        )
        sub = vocab.restricted_to(np.array([3, 7, 99]))
        assert np.array_equal(sub.tokens, [3, 7])
        assert np.array_equal(sub.counts, [2, 8])

    def test_merge_sums_counts(self):
        a = Vocabulary(tokens=np.array([1, 2]), counts=np.array([3, 4]))
        b = Vocabulary(tokens=np.array([2, 5]), counts=np.array([1, 6]))
        merged = Vocabulary.merge(a, b)
        assert np.array_equal(merged.tokens, [1, 2, 5])
        assert np.array_equal(merged.counts, [3, 5, 6])


@pytest.fixture(scope="module")
def split_trace(small_trace):
    """The first five days of the small trace, and the rest."""
    t0 = small_trace.start_time
    cut = t0 + 5 * DAY
    return (
        small_trace.between(t0, cut),
        small_trace.between(cut, np.inf),
    )


class TestUpdate:
    def test_requires_fit(self, tiny_trace):
        with pytest.raises(NotFittedError):
            DarkVec().update(tiny_trace)

    def test_rejects_empty_trace(self, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(small_trace)
        empty = small_trace.between(-2.0, -1.0)
        with pytest.raises(ValueError, match="non-empty"):
            darkvec.update(empty)

    def test_appends_and_reports(self, split_trace):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(head)
        darkvec.update(tail)
        report = darkvec.last_update
        assert report.new_packets == len(tail)
        assert report.evicted_packets == 0
        assert report.sentences_rebuilt > 0
        assert report.sentences_retained > 0
        assert report.warm_tokens > 0
        assert len(darkvec.trace) == len(head) + len(tail)
        # all new-day senders are now embedded (if active)
        active = darkvec.trace.active_senders(config.min_packets)
        assert np.array_equal(darkvec.embedding.tokens, np.sort(active))

    def test_rolling_window_eviction(self, split_trace):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, window_days=2.0)
        darkvec = DarkVec(config).fit(head)
        darkvec.update(tail)
        report = darkvec.last_update
        assert report.evicted_packets > 0
        assert report.sentences_evicted > 0
        span_days = (
            darkvec.trace.end_time - darkvec.trace.start_time
        ) / DAY
        # eviction is at dT-window granularity: at most one window over
        assert span_days <= 2.0 + config.delta_t / DAY + 1e-6

    def test_update_matches_cold_retrain_closely(self, small_bundle, split_trace):
        head, tail = split_trace
        config = DarkVecConfig(epochs=6, seed=3)
        warm = DarkVec(config).fit(head)
        warm.update(tail)
        cold = DarkVec(config).fit(warm.trace)
        report_warm = warm.evaluate(small_bundle.truth, eval_days=1.0)
        report_cold = cold.evaluate(small_bundle.truth, eval_days=1.0)
        assert abs(report_warm.accuracy - report_cold.accuracy) <= 0.05

    def test_state_round_trip_then_update(self, split_trace, tmp_path):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(head)
        darkvec.save_state(tmp_path / "state")
        restored = DarkVec.load_state(tmp_path / "state")
        assert np.array_equal(
            restored.embedding.vectors, darkvec.embedding.vectors
        )
        restored.update(tail)
        darkvec.update(tail)
        assert np.array_equal(
            restored.embedding.vectors, darkvec.embedding.vectors
        )


def _record_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` so each call's positional arguments are kept."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestIndexEvolution:
    """A warm update carries an approximate index through ``.updated()``."""

    @pytest.mark.parametrize(
        "backend, index_class", [("ivf", IVFIndex), ("ivfpq", IVFPQIndex)]
    )
    def test_update_evolves_the_live_index(
        self, split_trace, monkeypatch, backend, index_class
    ):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, ann_backend=backend)
        darkvec = DarkVec(config).fit(head)
        prior = darkvec._ann_index()
        evolved = _record_calls(monkeypatch, index_class, "updated")
        builds = _record_calls(monkeypatch, pipeline_module, "build_index")
        darkvec.update(tail)
        assert [call[0] for call in evolved] == [prior]
        assert builds == []
        assert isinstance(darkvec._index, index_class)
        assert len(darkvec._index) == len(darkvec.embedding)
        darkvec.cluster()  # searches the evolved index, builds nothing
        assert builds == []

    @pytest.mark.parametrize(
        "backend, codec",
        [("ivf", IVF_INDEX_CODEC), ("ivfpq", IVFPQ_INDEX_CODEC)],
    )
    def test_update_stores_the_evolved_index(
        self, split_trace, tmp_path, backend, codec
    ):
        head, tail = split_trace
        config = DarkVecConfig(
            epochs=2, seed=3, ann_backend=backend, cache_dir=tmp_path
        )
        darkvec = DarkVec(config).fit(head)
        darkvec._ann_index()
        darkvec.update(tail)
        evolved = darkvec._index
        stored, _ = darkvec.store.load(
            "ann-index", darkvec._ann_fingerprint(), codec
        )
        np.testing.assert_array_equal(stored.assign, evolved.assign)
        rows = np.arange(len(evolved))
        for got, want in zip(stored.search(rows, 7), evolved.search(rows, 7)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "backend, other, other_class",
        [("ivf", "ivfpq", IVFPQIndex), ("ivfpq", "ivf", IVFIndex)],
    )
    def test_switched_backend_is_rebuilt_not_evolved(
        self, split_trace, monkeypatch, backend, other, other_class
    ):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, ann_backend=backend)
        darkvec = DarkVec(config).fit(head)
        darkvec._ann_index()
        darkvec.config = replace(darkvec.config, ann_backend=other)
        ivf_updates = _record_calls(monkeypatch, IVFIndex, "updated")
        ivfpq_updates = _record_calls(monkeypatch, IVFPQIndex, "updated")
        builds = _record_calls(monkeypatch, pipeline_module, "build_index")
        darkvec.update(tail)
        assert ivf_updates == [] and ivfpq_updates == [] and builds == []
        assert darkvec._index is None
        darkvec.cluster()  # the next search builds the new backend
        assert len(builds) == 1
        assert isinstance(darkvec._index, other_class)

    @pytest.mark.parametrize(
        "backend, index_class", [("ivf", IVFIndex), ("ivfpq", IVFPQIndex)]
    )
    def test_evolved_index_takes_the_configured_search_knobs(
        self, split_trace, monkeypatch, backend, index_class
    ):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, ann_backend=backend)
        darkvec = DarkVec(config).fit(head)
        prior = darkvec._ann_index()
        assert prior.spec.nprobe == 8
        darkvec.config = replace(
            darkvec.config, ann_nprobe=16, ann_recall_sample=5
        )
        evolved = _record_calls(monkeypatch, index_class, "updated")
        builds = _record_calls(monkeypatch, pipeline_module, "build_index")
        darkvec.update(tail)
        assert [call[0] for call in evolved] == [prior]
        assert builds == []
        assert darkvec._index.spec == darkvec.config.ann_spec()

    def test_stored_evolved_index_matches_its_fingerprint(
        self, split_trace, tmp_path
    ):
        head, tail = split_trace
        config = DarkVecConfig(
            epochs=2, seed=3, ann_backend="ivf", cache_dir=tmp_path
        )
        darkvec = DarkVec(config).fit(head)
        darkvec._ann_index()
        darkvec.config = replace(darkvec.config, ann_nprobe=16)
        darkvec.update(tail)
        stored, _ = darkvec.store.load(
            "ann-index", darkvec._ann_fingerprint(), IVF_INDEX_CODEC
        )
        assert stored.spec.nprobe == darkvec._index.spec.nprobe == 16
        rows = np.arange(len(stored))
        for got, want in zip(
            stored.search(rows, 7), darkvec._index.search(rows, 7)
        ):
            np.testing.assert_array_equal(got, want)

    def test_changed_build_knob_is_rebuilt_not_evolved(
        self, split_trace, monkeypatch
    ):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, ann_backend="ivf")
        darkvec = DarkVec(config).fit(head)
        darkvec._ann_index()
        darkvec.config = replace(darkvec.config, ann_nlist=5)
        evolved = _record_calls(monkeypatch, IVFIndex, "updated")
        builds = _record_calls(monkeypatch, pipeline_module, "build_index")
        darkvec.update(tail)
        assert evolved == [] and builds == []
        assert darkvec._index is None
        darkvec.cluster()  # the next search builds with the new nlist
        assert len(builds) == 1
        assert darkvec._index.nlist == 5

    def test_exact_never_evolves(self, split_trace, monkeypatch):
        head, tail = split_trace
        darkvec = DarkVec(DarkVecConfig(epochs=2, seed=3)).fit(head)
        darkvec._ann_index()
        builds = _record_calls(monkeypatch, pipeline_module, "build_index")
        darkvec.update(tail)
        assert darkvec._index is None
        darkvec.cluster()
        assert len(builds) == 1
        assert isinstance(darkvec._index, ExactIndex)


class TestFailedUpdateKeepsPriorModel:
    """An update that raises after its refit re-raises and leaves the
    prior model and index installed, not its candidate."""

    def _break_monitor(self, darkvec, monkeypatch):
        def crash(*args, **kwargs):
            raise ValueError("drift monitor crashed")

        monkeypatch.setattr(drift_module, "embedding_drift", crash)

    def _break_record(self, darkvec, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module, "record_run", refuse)

    @pytest.mark.parametrize(
        "break_, error",
        [("_break_monitor", ValueError), ("_break_record", OSError)],
        ids=["monitors", "record"],
    )
    def test_prior_model_and_index_stay_installed(
        self, split_trace, tmp_path, monkeypatch, break_, error
    ):
        head, tail = split_trace
        config = DarkVecConfig(
            epochs=2, seed=3, ann_backend="ivf", cache_dir=tmp_path
        )
        darkvec = DarkVec(config).fit(head)
        fitted, index = darkvec.fitted, darkvec._ann_index()
        getattr(self, break_)(darkvec, monkeypatch)
        with pytest.raises(error):
            darkvec.update(tail)
        assert darkvec.fitted is fitted
        assert darkvec._index is index
        assert len(darkvec.trace) == len(head)


class TestRecallMonitor:
    """The ``ann_recall`` verdict reads only the candidate's own audits."""

    @staticmethod
    def _ann_recall(darkvec):
        return next(
            m for m in darkvec.last_health.monitors if m.name == "ann_recall"
        )

    def test_other_threads_audits_do_not_reach_the_verdict(
        self, split_trace, monkeypatch
    ):
        head, tail = split_trace
        config = DarkVecConfig(epochs=2, seed=3, ann_backend="ivf")
        clean = DarkVec(config).fit(head).update(tail, health_gate=True)
        expected = self._ann_recall(clean)
        assert expected.value is not None

        # A reader thread records a one-query audit of another index
        # between the monitors' churn search and the verdict.
        monitor_ingest = DarkVec._monitor_ingest

        def with_reader_audit(darkvec, trace, kind):
            reader = threading.Thread(
                target=audit.record_recall, args=(0.0, 1)
            )
            reader.start()
            reader.join()
            return monitor_ingest(darkvec, trace, kind)

        monkeypatch.setattr(DarkVec, "_monitor_ingest", with_reader_audit)
        disturbed = DarkVec(config).fit(head).update(tail, health_gate=True)
        assert self._ann_recall(disturbed) == expected
        assert audit.last_recall() == 0.0  # the reader's own record


class TestEmptyEvaluationWindow:
    def test_evaluation_rows_raises_clearly(self, small_bundle, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        # train on the first day only; senders of the last day that
        # never appear in day one are not embedded
        head = small_trace.between(
            small_trace.start_time, small_trace.start_time + 0.5 * DAY
        )
        darkvec = DarkVec(config).fit(head)
        # the fitted trace is day one, so its "last day" overlaps; force
        # an empty window with an impossible eval_days slice instead
        darkvec.fitted = replace(
            darkvec.fitted, trace=small_trace.between(-2.0, -1.0)
        )
        with pytest.raises(ValueError, match="empty evaluation window"):
            darkvec.evaluation_rows(1.0)

    def test_evaluate_propagates_the_error(self, small_bundle, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(small_trace)
        darkvec.fitted = replace(
            darkvec.fitted, trace=small_trace.between(-2.0, -1.0)
        )
        with pytest.raises(ValueError, match="empty evaluation window"):
            darkvec.evaluate(small_bundle.truth, eval_days=1.0)

    def test_eval_days_none_still_works(self, small_trace):
        config = DarkVecConfig(epochs=2, seed=3)
        darkvec = DarkVec(config).fit(small_trace)
        rows = darkvec.evaluation_rows(None)
        assert len(rows) == len(darkvec.embedding)
