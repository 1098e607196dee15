"""Tests for the parallel engine and the vectorized hot paths.

Covers the engine's contract: every skip-gram fit trains through
:class:`~repro.parallel.trainer.ShardedTrainer` (``workers=1`` on one
inline thread, bit-reproducible), shards stay within the raw-pair
budget, ``workers>1`` trains statistically equivalent embeddings, and
the vectorized ``majority_vote`` / ``symmetric_adjacency`` /
``expected_pair_count`` / flat pair generation match their reference
(loop-based) implementations exactly.
"""

import numpy as np
import pytest

from repro.core import DarkVec, DarkVecConfig
from repro.graph.knn_graph import KnnGraph, build_knn_graph
from repro.knn.classifier import knn_search, majority_vote
from repro.knn.loo import leave_one_out_predictions
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.parallel.sgd import dedup_pairs, scaled_scatter_add, sigmoid_table
from repro.w2v.mathutils import scatter_add, sigmoid
from repro.w2v.model import Word2Vec
from repro.w2v.skipgram import (
    expected_pair_count,
    skipgram_pairs,
    skipgram_pairs_flat,
)


def _community_sentences(seed=0, n=300, groups=2, group_size=20, length=30):
    """Sentences drawing tokens from one community each."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n):
        g = rng.integers(0, groups)
        tokens = rng.integers(0, group_size, size=length) + g * group_size
        sentences.append(tokens.astype(np.int64))
    return sentences


class TestWorkerPool:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(-1) >= 1

    def test_map_preserves_order(self):
        for workers in (1, 4):
            with WorkerPool(workers) as pool:
                assert pool.map(lambda x: x * x, range(10)) == [
                    x * x for x in range(10)
                ]

    def test_submit_returns_result(self):
        with WorkerPool(4) as pool:
            assert pool.submit(sum, [1, 2, 3]).result() == 6

    def test_submit_propagates_exception(self):
        def boom():
            raise ValueError("boom")

        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.submit(boom).result()

    def test_pool_backend_scope_is_per_thread(self):
        import threading

        from repro.parallel.pool import default_backend, pool_backend

        entered, release = threading.Event(), threading.Event()
        seen = {}

        def writer():
            with pool_backend("process"):
                seen["writer"] = default_backend()
                entered.set()
                release.wait(10)
            seen["writer_after"] = default_backend()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert entered.wait(10)
            seen["reader"] = default_backend()
            seen["reader_pool"] = WorkerPool(2).backend
        finally:
            release.set()
            thread.join(10)
        assert seen == {
            "writer": "process",
            "reader": "thread",
            "reader_pool": "thread",
            "writer_after": "thread",
        }
        assert default_backend() == "thread"

    def test_threads_capped_at_cores(self):
        import os

        pool = WorkerPool(10_000)
        assert pool.threads <= (os.cpu_count() or 1)
        assert pool.workers == 10_000


class TestSgdKernels:
    def test_sigmoid_table_close_to_exact(self):
        x = np.linspace(-15, 15, 1001).astype(np.float32)
        assert np.abs(sigmoid_table(x) - sigmoid(x)).max() < 5e-3

    def test_scaled_scatter_add_matches_reference(self):
        rng = np.random.default_rng(0)
        # dense selector, sparse selector, sort + reduceat
        for n_rows, batch in ((8, 400), (300, 400), (5000, 40)):
            matrix = rng.normal(size=(n_rows, 6)).astype(np.float32)
            reference = matrix.copy()
            rows = rng.integers(0, n_rows, size=batch)
            updates = rng.normal(size=(batch, 6)).astype(np.float32)
            scale = rng.random(batch).astype(np.float32)
            scaled_scatter_add(matrix, rows, updates, scale=scale)
            scatter_add(reference, rows, updates * scale[:, None])
            np.testing.assert_allclose(matrix, reference, atol=1e-5)

    def test_dedup_pairs_roundtrip(self):
        rng = np.random.default_rng(1)
        centers = rng.integers(0, 30, size=500)
        contexts = rng.integers(0, 30, size=500)
        uc, ux, mult = dedup_pairs(centers, contexts, 30)
        assert mult.sum() == 500
        rebuilt = set()
        for c, x, m in zip(uc, ux, mult):
            rebuilt.add((int(c), int(x), int(m)))
        from collections import Counter

        raw = Counter(zip(centers.tolist(), contexts.tolist()))
        assert rebuilt == {(c, x, m) for (c, x), m in raw.items()}


class TestSkipgramFlat:
    def _sentences(self, seed=2, n=40):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 50, size=rng.integers(2, 30)).astype(np.int64)
            for _ in range(n)
        ]

    def test_static_matches_per_sentence(self):
        sentences = self._sentences()
        flat = np.concatenate(sentences)
        starts = np.concatenate(
            [[0], np.cumsum([len(s) for s in sentences])]
        )
        centers, contexts = skipgram_pairs_flat(flat, starts, 5, dynamic=False)
        parts = [skipgram_pairs(s, 5, dynamic=False) for s in sentences]
        np.testing.assert_array_equal(
            centers, np.concatenate([p[0] for p in parts])
        )
        np.testing.assert_array_equal(
            contexts, np.concatenate([p[1] for p in parts])
        )

    def test_dynamic_matches_per_sentence_with_same_seed(self):
        sentences = self._sentences(seed=3)
        flat = np.concatenate(sentences)
        starts = np.concatenate(
            [[0], np.cumsum([len(s) for s in sentences])]
        )
        centers, contexts = skipgram_pairs_flat(
            flat, starts, 7, np.random.default_rng(9), dynamic=True
        )
        rng = np.random.default_rng(9)
        parts = [skipgram_pairs(s, 7, rng, dynamic=True) for s in sentences]
        np.testing.assert_array_equal(
            centers, np.concatenate([p[0] for p in parts])
        )
        np.testing.assert_array_equal(
            contexts, np.concatenate([p[1] for p in parts])
        )

    def test_empty_and_short_sentences(self):
        tokens = np.array([4, 7], dtype=np.int64)
        starts = np.array([0, 0, 1, 2])  # empty, [4], [7]
        centers, contexts = skipgram_pairs_flat(tokens, starts, 3, dynamic=False)
        assert len(centers) == 0 and len(contexts) == 0


class TestExpectedPairCount:
    @staticmethod
    def _reference(lengths, context, dynamic):
        """The pre-vectorization per-sentence loop."""
        total = 0.0
        for n in np.asarray(lengths, dtype=np.int64):
            n = int(n)
            if n < 2:
                continue
            k = np.arange(n)
            if dynamic:
                clipped = np.minimum(k, context)
                expected = (
                    clipped * (clipped + 1) / 2 + (context - clipped) * clipped
                ) / context
                expected[k >= context] = (context + 1) / 2
            else:
                expected = np.minimum(k, context).astype(float)
            total += 2.0 * float(expected.sum())
        return total

    @pytest.mark.parametrize("dynamic", [True, False])
    @pytest.mark.parametrize("context", [1, 3, 25])
    def test_matches_loop_reference(self, context, dynamic):
        rng = np.random.default_rng(4)
        lengths = rng.integers(0, 120, size=300)  # includes 0s and 1s
        assert expected_pair_count(
            lengths, context, dynamic=dynamic
        ) == pytest.approx(self._reference(lengths, context, dynamic))

    def test_empty_lengths(self):
        assert expected_pair_count(np.array([], dtype=np.int64), 5) == 0.0
        assert expected_pair_count(np.array([1, 1, 0]), 5) == 0.0


class TestMajorityVote:
    @staticmethod
    def _reference(labels, neighbors, similarities):
        """The pre-vectorization per-row dict loop."""
        predictions = np.empty(len(neighbors), dtype=object)
        for i, (row_neighbors, row_sims) in enumerate(
            zip(neighbors, similarities)
        ):
            votes: dict = {}
            weight: dict = {}
            for neighbor, sim in zip(row_neighbors, row_sims):
                label = labels[neighbor]
                votes[label] = votes.get(label, 0) + 1
                weight[label] = weight.get(label, 0.0) + float(sim)
            predictions[i] = max(
                votes, key=lambda lab: (votes[lab], weight[lab], lab)
            )
        return predictions

    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(5)
        label_pool = np.array(
            ["Mirai", "Censys", "Unknown", "Shodan", "Stretchoid"], dtype=object
        )
        for trial in range(20):
            n_points = int(rng.integers(10, 60))
            k = int(rng.integers(1, 9))
            n_queries = int(rng.integers(1, 40))
            labels = label_pool[rng.integers(0, len(label_pool), n_points)]
            neighbors = rng.integers(0, n_points, size=(n_queries, k))
            sims = rng.random((n_queries, k))
            np.testing.assert_array_equal(
                majority_vote(labels, neighbors, sims),
                self._reference(labels, neighbors, sims),
            )

    def test_exact_ties_break_lexicographically(self):
        labels = np.array(["A", "B"], dtype=object)
        neighbors = np.array([[0, 1]])
        sims = np.array([[0.5, 0.5]])  # equal count, equal weight
        assert majority_vote(labels, neighbors, sims)[0] == "B"

    def test_weight_breaks_count_ties(self):
        labels = np.array(["A", "B"], dtype=object)
        neighbors = np.array([[0, 1]])
        sims = np.array([[0.9, 0.3]])
        assert majority_vote(labels, neighbors, sims)[0] == "A"

    def test_empty_queries(self):
        labels = np.array(["A"], dtype=object)
        out = majority_vote(
            labels, np.empty((0, 3), dtype=np.int64), np.empty((0, 3))
        )
        assert len(out) == 0


class TestSymmetricAdjacency:
    @staticmethod
    def _reference(graph):
        """The pre-vectorization dict-of-dicts edge loop."""
        adjacency = [dict() for _ in range(graph.n_nodes)]
        for u, v, w in zip(graph.sources, graph.targets, graph.weights):
            u, v, w = int(u), int(v), float(w)
            if u == v:
                continue
            adjacency[u][v] = adjacency[u].get(v, 0.0) + w
            adjacency[v][u] = adjacency[v].get(u, 0.0) + w
        return adjacency

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            e = int(rng.integers(1, 120))
            graph = KnnGraph(
                n_nodes=n,
                sources=rng.integers(0, n, e),
                targets=rng.integers(0, n, e),
                weights=rng.random(e),
            )
            result = graph.symmetric_adjacency()
            reference = self._reference(graph)
            assert len(result) == len(reference)
            for got, want in zip(result, reference):
                assert set(got) == set(want)
                for key in want:
                    assert got[key] == pytest.approx(want[key], abs=1e-12)

    def test_csr_consistent_with_dicts(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(30, 8))
        graph = build_knn_graph(vectors, k_prime=3)
        indptr, indices, weights = graph.symmetric_csr()
        adjacency = graph.symmetric_adjacency()
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for node, neighbors in enumerate(adjacency):
            lo, hi = indptr[node], indptr[node + 1]
            assert dict(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist())) == neighbors


class TestParallelKnnSearch:
    def test_workers_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr("repro.ann.exact._MAX_CHUNK_ROWS", 16)
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(120, 10))
        from repro.w2v.mathutils import unit_rows

        units = unit_rows(vectors)
        queries = np.arange(120)
        serial = knn_search(units, queries, 5, workers=1)
        threaded = knn_search(units, queries, 5, workers=4)
        np.testing.assert_array_equal(serial[0], threaded[0])
        np.testing.assert_array_equal(serial[1], threaded[1])

    def test_graph_identical_across_workers(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(40, 6))
        a = build_knn_graph(vectors, k_prime=3, workers=1)
        b = build_knn_graph(vectors, k_prime=3, workers=4)
        np.testing.assert_array_equal(a.sources, b.sources)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestParallelTrainer:
    def test_workers1_trains_inline_through_engine(self, monkeypatch):
        from repro.parallel.trainer import ShardedTrainer

        class Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("thread executor started at workers=1")

        monkeypatch.setattr("repro.parallel.pool.ThreadPoolExecutor", Boom)
        calls = []
        for name in ("train_corpus", "train_pair_stream"):
            original = getattr(ShardedTrainer, name)

            def spy(self, *args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ShardedTrainer, name, spy)
        model = Word2Vec(vector_size=8, context=3, epochs=1, seed=5)
        assert len(model.fit(_community_sentences(n=30))) == 40
        pairs = np.arange(200) % 20
        assert len(model.fit_pairs(pairs, pairs[::-1])) == 20
        assert calls == ["train_corpus", "train_pair_stream"]

    def test_workers2_uses_parallel_engine(self, monkeypatch):
        calls = []
        from repro.parallel.trainer import ShardedTrainer

        original = ShardedTrainer.train_corpus

        def spy(self, *args, **kwargs):
            calls.append(True)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShardedTrainer, "train_corpus", spy)
        Word2Vec(vector_size=8, context=3, epochs=1, seed=5, workers=2).fit(
            _community_sentences(n=30)
        )
        assert calls

    def test_workers1_fit_is_deterministic(self):
        sentences = _community_sentences(n=40)
        a = Word2Vec(vector_size=8, context=3, epochs=2, seed=5, workers=1).fit(
            sentences
        )
        b = Word2Vec(vector_size=8, context=3, epochs=2, seed=5, workers=1).fit(
            sentences
        )
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_parallel_fit_separates_communities(self):
        sentences = _community_sentences(n=400)
        keyed = Word2Vec(
            vector_size=16, context=5, epochs=5, seed=3, workers=4
        ).fit(sentences)
        assert np.isfinite(keyed.vectors).all()
        units = keyed.unit_vectors
        sims = units @ units.T
        within = (sims[:20, :20].sum() - 20) / (20 * 19)
        across = sims[:20, 20:].mean()
        assert within > across + 0.3

    def test_parallel_fit_covers_vocabulary(self):
        sentences = _community_sentences(n=50)
        keyed = Word2Vec(
            vector_size=8, context=3, epochs=1, seed=1, workers=0
        ).fit(sentences)
        assert len(keyed) == 40

    def test_parallel_fit_pairs(self):
        rng = np.random.default_rng(10)
        group = rng.integers(0, 2, size=4000)
        centers = rng.integers(0, 10, size=4000) + group * 10
        contexts = rng.integers(0, 10, size=4000) + group * 10
        keyed = Word2Vec(vector_size=8, epochs=3, seed=1, workers=2).fit_pairs(
            centers, contexts
        )
        assert len(keyed) == 20
        assert np.isfinite(keyed.vectors).all()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            Word2Vec(workers=-1)

    def test_subsampling_supported_in_parallel(self):
        sentences = _community_sentences(n=60)
        keyed = Word2Vec(
            vector_size=8, context=3, epochs=2, seed=1, sample=1e-2, workers=2
        ).fit(sentences)
        assert np.isfinite(keyed.vectors).all()
        assert len(keyed)


class TestShardBudget:
    def test_raw_pairs_per_shard_stay_within_budget(self, monkeypatch):
        import repro.parallel.trainer as trainer_module

        budget = 3000
        monkeypatch.setattr(trainer_module, "PAIR_BUDGET", budget)
        shard_pairs = []
        original = trainer_module.skipgram_pairs_flat

        def spy(*args, **kwargs):
            centers, contexts = original(*args, **kwargs)
            shard_pairs.append(len(centers))
            return centers, contexts

        monkeypatch.setattr(trainer_module, "skipgram_pairs_flat", spy)
        # Without dynamic windows a length-30 sentence emits exactly
        # 2 * (0 + 1 + 2 + 27 * 3) = 168 pairs at context 3.
        per_sentence = 168
        for n in (40, 160, 640):
            shard_pairs.clear()
            Word2Vec(
                vector_size=8, context=3, epochs=1, seed=1, dynamic_window=False
            ).fit(_community_sentences(n=n))
            assert sum(shard_pairs) == n * per_sentence
            assert max(shard_pairs) <= budget + per_sentence
            assert len(shard_pairs) >= n * per_sentence / budget


class TestInlineShardedQuality:
    """Several shards on an inline pool must train as well as one.

    ``workers=2`` on a pool clamped to one core runs four shards per
    epoch deterministically, with no thread races involved.
    """

    @pytest.fixture(autouse=True)
    def one_core(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.pool.os.cpu_count", lambda: 1)

    def test_community_margin(self):
        # At 1600 sentences each shard holds dozens of copies of every
        # pair; merging copies beyond their own SGD batch would turn
        # them into one many-fold step from stale vectors.
        keyed = Word2Vec(
            vector_size=16, context=5, epochs=5, seed=3, workers=2
        ).fit(_community_sentences(n=1600))
        sims = keyed.unit_vectors @ keyed.unit_vectors.T
        within = (sims[:20, :20].sum() - 20) / (20 * 19)
        across = sims[:20, 20:].mean()
        assert within > across + 0.4

    def test_ip2vec_accuracy(self, small_bundle):
        from repro.baselines.ip2vec import Ip2Vec

        trace = small_bundle.trace
        senders = np.intersect1d(
            trace.active_senders(10), trace.last_days(1.0).observed_senders()
        )
        report = Ip2Vec(vector_size=16, epochs=3, seed=1, workers=2).evaluate(
            trace, small_bundle.truth, senders, k=7
        )
        assert report.accuracy > 0.15


class TestParallelAccuracy:
    """workers>1 must track the inline workers=1 LOO accuracy."""

    @pytest.fixture(scope="class")
    def reports(self, small_bundle):
        reports = {}
        for workers in (1, 4):
            config = DarkVecConfig(
                service="domain", epochs=3, seed=3, workers=workers
            )
            darkvec = DarkVec(config).fit(small_bundle.trace)
            reports[workers] = darkvec.evaluate(small_bundle.truth)
        return reports

    def test_parallel_close_to_sequential(self, reports):
        sequential, parallel = reports[1].accuracy, reports[4].accuracy
        assert parallel >= sequential - 0.1

    def test_both_paths_learn_signal(self, reports):
        assert reports[1].accuracy > 0.2
        assert reports[4].accuracy > 0.2


class TestPipelineWorkers:
    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            DarkVecConfig(workers=-2)

    def test_loo_predictions_identical_across_workers(self, fitted_darkvec):
        embedding = fitted_darkvec.embedding
        labels = np.array(
            ["L%d" % (i % 5) for i in range(len(embedding))], dtype=object
        )
        rows = np.arange(len(embedding))
        serial = leave_one_out_predictions(
            embedding.vectors, labels, rows, k=5, workers=1
        )
        threaded = leave_one_out_predictions(
            embedding.vectors, labels, rows, k=5, workers=4
        )
        np.testing.assert_array_equal(serial, threaded)


class TestDanteParallel:
    def test_workers_do_not_change_result(self, tiny_trace):
        from repro.baselines.dante import Dante

        serial = Dante(vector_size=8, context=3, epochs=2, workers=1)
        threaded = Dante(vector_size=8, context=3, epochs=2, workers=4)
        a = serial.fit_sender_vectors(tiny_trace)
        b = threaded.fit_sender_vectors(tiny_trace)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.vectors, b.vectors)
