"""Tests for repro.knn.classifier and repro.knn.loo."""

import numpy as np
import pytest

from repro.knn.classifier import CosineKnn, knn_search, majority_vote
from repro.knn.loo import leave_one_out_predictions
from repro.w2v.mathutils import unit_rows


@pytest.fixture()
def two_clusters():
    """20 points: 10 near (1,0), 10 near (0,1)."""
    rng = np.random.default_rng(0)
    a = np.array([1.0, 0.0]) + rng.normal(0, 0.05, size=(10, 2))
    b = np.array([0.0, 1.0]) + rng.normal(0, 0.05, size=(10, 2))
    vectors = np.vstack([a, b])
    labels = np.array(["A"] * 10 + ["B"] * 10, dtype=object)
    return vectors, labels


class TestKnnSearch:
    def test_neighbors_sorted_by_similarity(self, two_clusters):
        vectors, _ = two_clusters
        units = unit_rows(vectors)
        _, sims = knn_search(units, np.array([0]), k=5)
        assert np.all(np.diff(sims[0]) <= 0)

    def test_self_excluded(self, two_clusters):
        vectors, _ = two_clusters
        units = unit_rows(vectors)
        neighbors, _ = knn_search(units, np.arange(20), k=3)
        for i, row in enumerate(neighbors):
            assert i not in row

    def test_self_included_when_asked(self, two_clusters):
        vectors, _ = two_clusters
        units = unit_rows(vectors)
        neighbors, _ = knn_search(units, np.arange(20), k=1, exclude_self=False)
        assert np.array_equal(neighbors[:, 0], np.arange(20))

    def test_neighbors_from_same_cluster(self, two_clusters):
        vectors, _ = two_clusters
        units = unit_rows(vectors)
        neighbors, _ = knn_search(units, np.arange(10), k=5)
        assert (neighbors < 10).all()

    def test_k_too_large_raises(self, two_clusters):
        vectors, _ = two_clusters
        with pytest.raises(ValueError):
            knn_search(unit_rows(vectors), np.array([0]), k=20)

    def test_invalid_k(self, two_clusters):
        vectors, _ = two_clusters
        with pytest.raises(ValueError):
            knn_search(unit_rows(vectors), np.array([0]), k=0)


class TestMajorityVote:
    def test_simple_majority(self):
        labels = np.array(["A", "A", "B"], dtype=object)
        neighbors = np.array([[0, 1, 2]])
        sims = np.array([[0.9, 0.8, 0.99]])
        assert majority_vote(labels, neighbors, sims)[0] == "A"

    def test_tie_breaks_on_similarity(self):
        labels = np.array(["A", "B"], dtype=object)
        neighbors = np.array([[0, 1]])
        sims = np.array([[0.5, 0.9]])
        assert majority_vote(labels, neighbors, sims)[0] == "B"

    def test_deterministic_lexicographic_fallback(self):
        labels = np.array(["B", "A"], dtype=object)
        neighbors = np.array([[0, 1]])
        sims = np.array([[0.5, 0.5]])
        assert majority_vote(labels, neighbors, sims)[0] == "B"  # max lex


class TestCosineKnn:
    def test_predicts_cluster_labels(self, two_clusters):
        vectors, labels = two_clusters
        classifier = CosineKnn(vectors, labels, k=3)
        predictions, _ = classifier.predict_rows(np.arange(20), exclude_self=True)
        assert (predictions == labels).all()

    def test_neighbor_distances_small_within_cluster(self, two_clusters):
        vectors, labels = two_clusters
        classifier = CosineKnn(vectors, labels, k=3)
        _, distances = classifier.predict_rows(np.arange(20), exclude_self=True)
        assert distances.max() < 0.05

    def test_misaligned_inputs(self, two_clusters):
        vectors, labels = two_clusters
        with pytest.raises(ValueError):
            CosineKnn(vectors, labels[:-1])

    def test_concurrent_queries_get_their_own_answers(self, two_clusters):
        """Threads querying *different* rows never get each other's answers.

        The serving read path runs one classifier under many handler
        threads, so a prediction must depend on its own rows only.
        """
        import sys
        import threading

        vectors, labels = two_clusters
        classifier = CosineKnn(vectors, labels, k=3)
        rows = [np.array([i]) for i in range(8)]

        def answer(row: np.ndarray) -> tuple:
            labels, distances = classifier.predict_rows(row, exclude_self=True)
            return labels[0], distances[0]

        expected = [answer(row) for row in rows]
        crossed: list[tuple] = []
        start = threading.Barrier(len(rows))

        def hammer(i: int) -> None:
            row, want = rows[i], expected[i]
            start.wait()
            for _ in range(300):
                got = answer(row)
                if got != want:
                    crossed.append((i, got))
                    return

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(len(rows))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert crossed == []


class TestLeaveOneOut:
    def test_perfect_on_separated_clusters(self, two_clusters):
        vectors, labels = two_clusters
        predictions = leave_one_out_predictions(vectors, labels, np.arange(20), k=3)
        assert (predictions == labels).all()

    def test_subset_evaluation(self, two_clusters):
        vectors, labels = two_clusters
        rows = np.array([0, 15])
        predictions = leave_one_out_predictions(vectors, labels, rows, k=3)
        assert predictions.tolist() == ["A", "B"]
