"""Tests for the ANN subsystem (repro.ann): exact and IVF backends."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.ann import (
    AnnSpec,
    ExactIndex,
    HNSWIndex,
    IVFIndex,
    build_index,
    score_chunk_rows,
)
from repro.ann import audit
from repro.ann import exact as exact_mod
from repro.ann import hnsw as hnsw_mod
from repro.ann import ivf as ivf_mod
from repro.ann.base import BACKENDS
from repro.ann.ivf import RETRAIN_IMBALANCE
from repro.core import DarkVec, DarkVecConfig
from repro.io.artifacts import (
    HNSW_INDEX_CODEC,
    INDEX_CODECS,
    IVF_INDEX_CODEC,
)
from repro.knn.classifier import CosineKnn, knn_search
from repro.obs.recorder import Telemetry
from repro.store.cache import ArtifactStore
from repro.w2v.mathutils import unit_rows


def clustered_units(
    n: int = 600, dim: int = 16, n_clusters: int = 12, seed: int = 0
) -> np.ndarray:
    """Row-normalised vectors with clear cluster structure."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = rng.integers(0, n_clusters, size=n)
    points = centers[assign] + 0.15 * rng.normal(size=(n, dim))
    return unit_rows(points)


def random_units(n: int = 400, dim: int = 32, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return unit_rows(rng.normal(size=(n, dim)))


def legacy_knn_search(units, query_rows, k, exclude_self=True):
    """The pre-ANN knn_search: fixed 1024-row chunks, brute force."""
    n = len(units)
    query_rows = np.asarray(query_rows, dtype=np.int64)
    neighbors = np.empty((len(query_rows), k), dtype=np.int64)
    sims = np.empty((len(query_rows), k))
    for lo in range(0, len(query_rows), 1024):
        chunk = query_rows[lo : lo + 1024]
        scores = units[chunk] @ units.T
        if exclude_self:
            scores[np.arange(len(chunk)), chunk] = -np.inf
        top = np.argpartition(scores, -k, axis=1)[:, -k:]
        top_scores = np.take_along_axis(scores, top, axis=1)
        order = np.argsort(top_scores, axis=1)[:, ::-1]
        neighbors[lo : lo + 1024] = np.take_along_axis(top, order, axis=1)
        sims[lo : lo + 1024] = np.take_along_axis(top_scores, order, axis=1)
    return neighbors, sims


class TestAnnSpec:
    def test_defaults(self):
        spec = AnnSpec()
        assert spec.backend == "exact"
        assert spec.nlist == 0

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            AnnSpec(backend="nope")

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="nlist"):
            AnnSpec(nlist=-1)
        with pytest.raises(ValueError, match="nprobe"):
            AnnSpec(nprobe=0)
        with pytest.raises(ValueError, match="recall_sample"):
            AnnSpec(recall_sample=-1)

    def test_config_validates_ann_knobs(self):
        with pytest.raises(ValueError, match="backend"):
            DarkVecConfig(ann_backend="annoy")
        with pytest.raises(ValueError, match="nprobe"):
            DarkVecConfig(ann_nprobe=0)

    def test_config_spec_carries_seed(self):
        spec = DarkVecConfig(seed=42, ann_backend="ivf").ann_spec()
        assert spec.seed == 42
        assert spec.backend == "ivf"


class TestChunkBudget:
    def test_small_corpora_keep_historical_chunks(self):
        # Fixed 1024-row chunks for every N the repo historically saw.
        for n in (1, 100, 1024, 8192):
            assert score_chunk_rows(n) == 1024

    def test_large_corpora_shrink(self):
        assert score_chunk_rows(1 << 17) == 64
        assert score_chunk_rows(1 << 16) == 128

    def test_floor(self):
        assert score_chunk_rows(1 << 20) == 16
        assert score_chunk_rows(1 << 30) == 16


class TestExactIndex:
    def test_bit_identical_to_legacy_search(self):
        units = random_units(n=1500)
        rows = np.arange(1500)
        legacy_nb, legacy_s = legacy_knn_search(units, rows, 7)
        nb, s = ExactIndex(units).search(rows, 7)
        np.testing.assert_array_equal(nb, legacy_nb)
        np.testing.assert_array_equal(s, legacy_s)

    def test_bit_identical_across_chunk_sizes(self, monkeypatch):
        units = random_units(n=300)
        rows = np.arange(300)
        baseline = ExactIndex(units).search(rows, 5)
        monkeypatch.setattr(exact_mod, "_MAX_CHUNK_ROWS", 16)
        chunked = ExactIndex(units).search(rows, 5)
        # Chunk shape changes BLAS blocking, so sims may differ by one
        # ULP; the neighbour sets must not.
        np.testing.assert_array_equal(baseline[0], chunked[0])
        np.testing.assert_allclose(baseline[1], chunked[1], atol=1e-12)

    def test_workers_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(exact_mod, "_MAX_CHUNK_ROWS", 32)
        units = random_units(n=200)
        rows = np.arange(200)
        one = ExactIndex(units).search(rows, 4, workers=1)
        three = ExactIndex(units).search(rows, 4, workers=3)
        np.testing.assert_array_equal(one[0], three[0])
        np.testing.assert_array_equal(one[1], three[1])

    def test_knn_search_routes_through_exact_by_default(self):
        units = random_units(n=60)
        rows = np.arange(60)
        via_api = knn_search(units, rows, 3)
        direct = ExactIndex(units).search(rows, 3)
        np.testing.assert_array_equal(via_api[0], direct[0])

    def test_validation(self):
        units = random_units(n=5)
        with pytest.raises(ValueError, match="k must be positive"):
            ExactIndex(units).search(np.arange(5), 0)
        with pytest.raises(ValueError, match="need at least"):
            ExactIndex(units).search(np.arange(5), 5, exclude_self=True)


class TestIVFIndex:
    @pytest.fixture(scope="class")
    def units(self):
        return clustered_units()

    def test_recall_on_clustered_data(self, units):
        spec = AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=1)
        index = IVFIndex.build(units, spec)
        rows = np.arange(len(units))
        nb, _ = index.search(rows, 7)
        exact_nb, _ = ExactIndex(units).search(rows, 7)
        overlap = np.mean(
            [
                len(np.intersect1d(nb[i], exact_nb[i])) / 7
                for i in range(len(rows))
            ]
        )
        assert overlap >= 0.95

    def test_exhaustive_probe_matches_exact(self, units):
        # nprobe >= nlist scores every list: same sets as brute force.
        spec = AnnSpec(backend="ivf", nlist=8, nprobe=8, seed=1)
        nb, s = IVFIndex.build(units, spec).search(np.arange(len(units)), 5)
        exact_nb, exact_s = ExactIndex(units).search(np.arange(len(units)), 5)
        np.testing.assert_array_equal(np.sort(nb, 1), np.sort(exact_nb, 1))
        np.testing.assert_allclose(np.sort(s, 1), np.sort(exact_s, 1), atol=1e-9)

    def test_workers_do_not_change_results(self, units):
        spec = AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=1)
        index = IVFIndex.build(units, spec)
        rows = np.arange(len(units))
        one = index.search(rows, 6, workers=1)
        three = index.search(rows, 6, workers=3)
        np.testing.assert_array_equal(one[0], three[0])
        np.testing.assert_array_equal(one[1], three[1])

    def test_deterministic_rebuild(self, units):
        spec = AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=7)
        a = IVFIndex.build(units, spec)
        b = IVFIndex.build(units, spec)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assign, b.assign)

    def test_self_exclusion(self, units):
        spec = AnnSpec(backend="ivf", nlist=16, nprobe=16, seed=1)
        rows = np.arange(len(units))
        nb, _ = IVFIndex.build(units, spec).search(rows, 5, exclude_self=True)
        assert not (nb == rows[:, None]).any()

    def test_small_list_fallback_is_exact(self):
        # Far more lists than points per list: probed candidates < k,
        # so every query falls back to exhaustive search.
        units = random_units(n=40, seed=2)
        spec = AnnSpec(backend="ivf", nlist=20, nprobe=1, seed=1)
        rows = np.arange(40)
        nb, s = IVFIndex.build(units, spec).search(rows, 10)
        exact_nb, exact_s = ExactIndex(units).search(rows, 10)
        np.testing.assert_array_equal(nb, exact_nb)
        np.testing.assert_array_equal(s, exact_s)

    def test_similarities_are_float64_exact(self, units):
        # Returned sims come from a float64 rescore of the winners.
        spec = AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=1)
        rows = np.arange(100)
        nb, s = IVFIndex.build(units, spec).search(rows, 3)
        expected = np.einsum(
            "qkd,qd->qk", units[nb], units[rows]
        )
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_build_via_factory(self, units):
        index = build_index(units, AnnSpec(backend="ivf", nlist=12))
        assert isinstance(index, IVFIndex)
        assert index.nlist == 12

    def test_auto_nlist_is_sqrt_n(self, units):
        index = build_index(units, AnnSpec(backend="ivf"))
        assert index.nlist == round(np.sqrt(len(units)))


def _in_batches(index, rows, size, k, exclude_self):
    """``index.search`` over ``rows`` in consecutive batches of ``size``."""
    parts = [
        index.search(rows[lo : lo + size], k, exclude_self=exclude_self)
        for lo in range(0, len(rows), size)
    ]
    return (
        np.concatenate([nb for nb, _ in parts]),
        np.concatenate([s for _, s in parts]),
    )


def _gather_cut(index) -> int:
    """Smallest batch the IVF rule scores per list instead of gathered."""
    return next(c for c in range(1, 10**6) if not index._gathers(c))


class TestBatchIndependence:
    """A row's neighbours do not depend on the batch it is searched in.

    The data has no duplicate vectors, so no two candidates tie.  The
    approximate backends rescore their winners with one float64 dot
    product per pair, so their similarities match bit for bit; the
    exact backend's BLAS kernel depends on the chunk's row count, so
    its similarities match to within rounding.
    """

    @staticmethod
    def check(index, rows, k, exclude_self, sizes, atol=0.0):
        batch = index.search(rows, k, exclude_self=exclude_self)
        perm = np.random.default_rng(k).permutation(len(rows))
        permuted = index.search(rows[perm], k, exclude_self=exclude_self)
        inverse = np.argsort(perm)
        results = [(permuted[0][inverse], permuted[1][inverse])]
        results += [
            _in_batches(index, rows, size, k, exclude_self) for size in sizes
        ]
        for nb, s in results:
            np.testing.assert_array_equal(nb, batch[0])
            np.testing.assert_allclose(s, batch[1], rtol=0, atol=atol)

    @pytest.fixture(scope="class")
    def units(self):
        return clustered_units(n=600, seed=8)

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_ivf_both_scoring_paths(self, units, k, exclude_self):
        index = IVFIndex.build(
            units, AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=1)
        )
        cut = _gather_cut(index)
        assert 3 < cut - 1 and cut + 1 < len(units)
        sizes = [1, 3, cut - 1, cut, cut + 1]
        self.check(index, np.arange(len(units)), k, exclude_self, sizes)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ivf_probing_every_list(self, units, k):
        index = IVFIndex.build(
            units, AnnSpec(backend="ivf", nlist=8, nprobe=12, seed=1)
        )
        cut = _gather_cut(index)
        sizes = [1, 3, cut - 1, cut, cut + 1]
        self.check(index, np.arange(len(units)), k, True, sizes)

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_ivf_lists_shorter_than_k(self, exclude_self, monkeypatch):
        # ~10 rows a list and one probe: some queries' probed list holds
        # fewer than k other rows, so they fall back to the exhaustive
        # search, whose similarities are the exact backend's.
        units = random_units(n=480, dim=16, seed=9)
        index = IVFIndex.build(
            units, AnnSpec(backend="ivf", nlist=50, nprobe=1, seed=1)
        )
        rows, k = np.arange(len(units)), 7
        with obs.session(Telemetry()) as telemetry:
            index.search(rows, k, exclude_self=exclude_self)
        counters = telemetry.snapshot()["counters"]
        fallbacks = (
            counters["knn.distance_computations"]
            - len(rows) * index.nlist
            - counters["ann.candidates_scored"]
        ) // len(units)
        assert 0 < fallbacks < len(rows)
        # With one probe the rule gathers every batch of these 480 rows;
        # cut it at 100 queries so both paths serve them.
        monkeypatch.setattr(ivf_mod, "_GATHER_QUERIES_PER_LIST", 2)
        cut = _gather_cut(index)
        assert cut == 100
        sizes = [1, 3, cut - 1, cut, cut + 1]
        self.check(index, rows, k, exclude_self, sizes, atol=1e-12)

    def test_ivf_rule_cuts_between_the_paths(self, units, monkeypatch):
        index = IVFIndex.build(
            units, AnnSpec(backend="ivf", nlist=16, nprobe=4, seed=1)
        )
        served = []
        for path in ("_top_gathered", "_top_per_list"):
            original = getattr(IVFIndex, path)

            def spy(self, rows, *args, _path=path, _original=original):
                served.append((len(rows), _path))
                return _original(self, rows, *args)

            monkeypatch.setattr(IVFIndex, path, spy)
        cut = _gather_cut(index)
        for size in (1, cut - 1, cut, len(units)):
            index.search(np.arange(size), 3)
        assert served == [
            (1, "_top_gathered"),
            (cut - 1, "_top_gathered"),
            (cut, "_top_per_list"),
            (len(units), "_top_per_list"),
        ]

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_exact(self, units, k):
        self.check(
            ExactIndex(units), np.arange(len(units)), k, True, [1, 7], atol=1e-12
        )

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ivfpq(self, units, k):
        index = build_index(units, AnnSpec(backend="ivfpq", seed=1))
        self.check(index, np.arange(len(units)), k, True, [1, 7])

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_hnsw(self, units, k):
        index = build_index(units, AnnSpec(backend="hnsw", seed=1))
        self.check(index, np.arange(len(units)), k, True, [1, 7])


class TestRecallAudit:
    def test_audit_records_recall(self):
        units = clustered_units(n=300, seed=3)
        audit.reset()
        spec = AnnSpec(backend="ivf", nlist=10, nprobe=4, recall_sample=32)
        index = IVFIndex.build(units, spec)
        index.search(np.arange(300), 5)
        assert index.last_recall is not None
        assert 0.0 <= index.last_recall <= 1.0
        assert audit.last_recall() == index.last_recall
        assert audit.audited_queries() == 32

    def test_audit_disabled(self):
        units = clustered_units(n=200, seed=4)
        audit.reset()
        spec = AnnSpec(backend="ivf", nlist=8, nprobe=4, recall_sample=0)
        index = IVFIndex.build(units, spec)
        index.search(np.arange(200), 5)
        assert index.last_recall is None
        assert audit.last_recall() is None

    def test_exhaustive_probe_audits_perfect_recall(self):
        units = clustered_units(n=200, seed=4)
        spec = AnnSpec(backend="ivf", nlist=8, nprobe=8, recall_sample=200)
        index = IVFIndex.build(units, spec)
        index.search(np.arange(200), 5)
        assert index.last_recall == 1.0

    def test_exact_backend_records_nothing(self):
        audit.reset()
        ExactIndex(random_units(n=50)).search(np.arange(50), 3)
        assert audit.last_recall() is None

    def test_scope_keeps_other_threads_audits_out(self):
        with audit.scope():
            audit.record_recall(0.95, 32)
            reader = threading.Thread(target=audit.record_recall, args=(0.0, 1))
            reader.start()
            reader.join()
            assert audit.last_recall() == 0.95
            assert audit.audited_queries() == 32
        assert audit.last_recall() == 0.0


class TestIncrementalUpdate:
    @pytest.fixture(scope="class")
    def built(self):
        units = clustered_units(n=500, seed=6)
        spec = AnnSpec(backend="ivf", nlist=12, nprobe=4, seed=1)
        return units, IVFIndex.build(units, spec)

    def test_identity_update_preserves_index(self, built):
        units, index = built
        evolved = index.updated(units, np.arange(len(units)))
        np.testing.assert_array_equal(evolved.centroids, index.centroids)
        np.testing.assert_array_equal(evolved.assign, index.assign)

    def test_add_and_evict(self, built):
        units, index = built
        # Drop the first 50 rows, append 30 fresh points.
        kept = units[50:]
        fresh = clustered_units(n=30, seed=9)
        new_units = np.vstack([kept, fresh])
        prior_rows = np.concatenate(
            [np.arange(50, len(units)), np.full(30, -1)]
        )
        evolved = index.updated(new_units, prior_rows)
        assert len(evolved) == len(new_units)
        # Kept rows keep their prior list assignment.
        np.testing.assert_array_equal(
            evolved.assign[: len(kept)], index.assign[50:]
        )
        # Fresh rows landed in their nearest list.
        expected = np.argmax(
            new_units[len(kept) :].astype(np.float32) @ index.centroids.T,
            axis=1,
        )
        np.testing.assert_array_equal(evolved.assign[len(kept) :], expected)

    def test_evolved_index_still_searches_well(self, built):
        units, index = built
        evolved = index.updated(units[100:], np.arange(100, len(units)))
        rows = np.arange(len(evolved))
        nb, _ = evolved.search(rows, 5)
        exact_nb, _ = ExactIndex(units[100:]).search(rows, 5)
        overlap = np.mean(
            [
                len(np.intersect1d(nb[i], exact_nb[i])) / 5
                for i in range(len(rows))
            ]
        )
        assert overlap >= 0.9

    def test_forced_retrain_equals_cold_build(self, built):
        units, index = built
        evolved = index.updated(
            units, np.arange(len(units)), retrain_threshold=0.0
        )
        cold = IVFIndex.build(units, index.spec)
        np.testing.assert_array_equal(evolved.centroids, cold.centroids)
        np.testing.assert_array_equal(evolved.assign, cold.assign)

    def test_imbalance_triggers_retrain(self, built):
        units, index = built
        # Pile every fresh row onto one list by duplicating one point.
        n_dup = int(RETRAIN_IMBALANCE * len(units) / index.nlist) + 50
        new_units = np.vstack([units, np.tile(units[:1], (n_dup, 1))])
        prior_rows = np.concatenate(
            [np.arange(len(units)), np.full(n_dup, -1)]
        )
        evolved = index.updated(new_units, prior_rows)
        cold = IVFIndex.build(new_units, index.spec)
        np.testing.assert_array_equal(evolved.centroids, cold.centroids)

    def test_misaligned_prior_rows_raises(self, built):
        units, index = built
        with pytest.raises(ValueError, match="align"):
            index.updated(units, np.arange(10))


class TestStoreRoundTrip:
    def test_codec_round_trip_search_equality(self, tmp_path):
        units = clustered_units(n=250, seed=8)
        spec = AnnSpec(backend="ivf", nlist=10, nprobe=3, seed=2)
        index = IVFIndex.build(units, spec)
        store = ArtifactStore(tmp_path)
        store.save("ann-index", "fp-test", IVF_INDEX_CODEC, index)
        loaded, _ = store.load("ann-index", "fp-test", IVF_INDEX_CODEC)
        assert isinstance(loaded, IVFIndex)
        assert loaded.spec == spec
        rows = np.arange(250)
        original = index.search(rows, 5)
        restored = loaded.search(rows, 5)
        np.testing.assert_array_equal(original[0], restored[0])
        np.testing.assert_array_equal(original[1], restored[1])


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_search_for_zero_rows_returns_empty_arrays(backend):
    units = random_units(n=300, dim=8)
    index = build_index(units, AnnSpec(backend=backend, seed=2))
    telemetry = Telemetry()
    with obs.session(telemetry):
        neighbors, sims = index.search(np.empty(0, dtype=np.int64), 7)
    assert neighbors.shape == sims.shape == (0, 7)
    assert (neighbors.dtype, sims.dtype) == (np.int64, np.float64)


class TestIndexCodecs:
    def test_codecs_are_keyed_by_backend_names(self):
        assert set(INDEX_CODECS) <= set(BACKENDS)

    @pytest.mark.parametrize("container", [0, 1], ids=["npz", "raw"])
    @pytest.mark.parametrize(
        "backend", [name for name in BACKENDS if name in INDEX_CODECS]
    )
    def test_round_trip_keeps_spec_and_search(
        self, tmp_path, backend, container
    ):
        units = clustered_units(seed=8)
        index = build_index(units, AnnSpec(backend=backend, seed=2))
        codec = INDEX_CODECS[backend][container]
        store = ArtifactStore(tmp_path)
        store.save("ann-index", "fp-round-trip", codec, index)
        loaded, _ = store.load("ann-index", "fp-round-trip", codec)
        assert type(loaded) is type(index)
        assert loaded.spec == index.spec
        rows = np.arange(len(units))
        for got, want in zip(loaded.search(rows, 7), index.search(rows, 7)):
            np.testing.assert_array_equal(got, want)


class TestCosineKnnSearch:
    def test_predict_rows_searches_each_row_once(self):
        units = clustered_units(n=120, seed=10)
        labels = np.array(["a", "b"] * 60, dtype=object)
        knn = CosineKnn(units, labels, k=5)
        telemetry = Telemetry()
        with obs.session(telemetry):
            predicted, distances = knn.predict_rows(
                np.arange(40), exclude_self=True
            )
        # Labels and distances come from one search of the 40 rows.
        assert telemetry.registry.counters["knn.queries"] == 40
        assert len(predicted) == len(distances) == 40
        with obs.session(telemetry):
            knn.predict_rows(np.arange(40), exclude_self=True)
            knn.predict_rows(np.arange(40, 80), exclude_self=True)
        # Every call searches its own rows: nothing is remembered.
        assert telemetry.registry.counters["knn.queries"] == 120

    def test_accepts_prebuilt_index(self):
        units = clustered_units(n=80, seed=11)
        labels = np.array(["x", "y"] * 40, dtype=object)
        index = ExactIndex(units)
        knn = CosineKnn(None, labels, k=3, index=index)
        direct = CosineKnn(units, labels, k=3)
        rows = np.arange(80)
        np.testing.assert_array_equal(
            knn.predict_rows(rows, exclude_self=True)[0],
            direct.predict_rows(rows, exclude_self=True)[0],
        )


class TestPipelineIntegration:
    def test_exact_default_is_unchanged(self, fitted_darkvec, small_trace):
        # The default config routes every consumer through ExactIndex;
        # the LOO probe must match a direct legacy-style search.
        embedding = fitted_darkvec.embedding
        units = unit_rows(embedding.vectors)
        rows = np.arange(min(50, len(units)))
        nb, s = knn_search(units, rows, 7)
        legacy_nb, legacy_s = legacy_knn_search(units, rows, 7)
        np.testing.assert_array_equal(nb, legacy_nb)
        np.testing.assert_array_equal(s, legacy_s)

    def test_ivf_graph_edges_mostly_match_exact(self, fitted_darkvec):
        from repro.graph.knn_graph import build_knn_graph

        vectors = fitted_darkvec.embedding.vectors
        exact_graph = build_knn_graph(vectors, k_prime=3)
        ivf_graph = build_knn_graph(
            vectors,
            k_prime=3,
            spec=AnnSpec(backend="ivf", nprobe=8, seed=1),
        )
        exact_nb = exact_graph.targets.reshape(-1, 3)
        ivf_nb = ivf_graph.targets.reshape(-1, 3)
        recall = np.mean(
            [
                len(np.intersect1d(a, b)) / 3
                for a, b in zip(ivf_nb, exact_nb)
            ]
        )
        assert recall >= 0.9


def _recall(nb, exact_nb):
    k = nb.shape[1]
    return np.mean(
        [len(np.intersect1d(nb[i], exact_nb[i])) / k for i in range(len(nb))]
    )


class TestHNSWIndex:
    # Larger than _SCAN_WINDOW so queries exercise the graph beam, not
    # just the exhaustive id-window scan small corpora collapse to.
    @pytest.fixture(scope="class")
    def units(self):
        return clustered_units(n=4096, n_clusters=24, seed=0)

    @pytest.fixture(scope="class")
    def built(self, units):
        return HNSWIndex.build(units, AnnSpec(backend="hnsw", seed=1))

    def test_recall_at_default_ef(self, units, built):
        rows = np.arange(len(units))
        nb, _ = built.search(rows, 7)
        exact_nb, _ = ExactIndex(units).search(rows, 7)
        assert _recall(nb, exact_nb) >= 0.95

    def test_similarities_are_float64_exact(self, units, built):
        # Returned sims come from a float64 rescore of the winners.
        rows = np.arange(100)
        nb, s = built.search(rows, 3)
        expected = np.einsum("qkd,qd->qk", units[nb], units[rows])
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_self_exclusion(self, units, built):
        rows = np.arange(len(units))
        nb, _ = built.search(rows, 5, exclude_self=True)
        assert not (nb == rows[:, None]).any()

    def test_workers_do_not_change_results(self, units, built):
        rows = np.arange(len(units))
        one = built.search(rows, 6, workers=1)
        three = built.search(rows, 6, workers=3)
        np.testing.assert_array_equal(one[0], three[0])
        np.testing.assert_array_equal(one[1], three[1])

    def test_deterministic_rebuild(self, units, built):
        again = HNSWIndex.build(units, AnnSpec(backend="hnsw", seed=1))
        np.testing.assert_array_equal(again.node_row, built.node_row)
        np.testing.assert_array_equal(again.levels, built.levels)
        np.testing.assert_array_equal(again.links0, built.links0)

    def test_build_via_factory(self):
        units = clustered_units(n=200, seed=2)
        index = build_index(units, AnnSpec(backend="hnsw"))
        assert isinstance(index, HNSWIndex)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tiny_corpora_build_and_search(self, n):
        # Fewer rows than the default hnsw_m links: the link selection
        # must make do with the candidates there are.
        units = random_units(n=n, dim=8, seed=n)
        index = build_index(units, AnnSpec(backend="hnsw"))
        rows = np.arange(n)
        nb, s = index.search(rows, 1)
        exact_nb, exact_s = ExactIndex(units).search(rows, 1)
        np.testing.assert_array_equal(nb, exact_nb)
        np.testing.assert_allclose(s, exact_s, rtol=0, atol=1e-12)

    def test_ef_search_is_a_recall_knob(self, units, monkeypatch):
        # With a crippled seed window, a starved beam (ef_search=1)
        # must lose recall vs the default: ef is the tuning knob.
        monkeypatch.setattr(hnsw_mod, "_SCAN_WINDOW", 64)
        rows = np.arange(len(units))
        exact_nb, _ = ExactIndex(units).search(rows, 7)
        starved = HNSWIndex.build(
            units, AnnSpec(backend="hnsw", seed=1, hnsw_ef_search=1)
        )
        wide = HNSWIndex.build(
            units, AnnSpec(backend="hnsw", seed=1, hnsw_ef_search=64)
        )
        r_starved = _recall(starved.search(rows, 7)[0], exact_nb)
        r_wide = _recall(wide.search(rows, 7)[0], exact_nb)
        assert r_wide > r_starved


class TestHNSWUpdate:
    @pytest.fixture(scope="class")
    def built(self):
        units = clustered_units(n=500, seed=6)
        return units, HNSWIndex.build(units, AnnSpec(backend="hnsw", seed=1))

    def test_identity_update_preserves_search(self, built):
        units, index = built
        evolved = index.updated(units, np.arange(len(units)))
        rows = np.arange(len(units))
        np.testing.assert_array_equal(
            evolved.search(rows, 5)[0], index.search(rows, 5)[0]
        )

    def test_insert_and_evict_tracks_fresh_build(self, built):
        units, index = built
        kept = units[50:]
        fresh = clustered_units(n=30, seed=9)
        new_units = np.vstack([kept, fresh])
        prior_rows = np.concatenate(
            [np.arange(50, len(units)), np.full(30, -1)]
        )
        evolved = index.updated(new_units, prior_rows)
        assert len(evolved.units) == len(new_units)
        rows = np.arange(len(new_units))
        exact_nb, _ = ExactIndex(new_units).search(rows, 5)
        r_evolved = _recall(evolved.search(rows, 5)[0], exact_nb)
        cold = HNSWIndex.build(new_units, index.spec)
        r_cold = _recall(cold.search(rows, 5)[0], exact_nb)
        assert r_evolved >= r_cold - 0.05
        assert r_evolved >= 0.9

    def test_heavy_eviction_triggers_rebuild(self, built):
        units, index = built
        # 100 live rows over 500 graph nodes: occupancy 5.0 crosses
        # RETRAIN_OCCUPANCY, so the graph is rebuilt from scratch and
        # must equal a cold build (same spec, same seed).
        new_units = units[400:]
        evolved = index.updated(new_units, np.arange(400, len(units)))
        cold = HNSWIndex.build(new_units, index.spec)
        np.testing.assert_array_equal(evolved.node_row, cold.node_row)
        np.testing.assert_array_equal(evolved.links0, cold.links0)

    def test_misaligned_prior_rows_raises(self, built):
        units, index = built
        with pytest.raises(ValueError, match="align"):
            index.updated(units, np.arange(10))


class TestHNSWStoreRoundTrip:
    def test_round_trip_preserves_tombstones(self, tmp_path):
        units = clustered_units(n=300, seed=8)
        index = HNSWIndex.build(units, AnnSpec(backend="hnsw", seed=2))
        new_units = units[30:]
        evolved = index.updated(new_units, np.arange(30, 300))
        store = ArtifactStore(tmp_path)
        store.save("ann-index", "fp-ghost", HNSW_INDEX_CODEC, evolved)
        loaded, _ = store.load("ann-index", "fp-ghost", HNSW_INDEX_CODEC)
        rows = np.arange(len(new_units))
        np.testing.assert_array_equal(
            evolved.search(rows, 5)[0], loaded.search(rows, 5)[0]
        )


class TestHNSWCrossBackend:
    def test_loo_agreement_with_exact(self):
        units = clustered_units(n=600, seed=12)
        rng = np.random.default_rng(12)
        labels = np.array(list("abcdef"))[rng.integers(0, 6, size=600)]
        exact_knn = CosineKnn(units, labels, k=7)
        hnsw_knn = CosineKnn(
            None,
            labels,
            k=7,
            index=HNSWIndex.build(units, AnnSpec(backend="hnsw", seed=3)),
        )
        rows = np.arange(600)
        agree = (
            exact_knn.predict_rows(rows, exclude_self=True)[0]
            == hnsw_knn.predict_rows(rows, exclude_self=True)[0]
        ).mean()
        assert agree >= 0.95


class TestHealthMonitor:
    def test_mistuned_ivf_flags_low_recall(self, small_bundle, tmp_path):
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            window_days=3.0,
            cache_dir=tmp_path,
            ann_backend="ivf",
            ann_nlist=64,
            ann_nprobe=1,
            ann_recall_sample=64,
        )
        darkvec = DarkVec(config).fit(trace.between(trace.start_time, cut))
        darkvec.update(trace.between(cut, cut + 86400.0))
        monitors = {m.name: m for m in darkvec.last_health.monitors}
        assert "ann_recall" in monitors
        monitor = monitors["ann_recall"]
        assert monitor.value is not None
        assert monitor.verdict in ("warn", "fail")

    def test_mistuned_hnsw_ef_flags_low_recall(
        self, small_bundle, tmp_path, monkeypatch
    ):
        # Small corpora fit inside the seed scan window, which hides a
        # starved beam; shrink the window so ef_search=1 actually
        # bites, then expect the recall audit to raise the monitor.
        monkeypatch.setattr(hnsw_mod, "_SCAN_WINDOW", 64)
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            window_days=3.0,
            cache_dir=tmp_path,
            ann_backend="hnsw",
            ann_hnsw_ef_search=1,
            ann_recall_sample=64,
        )
        darkvec = DarkVec(config).fit(trace.between(trace.start_time, cut))
        darkvec.update(trace.between(cut, cut + 86400.0))
        monitors = {m.name: m for m in darkvec.last_health.monitors}
        monitor = monitors["ann_recall"]
        assert monitor.value is not None
        assert monitor.verdict in ("warn", "fail")

    def test_exact_backend_reports_no_baseline(self, small_bundle, tmp_path):
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            window_days=3.0,
            cache_dir=tmp_path,
        )
        darkvec = DarkVec(config).fit(trace.between(trace.start_time, cut))
        darkvec.update(trace.between(cut, cut + 86400.0))
        monitors = {m.name: m for m in darkvec.last_health.monitors}
        assert monitors["ann_recall"].verdict == "ok"
        assert monitors["ann_recall"].value is None
