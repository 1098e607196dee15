"""Streaming serving layer: sub-day equivalence, service, server.

The anchor test of this file is the window-equivalence property the
serving layer is built on: N sub-day ``update(window)`` calls leave
bit-identical corpus, vocabulary and trace to one merged daily
``update`` (embeddings are drift-bounded — warm refits are applied
more than once), at both worker-pool backends.
"""

from __future__ import annotations

import copy
import json
import socket
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DarkVec, DarkVecConfig
from repro.obs.drift import embedding_drift
from repro.obs.health import HealthPolicy
from repro.obs.registry import RunRegistry
from repro.serve import (
    DarkVecService,
    ModelSnapshot,
    ServeClient,
    ServeError,
    ServeServer,
    ServiceClosedError,
    UnknownSenderError,
    wait_for_port,
)
from repro.trace.address import ip_to_str
from repro.trace.merge import merge_traces
from repro.trace.packet import SECONDS_PER_DAY, Trace

DAY = float(SECONDS_PER_DAY)


def _fit(trace, backend: str = "thread", **overrides) -> DarkVec:
    overrides.setdefault("window_days", 3.0)
    config = DarkVecConfig(
        service="domain",
        epochs=2,
        update_epochs=2,
        seed=3,
        pool_backend=backend,
        **overrides,
    )
    return DarkVec(config).fit(trace)


def _assert_same_corpus(a: DarkVec, b: DarkVec) -> None:
    for corpus_a, corpus_b in (
        (a.fitted.raw_corpus, b.fitted.raw_corpus),
        (a.corpus, b.corpus),
    ):
        assert len(corpus_a) == len(corpus_b)
        for sent_a, sent_b in zip(corpus_a, corpus_b):
            assert sent_a.service_id == sent_b.service_id
            assert sent_a.window == sent_b.window
            assert np.array_equal(sent_a.tokens, sent_b.tokens)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestSubDayEquivalence:
    def test_micro_batches_match_one_daily_update(self, small_bundle, backend):
        """3 sub-day updates == 1 daily update, bit for bit (corpus/vocab)."""
        trace = small_bundle.trace
        t0 = trace.start_time
        head = trace.between(t0, t0 + 3 * DAY)
        day = trace.between(t0 + 3 * DAY, t0 + 4 * DAY)

        daily = _fit(head, backend)
        daily.update(day)

        micro = _fit(head, backend)
        # Uneven sub-day cuts: none lands on a dT boundary, so the
        # middle batches start mid-window (the hard case: boundary
        # cells must be rebuilt from the merged kept trace).
        cuts = [
            t0 + 3 * DAY,
            t0 + 3.31 * DAY,
            t0 + 3.67 * DAY,
            t0 + 4 * DAY,
        ]
        for lo, hi in zip(cuts, cuts[1:]):
            batch = day.between(lo, hi)
            assert len(batch)  # the cuts must actually split the day
            micro.update(batch)

        # trace, corpus and vocabulary: bit-identical
        np.testing.assert_array_equal(daily.trace.times, micro.trace.times)
        np.testing.assert_array_equal(
            daily.trace.sender_ips, micro.trace.sender_ips
        )
        np.testing.assert_array_equal(daily.trace.senders, micro.trace.senders)
        np.testing.assert_array_equal(daily.fitted.active, micro.fitted.active)
        _assert_same_corpus(daily, micro)
        np.testing.assert_array_equal(
            daily.embedding.tokens, micro.embedding.tokens
        )

        # embeddings: not identical (micro refit warm three times) but
        # drift-bounded — the models must stay close
        report = embedding_drift(daily.embedding, micro.embedding)
        assert report.n_shared == len(daily.embedding.tokens)
        assert report.mean is not None and report.mean < 0.15

    def test_equivalence_with_eviction(self, small_bundle, backend):
        """The equivalence holds when the updates also evict windows."""
        trace = small_bundle.trace
        t0 = trace.start_time
        head = trace.between(t0, t0 + 3 * DAY)
        # two days of new traffic against window_days=3: the merged
        # update and every intermediate micro-update evict old windows
        fresh = trace.between(t0 + 3 * DAY, t0 + 5 * DAY)

        daily = _fit(head, backend)
        daily.update(fresh)

        micro = _fit(head, backend)
        for lo, hi in (
            (t0 + 3 * DAY, t0 + 3.5 * DAY),
            (t0 + 3.5 * DAY, t0 + 4.25 * DAY),
            (t0 + 4.25 * DAY, t0 + 5 * DAY),
        ):
            micro.update(fresh.between(lo, hi))

        np.testing.assert_array_equal(daily.trace.times, micro.trace.times)
        _assert_same_corpus(daily, micro)
        np.testing.assert_array_equal(
            daily.embedding.tokens, micro.embedding.tokens
        )


class TestEmptyUpdate:
    def test_empty_raises_by_default(self, small_bundle):
        darkvec = _fit(small_bundle.trace.between(-np.inf, small_bundle.trace.start_time + 2 * DAY))
        with pytest.raises(ValueError, match="non-empty"):
            darkvec.update(Trace.empty())

    def test_allow_empty_is_counted_noop(self, small_bundle):
        darkvec = _fit(small_bundle.trace.between(-np.inf, small_bundle.trace.start_time + 2 * DAY))
        embedding = darkvec.embedding
        trace = darkvec.trace
        result = darkvec.update(Trace.empty(), allow_empty=True)
        assert result is darkvec
        assert darkvec.embedding is embedding  # nothing refit
        assert darkvec.trace is trace


class TestAdoptKeepsIndex:
    def test_cache_hit_refit_preserves_live_index(self, small_bundle, tmp_path):
        trace = small_bundle.trace.between(
            -np.inf, small_bundle.trace.start_time + 2 * DAY
        )
        darkvec = _fit(trace, cache_dir=tmp_path)
        index = darkvec._ann_index()
        darkvec.fit(trace)  # pure cache hit: same embedding hash
        assert all(s.status == "hit" for s in darkvec.stage_statuses)
        assert darkvec._index is index

    def test_changed_embedding_still_invalidates(self, small_bundle, tmp_path):
        trace = small_bundle.trace
        t0 = trace.start_time
        darkvec = _fit(trace.between(t0, t0 + 2 * DAY), cache_dir=tmp_path)
        index = darkvec._ann_index()
        darkvec.fit(trace.between(t0, t0 + 3 * DAY))  # different data
        assert darkvec._index is not index


@pytest.fixture(scope="module")
def served_fit(small_bundle):
    """One fitted model for the service tests (deep-copied per test)."""
    trace = small_bundle.trace
    t0 = trace.start_time
    darkvec = _fit(trace.between(t0, t0 + 2 * DAY), window_days=30.0)
    return darkvec, trace


@pytest.fixture()
def fresh_fit(served_fit):
    darkvec, trace = served_fit
    return copy.deepcopy(darkvec), trace


def _batches(trace, start_day: float, cuts: tuple[float, ...]):
    t0 = trace.start_time
    edges = [t0 + start_day * DAY] + [t0 + c * DAY for c in cuts]
    return [
        trace.between(lo, hi) for lo, hi in zip(edges, edges[1:])
    ]


class TestModelSnapshot:
    def test_unknown_ip_raises(self, fresh_fit):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec)
        with pytest.raises(UnknownSenderError):
            snapshot.row_of_ip(0)

    def test_row_lookup_roundtrips(self, fresh_fit):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec)
        for row in (0, len(snapshot) // 2, len(snapshot) - 1):
            assert snapshot.row_of_ip(int(snapshot.sender_ips[row])) == row

    def test_queries_answer_from_truth(self, fresh_fit, small_bundle):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec, truth=small_bundle.truth)
        ip = int(snapshot.sender_ips[0])
        answer = snapshot.classify(ip)
        assert answer["ip"] == ip_to_str(ip)
        assert isinstance(answer["label"], str)
        neighbors = snapshot.neighbors(ip, k=3)
        assert len(neighbors["neighbors"]) == 3
        members = snapshot.membership(ip)
        assert members["size"] >= 1
        assert members["modularity"] == snapshot.modularity

    def test_without_clusters_membership_is_disabled(self, fresh_fit):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec, with_clusters=False)
        with pytest.raises(ValueError, match="disabled"):
            snapshot.membership(int(snapshot.sender_ips[0]))

    def test_batched_queries_match_single(self, fresh_fit, small_bundle):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec, truth=small_bundle.truth)
        ips = [int(snapshot.sender_ips[r]) for r in (0, len(snapshot) // 2, 1)]
        batch = snapshot.classify_many(ips)
        assert batch["version"] == snapshot.version
        assert len(batch["results"]) == len(ips)
        for ip, result in zip(ips, batch["results"]):
            single = snapshot.classify(ip)
            assert result["ip"] == single["ip"]
            assert result["label"] == single["label"]
            assert result["mean_distance"] == pytest.approx(
                single["mean_distance"]
            )
        nbatch = snapshot.neighbors_many(ips, k=3)
        for ip, result in zip(ips, nbatch["results"]):
            single = snapshot.neighbors(ip, k=3)
            # BLAS may differ in the last ulp between 1-row and batched
            # matmuls, so compare sets exactly and sims approximately.
            assert [n["ip"] for n in result["neighbors"]] == [
                n["ip"] for n in single["neighbors"]
            ]
            for got, want in zip(result["neighbors"], single["neighbors"]):
                assert got["label"] == want["label"]
                assert got["similarity"] == pytest.approx(want["similarity"])

    def test_batched_unknown_sender_does_not_fail_batch(self, fresh_fit):
        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec, with_clusters=False)
        known = int(snapshot.sender_ips[0])
        batch = snapshot.classify_many([known, 1])
        assert batch["results"][0]["label"]
        assert batch["results"][1]["error"] == "unknown sender"
        nbatch = snapshot.neighbors_many([1, known], k=2)
        assert nbatch["results"][0]["error"] == "unknown sender"
        assert len(nbatch["results"][1]["neighbors"]) == 2

    def test_snapshot_build_records_warmup(self, fresh_fit):
        from repro import obs

        darkvec, _ = fresh_fit
        telemetry = obs.Telemetry()
        with obs.session(telemetry):
            ModelSnapshot.of(darkvec, with_clusters=False)
        sketches = telemetry.snapshot().get("sketches") or {}
        assert "serve.warmup_seconds" in sketches

    def test_searches_under_a_session_add_no_span(self, fresh_fit):
        """A search is recorded once, by its sketch and counters: the
        session's span tree does not grow with the queries."""
        from repro import obs

        darkvec, _ = fresh_fit
        snapshot = ModelSnapshot.of(darkvec, with_clusters=False)
        ips = [int(ip) for ip in snapshot.sender_ips[:40]]
        telemetry = obs.Telemetry()
        with obs.session(telemetry):
            for ip in ips:
                snapshot.classify(ip)
        assert telemetry.root.children == []
        metrics = telemetry.snapshot()
        assert metrics["sketches"]["knn.search_seconds"]["count"] == len(ips)
        assert metrics["counters"]["knn.queries"] == len(ips)

    def test_classify_clamps_k_to_population(self, fresh_fit):
        """A model with fewer than k+1 senders still answers classify."""
        darkvec, _ = fresh_fit
        n = len(darkvec.embedding.tokens)
        snapshot = ModelSnapshot.of(darkvec, k=n + 5, with_clusters=False)
        answer = snapshot.classify(int(snapshot.sender_ips[0]))
        assert answer["k"] == n - 1
        assert isinstance(answer["label"], str)


class TestServiceLifecycle:
    def test_promotions_advance_the_snapshot(self, fresh_fit):
        darkvec, trace = fresh_fit
        with DarkVecService(darkvec, with_clusters=False) as service:
            ip = int(service.snapshot.sender_ips[0])
            assert service.classify(ip)["version"] == 0
            for batch in _batches(trace, 2.0, (2.4, 3.0)):
                service.submit(batch)
            assert service.drain(timeout=300.0)
            status = service.status()
            assert status["version"] == 2
            assert status["promotions"] == 2
            assert status["rollbacks"] == 0
            assert service.classify(ip)["version"] == 2

    def test_empty_batch_is_a_counted_noop(self, fresh_fit):
        darkvec, _ = fresh_fit
        with DarkVecService(darkvec, with_clusters=False) as service:
            service.submit(Trace.empty())
            assert service.drain(timeout=60.0)
            status = service.status()
            assert status["version"] == 0
            assert status["batches"] == 0
            assert status["rollbacks"] == 0

    def test_gated_failure_rolls_back(self, fresh_fit):
        darkvec, trace = fresh_fit
        # a drift threshold no real refit can meet: every batch fails
        darkvec.config = replace(
            darkvec.config,
            health=HealthPolicy(
                gate_updates=True, drift_warn=1e-9, drift_fail=1e-8
            ),
        )
        with DarkVecService(darkvec, with_clusters=False) as service:
            before = service.snapshot
            ip = int(before.sender_ips[0])
            service.submit(_batches(trace, 2.0, (2.5,))[0])
            assert service.drain(timeout=300.0)
            status = service.status()
            assert status["version"] == 0
            assert status["rollbacks"] == 1
            assert status["promotions"] == 0
            assert service.snapshot is before  # old model stayed live
            assert service.classify(ip)["version"] == 0

    def test_crashed_update_keeps_serving(self, fresh_fit, capsys):
        """A crashed update counts a rollback, reports its message as
        ``last_error`` and prints its traceback to stderr."""
        darkvec, trace = fresh_fit
        batch = _batches(trace, 2.0, (2.5,))[0]

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        darkvec.update = explode
        with DarkVecService(darkvec, with_clusters=False) as service:
            ip = int(service.snapshot.sender_ips[0])
            assert service.status()["last_error"] is None
            service.submit(batch)
            assert service.drain(timeout=60.0)
            status = service.status()
            assert status["rollbacks"] == 1
            assert status["last_error"] == "RuntimeError: boom"
            assert service.classify(ip)["version"] == 0
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_next_promotion_does_not_train_on_a_crashed_batch(
        self, fresh_fit, tmp_path, monkeypatch
    ):
        """Batch 1 crashes in its monitors and counts a rollback; batch
        2 promotes on top of the fit alone, not of batch 1."""
        import repro.obs.drift as drift_module

        def crash(*args, **kwargs):
            raise ValueError("drift monitor crashed")

        darkvec, trace = fresh_fit
        darkvec.registry = RunRegistry(tmp_path)
        fit_trace = darkvec.trace
        first, second = _batches(trace, 2.0, (2.5, 3.0))
        with DarkVecService(darkvec, with_clusters=False) as service:
            monkeypatch.setattr(drift_module, "embedding_drift", crash)
            service.submit(first)
            assert service.drain(timeout=300.0)
            assert service.status()["rollbacks"] == 1
            monkeypatch.undo()
            service.submit(second)
            assert service.drain(timeout=300.0)
            status = service.status()
            assert (status["version"], status["promotions"]) == (1, 1)
        expected, _, _ = merge_traces(fit_trace, second)
        assert len(darkvec.trace) == len(fit_trace) + len(second)
        np.testing.assert_array_equal(darkvec.trace.times, expected.times)
        np.testing.assert_array_equal(
            darkvec.trace.sender_ips, expected.sender_ips
        )

    def test_submit_after_close_raises(self, fresh_fit):
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(Trace.empty())

    def test_unchanged_embedding_promotion_is_not_a_rollback(self, fresh_fit):
        """An update that changes nothing (cache-hit refit) promotes.

        The writer branches on whether a new model was installed, not
        on the embedding hash — a successful no-change update must not
        read as a phantom rollback in `repro top`.
        """
        darkvec, trace = fresh_fit

        def unchanged(*args, **kwargs):
            darkvec.fitted = replace(darkvec.fitted)  # an equal model
            return darkvec

        darkvec.update = unchanged
        with DarkVecService(darkvec, with_clusters=False) as service:
            service.submit(_batches(trace, 2.0, (2.5,))[0])
            assert service.drain(timeout=60.0)
            status = service.status()
            assert status["rollbacks"] == 0
            assert status["promotions"] == 1
            assert status["version"] == 1

    def test_submit_racing_close_never_drops_batches(self, fresh_fit):
        """submit vs close: accepted batches are applied, losers raise.

        close() enqueues its shutdown sentinel under the same lock
        submit uses, so no batch can land behind the sentinel — a
        submit either beats close (and the writer applies it before
        exiting) or raises ServiceClosedError; nothing is silently
        dropped and `_pending` always reaches zero.
        """
        darkvec, _ = fresh_fit
        for _ in range(5):
            service = DarkVecService(darkvec, with_clusters=False)
            barrier = threading.Barrier(9)
            outcomes: list[str] = []

            def producer() -> None:
                barrier.wait()
                try:
                    service.submit(Trace.empty())
                    outcomes.append("accepted")
                except ServiceClosedError:
                    outcomes.append("rejected")

            producers = [threading.Thread(target=producer) for _ in range(8)]
            for thread in producers:
                thread.start()
            barrier.wait()
            service.close(timeout=60.0)
            for thread in producers:
                thread.join(timeout=60.0)
            assert len(outcomes) == 8
            assert not service._writer.is_alive()
            with service._idle:
                assert service._pending == 0

    def test_queries_never_fail_across_promotions(self, fresh_fit):
        """Zero failed queries while updates promote concurrently."""
        darkvec, trace = fresh_fit
        errors: list[Exception] = []
        versions: list[list[int]] = [[] for _ in range(3)]
        stop = threading.Event()

        with DarkVecService(darkvec, with_clusters=False) as service:
            ip = int(service.snapshot.sender_ips[0])

            def hammer(seen: list[int]) -> None:
                while not stop.is_set():
                    try:
                        seen.append(service.classify(ip)["version"])
                        service.neighbors(ip, k=3)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            readers = [
                threading.Thread(target=hammer, args=(seen,))
                for seen in versions
            ]
            for reader in readers:
                reader.start()
            for batch in _batches(trace, 2.0, (2.3, 2.8, 3.2)):
                service.submit(batch)
            assert service.drain(timeout=300.0)
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)

            assert errors == []
            assert service.status()["version"] == 3
            # each reader observed a monotone sequence of model versions
            for seen in versions:
                assert seen and seen == sorted(seen)
                assert seen[-1] <= 3

    def test_one_search_per_sender_under_concurrent_readers(self, fresh_fit):
        """Each request searches its senders' rows once, whatever the
        other reader threads do meanwhile."""
        import sys

        from repro import obs

        darkvec, _ = fresh_fit
        telemetry = obs.Telemetry()
        rounds, errors = 40, []
        with DarkVecService(darkvec, with_clusters=False) as service:
            senders = service.snapshot.sender_ips.tolist()

            def reader(seed: int) -> None:
                rng = np.random.default_rng(seed)
                try:
                    for _ in range(rounds):
                        picks = [senders[i] for i in rng.integers(0, len(senders), 4)]
                        service.classify(picks[0])
                        service.classify(picks + [1])  # 1 = 0.0.0.1, not embedded
                        service.neighbors(picks[1], k=3)
                        service.neighbors(picks[2:], k=3)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with obs.session(telemetry):
                    for thread in readers:
                        thread.start()
                    for thread in readers:
                        thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        counters = telemetry.registry.counters
        embedded = 4 * rounds * (1 + 4 + 1 + 2)
        assert counters["knn.queries"] == embedded
        assert counters["serve.queries"] == embedded + 4 * rounds


class TestServerClient:
    def test_round_trip(self, fresh_fit, tmp_path):
        darkvec, trace = fresh_fit
        port_file = tmp_path / "port"
        service = DarkVecService(darkvec, with_clusters=True)
        server = ServeServer(service, port=0, port_file=port_file)
        server.start_background()
        try:
            port = wait_for_port(port_file, timeout=10.0)
            assert port == server.port
            with ServeClient(port=port) as client:
                assert client.ping()["protocol"] >= 1
                status = client.status()
                assert status["version"] == 0
                ip = ip_to_str(int(service.snapshot.sender_ips[0]))
                assert client.classify(ip)["ip"] == ip
                assert len(client.neighbors(ip, k=2)["neighbors"]) == 2
                assert client.members(ip)["size"] >= 1

                with pytest.raises(ServeError, match="UnknownSender"):
                    client.classify("0.0.0.1")
                with pytest.raises(ServeError, match="unknown op"):
                    client.call("frobnicate")

                batch = _batches(trace, 2.0, (2.5,))[0]
                queued = client.ingest_events(
                    {
                        "times": batch.times.tolist(),
                        "ips": batch.sender_ips[batch.senders].tolist(),
                        "ports": batch.ports.tolist(),
                        "protos": batch.protos.tolist(),
                        "receivers": batch.receivers.tolist(),
                        "mirai": batch.mirai.tolist(),
                    }
                )
                assert queued["queued_packets"] == len(batch)
                drained = client.drain(timeout=300.0)
                assert drained["drained"] is True
                assert drained["version"] == 1
            with ServeClient(port=port) as client:
                assert client.shutdown()["version"] == 1
        finally:
            service.close()
            server.server_close()

    def test_batched_round_trip(self, fresh_fit, tmp_path, capsys):
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        try:
            with ServeClient(port=server.port) as client:
                ips = [
                    ip_to_str(int(service.snapshot.sender_ips[0])),
                    ip_to_str(int(service.snapshot.sender_ips[1])),
                    "0.0.0.1",
                ]
                batch = client.classify(ips)
                assert len(batch["results"]) == 3
                assert batch["results"][0]["ip"] == ips[0]
                assert batch["results"][0]["label"]
                assert batch["results"][2]["error"] == "unknown sender"
                nbatch = client.neighbors(ips[:2], k=2)
                assert all(
                    len(r["neighbors"]) == 2 for r in nbatch["results"]
                )
                # a one-sender list still answers as a list
                assert client.classify(ips[:1])["results"][0]["ip"] == ips[0]
            # the CLI splits a comma list into one batched request
            from repro.cli import main

            assert (
                main(
                    [
                        "query",
                        "classify",
                        "--port",
                        str(server.port),
                        "--ip",
                        f"{ips[0]},{ips[2]}",
                    ]
                )
                == 0
            )
            out = json.loads(capsys.readouterr().out)
            assert out["results"][0]["label"]
            assert out["results"][1]["error"] == "unknown sender"
        finally:
            service.close()
            server.server_close()

    def test_accepted_connections_disable_nagle(self, fresh_fit, monkeypatch):
        # A reply must not wait for the client's delayed ACK.
        from repro.serve.server import _Handler

        darkvec, _ = fresh_fit
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        try:
            with ServeClient(port=server.port) as client:
                assert client.ping()["protocol"] >= 1
            assert len(nodelay) == 1 and nodelay[0] != 0
        finally:
            service.close()
            server.server_close()

    def test_token_and_ingest_root_guard_mutating_ops(self, fresh_fit, tmp_path):
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(
            service, port=0, token="s3cret", ingest_root=tmp_path
        )
        server.start_background()
        try:
            with ServeClient(port=server.port) as client:
                # the read path stays open without the token
                assert client.status()["version"] == 0
                with pytest.raises(ServeError, match="token"):
                    client.call("ingest", path=str(tmp_path / "batch.csv"))
                with pytest.raises(ServeError, match="token"):
                    client.call("shutdown")
            with ServeClient(port=server.port, token="wrong") as client:
                with pytest.raises(ServeError, match="token"):
                    client.shutdown()
            with ServeClient(port=server.port, token="s3cret") as client:
                # valid token, but the path escapes the ingest root
                with pytest.raises(ServeError, match="outside the allowed root"):
                    client.ingest_path(tmp_path / ".." / "escape.csv")
                # inside the root the path check passes (the missing
                # file fails later, in the reader, not the guard)
                with pytest.raises(ServeError, match="missing"):
                    client.ingest_path(tmp_path / "missing.csv")
                assert client.shutdown()["version"] == 0
        finally:
            service.close()
            server.server_close()

    def test_overlong_line_is_refused_and_daemon_keeps_serving(
        self, fresh_fit, monkeypatch
    ):
        import socket

        import repro.serve.server as server_module

        limit = 4096
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", limit)
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        try:
            with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
                # one byte over the limit and still no newline in sight
                head = b'{"op": "ping", "pad": "'
                sock.sendall(head + b"x" * (limit + 1 - len(head)))
                reader = sock.makefile("rb")
                reply = json.loads(reader.readline())
                assert reply["ok"] is False
                assert str(limit) in reply["error"]
                assert reader.readline() == b""  # connection closed
            with ServeClient(port=server.port) as client:
                ip = ip_to_str(int(service.snapshot.sender_ips[0]))
                assert client.classify(ip)["ip"] == ip
        finally:
            service.close()
            server._shutdown_requested.set()

    def test_oversized_queries_are_refused_and_daemon_keeps_serving(
        self, fresh_fit, monkeypatch
    ):
        import repro.serve.server as server_module

        # The benchmarks' 64-sender lists and k = 7 fit the real limits.
        assert server_module.MAX_QUERY_IPS >= 64
        assert server_module.MAX_QUERY_K >= 7
        monkeypatch.setattr(server_module, "MAX_QUERY_IPS", 4)
        monkeypatch.setattr(server_module, "MAX_QUERY_K", 5)
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        ips = [ip_to_str(int(ip)) for ip in service.snapshot.sender_ips[:5]]
        try:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError, match="limit of 4 .MAX_QUERY_IPS"):
                    client.classify(ips)
                with pytest.raises(ServeError, match="limit of 4 .MAX_QUERY_IPS"):
                    client.neighbors(ips, k=2)
                with pytest.raises(ServeError, match="limit of 5 .MAX_QUERY_K"):
                    client.neighbors(ips[0], k=6)
                with pytest.raises(ServeError, match="limit of 5 .MAX_QUERY_K"):
                    client.neighbors(ips[:4], k=6)
                # at the limits the same connection answers as before
                assert len(client.classify(ips[:4])["results"]) == 4
                reply = client.neighbors(ips[:4], k=5)
                assert [len(r["neighbors"]) for r in reply["results"]] == [5] * 4
        finally:
            service.close()
            server._shutdown_requested.set()

    def test_malformed_query_address_is_refused(self, fresh_fit):
        """Only a dotted quad or a whole number in [0, 2**32) names a
        sender; anything else is refused, alone or inside a list."""
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        known = int(service.snapshot.sender_ips[0])
        ip = ip_to_str(known)
        try:
            with ServeClient(port=server.port) as client:
                for bad, named in (
                    (known + 0.5, repr(known + 0.5)),
                    (float("nan"), "nan"),
                    (True, "True"),
                    (-1, "-1"),
                    (2**32, str(2**32)),
                ):
                    for op in ("classify", "neighbors"):
                        for field in (bad, [ip, bad]):
                            with pytest.raises(
                                ServeError, match=f"query address {named} "
                            ):
                                client.call(op, ip=field)
                    assert client.classify(ip)["ip"] == ip
                # a whole number written as a float still names its sender
                assert client.classify(float(known))["ip"] == ip
        finally:
            service.close()
            server._shutdown_requested.set()

    @pytest.mark.parametrize(
        "op, field, bad",
        [
            ("neighbors", "k", True),
            ("neighbors", "k", 2.7),
            ("neighbors", "k", "5"),
            ("neighbors", "k", 0),
            ("neighbors", "k", float("nan")),
            ("members", "sample", True),
            ("members", "sample", 2.5),
            ("members", "sample", "3"),
            ("members", "sample", -1),
            ("members", "sample", float("inf")),
        ],
        ids=[
            "k true", "k 2.7", "k string", "k 0", "k NaN", "sample true",
            "sample 2.5", "sample string", "sample -1", "sample inf",
        ],
    )
    def test_malformed_k_and_sample_are_refused(self, fresh_fit, op, field, bad):
        """``k`` is a whole number in [1, MAX_QUERY_K] and ``sample`` a
        whole number >= 0; anything else is refused, naming the value."""
        import re

        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec)
        server = ServeServer(service, port=0)
        ip = ip_to_str(int(service.snapshot.sender_ips[0]))
        try:
            with pytest.raises(
                ValueError, match=re.escape(f"{field}={bad!r} is not a whole")
            ):
                server.dispatch({"op": op, "ip": ip, field: bad})
            # the values the benchmarks send still answer
            reply = server.dispatch({"op": "neighbors", "ip": ip, "k": 7})
            assert len(reply["neighbors"]) == 7
            reply = server.dispatch({"op": "members", "ip": ip, "sample": 8})
            assert reply["ok"] and len(reply["members_sample"]) <= 8
        finally:
            service.close()
            server.server_close()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"ports": [70_000]}, "column ports"),
            ({"ips": [2**32 + 5]}, "column sender_ips_per_packet"),
            ({"ips": ["1_0.0.0.1"]}, "malformed IPv4"),
            ({"ports": [float("nan")]}, "column ports"),
            ({"ports": [23.5]}, "column ports"),
            ({"ips": [5.5]}, "column sender_ips_per_packet"),
            ({"receivers": [float("nan")]}, "column receivers"),
            ({"mirai": [float("nan")]}, "column mirai"),
            ({"times": [float("nan")]}, "column times"),
            # JSON true is not the number 1, alone or among numbers
            ({"ports": [True]}, "column ports holds True"),
            ({"ips": [True]}, "column sender_ips_per_packet holds True"),
            ({"times": [True]}, "column times holds True"),
            ({"protos": [True]}, "column protos holds True"),
            ({"receivers": [True]}, "column receivers holds True"),
            (
                {"times": [1.0, 2.0], "ips": [True, "10.0.0.9"], "ports": [True, 23]},
                "column sender_ips_per_packet holds True",
            ),
            (
                {"times": [1.0, 2.0], "ips": ["10.0.0.9"] * 2, "ports": [23, True]},
                "column ports holds True",
            ),
            (
                {"times": [1.0, True], "ips": ["10.0.0.9"] * 2, "ports": [23, 23]},
                "column times holds True",
            ),
        ],
        ids=[
            "port 70000", "address 2**32+5", "not a quad", "port NaN",
            "port 23.5", "address 5.5", "receiver NaN", "mirai NaN", "time NaN",
            "port true", "address true", "time true", "proto true",
            "receiver true", "address and port true among numbers",
            "port true after a number", "time true after a number",
        ],
    )
    def test_out_of_range_inline_ingest_is_refused(self, fresh_fit, bad, error):
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        ip = ip_to_str(int(service.snapshot.sender_ips[0]))
        events = {"times": [1.0], "ips": [ip], "ports": [23], **bad}
        try:
            with ServeClient(port=server.port) as client:
                # ServeError is the client's view of an {"ok": false} reply.
                with pytest.raises(ServeError, match=f"ValueError: {error}"):
                    client.ingest_events(events)
                assert client.classify(ip)["ip"] == ip
                assert client.status()["version"] == 0
        finally:
            service.close()
            server._shutdown_requested.set()

    def test_ingest_needs_a_payload(self, fresh_fit):
        darkvec, _ = fresh_fit
        service = DarkVecService(darkvec, with_clusters=False)
        server = ServeServer(service, port=0)
        server.start_background()
        try:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError, match="'path' or 'events'"):
                    client.call("ingest")
        finally:
            service.close()
            server._shutdown_requested.set()


class TestServeCli:
    def test_parser_accepts_serve_and_query(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--cache-dir",
                "cache",
                "--port-file",
                "p.txt",
                "--health-gate",
                "--no-clusters",
            ]
        )
        assert args.command == "serve"
        assert args.with_clusters is False
        args = parser.parse_args(
            ["query", "neighbors", "--port", "1234", "--ip", "1.2.3.4", "--k", "5"]
        )
        assert args.command == "query"
        assert args.op == "neighbors"
        assert args.k == 5

    def test_parser_accepts_trust_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--cache-dir",
                "cache",
                "--token",
                "s3cret",
                "--ingest-root",
                "batches",
            ]
        )
        assert args.token == "s3cret"
        assert str(args.ingest_root) == "batches"
        args = parser.parse_args(
            ["query", "shutdown", "--port", "1", "--token", "s3cret"]
        )
        assert args.token == "s3cret"

    def test_query_without_port_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["query", "status"]) == 2
        assert "needs --port" in capsys.readouterr().err

    def test_query_ip_ops_require_ip(self):
        from repro.cli import main

        assert main(["query", "classify", "--port", "1"]) == 2
