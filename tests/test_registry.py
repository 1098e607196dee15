"""Tests for the run registry, health policy, and drift/quality monitors."""

import json

import numpy as np
import pytest

from repro.core import DarkVec, DarkVecConfig
from repro.obs.drift import cluster_stability, embedding_drift, neighborhood_churn
from repro.obs.health import HealthPolicy, HealthReport, MonitorResult, classify
from repro.obs.quality import (
    data_profile,
    empty_window_rate,
    port_mix,
    port_mix_shift,
    volume_zscore,
)
from repro.obs.registry import (
    RunRecord,
    RunRegistry,
    code_version,
    config_fingerprint,
    record_run,
)
from repro.w2v.keyedvectors import KeyedVectors


class TestClassify:
    def test_high_direction_ladder(self):
        assert classify("m", 0.1, warn=0.5, fail=0.9).verdict == "ok"
        assert classify("m", 0.5, warn=0.5, fail=0.9).verdict == "warn"
        assert classify("m", 0.9, warn=0.5, fail=0.9).verdict == "fail"

    def test_low_direction_ladder(self):
        assert classify("m", 0.8, warn=0.5, fail=0.1, direction="low").verdict == "ok"
        assert classify("m", 0.5, warn=0.5, fail=0.1, direction="low").verdict == "warn"
        assert classify("m", 0.1, warn=0.5, fail=0.1, direction="low").verdict == "fail"

    def test_none_value_is_ok_with_reason(self):
        result = classify("m", None, warn=0.5, fail=0.9)
        assert result.verdict == "ok"
        assert result.value is None
        assert result.detail == "no baseline"

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            classify("m", 0.5, warn=0.1, fail=0.9, direction="sideways")


class TestHealthPolicy:
    def test_defaults_are_ordered(self):
        policy = HealthPolicy()
        assert policy.drift_warn < policy.drift_fail
        assert policy.stability_warn > policy.stability_fail

    def test_out_of_order_thresholds_rejected(self):
        with pytest.raises(ValueError):
            HealthPolicy(drift_warn=0.9, drift_fail=0.1)
        with pytest.raises(ValueError):
            HealthPolicy(stability_warn=0.05, stability_fail=0.5)

    def test_to_dict_round_trips(self):
        policy = HealthPolicy(gate_updates=True, drift_warn=0.05)
        assert HealthPolicy(**policy.to_dict()) == policy

    def test_config_coerces_dict(self):
        config = DarkVecConfig(health={"gate_updates": True})
        assert isinstance(config.health, HealthPolicy)
        assert config.health.gate_updates is True


class TestHealthReport:
    def _monitor(self, name, verdict):
        return MonitorResult(name=name, value=0.0, verdict=verdict, warn=1, fail=2)

    def test_worst_verdict_wins(self):
        report = HealthReport(
            monitors=[self._monitor("a", "ok"), self._monitor("b", "warn")]
        )
        assert report.verdict == "warn"
        report.monitors.append(self._monitor("c", "fail"))
        assert report.verdict == "fail"

    def test_empty_report_is_ok(self):
        assert HealthReport().verdict == "ok"

    def test_failures_and_warnings_filter(self):
        report = HealthReport(
            monitors=[self._monitor("a", "fail"), self._monitor("b", "warn")]
        )
        assert [m.name for m in report.failures()] == ["a"]
        assert [m.name for m in report.warnings()] == ["b"]


class TestQuality:
    def test_port_mix_shares_sum_to_one(self, tiny_trace):
        mix = port_mix(tiny_trace)
        assert sum(mix.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in mix.values())

    def test_port_mix_shift_bounds(self, tiny_trace):
        mix = port_mix(tiny_trace)
        assert port_mix_shift(mix, mix) == 0.0
        disjoint = {"9999/udp": 1.0}
        assert port_mix_shift(mix, disjoint) == pytest.approx(1.0)

    def test_empty_window_rate(self, tiny_trace):
        # 10 packets over 9 seconds: 1-second bins leave no gap.
        assert empty_window_rate(tiny_trace, delta_t=1.0) == 0.0
        # One 100-second bin span with all packets in the first bin.
        assert empty_window_rate(tiny_trace, delta_t=0.5) > 0.0

    def test_volume_zscore_needs_history(self):
        assert volume_zscore(10.0, []) is None
        assert volume_zscore(10.0, [9.0], min_history=2) is None

    def test_volume_zscore_flags_outlier(self):
        history = [100.0, 101.0, 99.0, 100.0]
        assert abs(volume_zscore(100.0, history)) < 1.0
        assert volume_zscore(200.0, history) > 6.0

    def test_constant_history_does_not_divide_by_zero(self):
        z = volume_zscore(100.0, [50.0, 50.0, 50.0])
        assert np.isfinite(z)

    def test_data_profile_keys(self, tiny_trace):
        profile = data_profile(tiny_trace, delta_t=1.0)
        assert profile["packets"] == 10
        assert profile["senders"] == 3
        assert 0.0 <= profile["empty_window_rate"] <= 1.0
        assert isinstance(profile["port_mix"], dict)


def _keyed(seed, n=30, dim=8):
    rng = np.random.default_rng(seed)
    return KeyedVectors(
        tokens=np.arange(n, dtype=np.int64),
        vectors=rng.normal(size=(n, dim)),
    )


class TestDriftMonitors:
    def test_identical_models_do_not_drift(self):
        keyed = _keyed(0)
        report = embedding_drift(keyed, keyed)
        assert report.mean == pytest.approx(0.0, abs=1e-9)
        assert report.n_shared == 30
        assert neighborhood_churn(keyed, keyed, k=3) == pytest.approx(0.0)
        ari, ami = cluster_stability(keyed, keyed, k_prime=3, seed=1)
        assert ari == pytest.approx(1.0)
        assert ami == pytest.approx(1.0)

    def test_rotation_is_aligned_away(self):
        keyed = _keyed(1)
        rng = np.random.default_rng(2)
        rotation, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        rotated = KeyedVectors(
            tokens=keyed.tokens, vectors=keyed.vectors @ rotation
        )
        report = embedding_drift(keyed, rotated)
        assert report.aligned is True
        assert report.mean == pytest.approx(0.0, abs=1e-6)

    def test_noise_registers_as_drift_and_churn(self):
        keyed = _keyed(3)
        noisy = KeyedVectors(
            tokens=keyed.tokens,
            vectors=keyed.vectors
            + np.random.default_rng(4).normal(scale=2.0, size=(30, 8)),
        )
        assert embedding_drift(keyed, noisy).mean > 0.1
        assert neighborhood_churn(keyed, noisy, k=3) > 0.3

    def test_disjoint_vocabularies_skip(self):
        a = _keyed(5)
        b = KeyedVectors(
            tokens=np.arange(100, 130, dtype=np.int64), vectors=_keyed(6).vectors
        )
        assert neighborhood_churn(a, b, k=3) is None
        assert cluster_stability(a, b) is None


class TestRunRegistry:
    def _record(self, run_id, kind="fit", **extra):
        return RunRecord(
            run_id=run_id,
            kind=kind,
            unix_time=0.0,
            code_version="test",
            config_fingerprint="cafe",
            wall_seconds=1.0,
            extra=extra,
        )

    def test_empty_registry_reads_empty(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry")
        assert registry.runs() == []
        assert registry.last() is None
        assert registry.next_run_id() == "run-0001"

    def test_append_and_get(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(self._record("run-0001"))
        registry.append(self._record("run-0002", kind="update"))
        assert [r["run_id"] for r in registry.runs()] == ["run-0001", "run-0002"]
        assert registry.get("run-0002")["kind"] == "update"
        with pytest.raises(KeyError):
            registry.get("run-9999")

    def test_last_filters_by_kind(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(self._record("run-0001", kind="fit"))
        registry.append(self._record("run-0002", kind="update"))
        assert registry.last()["run_id"] == "run-0002"
        assert registry.last(kind="fit")["run_id"] == "run-0001"

    def test_history_prefers_profile_then_extra(self, tmp_path):
        registry = RunRegistry(tmp_path)
        record = self._record("run-0001", loo_accuracy=0.9)
        record.profile = {"packets": 100}
        registry.append(record)
        registry.append(self._record("run-0002", loo_accuracy=0.8))
        assert registry.history("packets") == [100.0]
        assert registry.history("loo_accuracy") == [0.9, 0.8]
        assert registry.history("loo_accuracy", kind="update") == []

    def test_append_leaves_no_temp_files(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(self._record("run-0001"))
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        # The file itself is valid NDJSON.
        lines = registry.path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["run_id"] == "run-0001"

    def test_torn_last_line_is_skipped_and_ended_by_the_next_append(
        self, tmp_path
    ):
        registry = RunRegistry(tmp_path)
        registry.append(self._record("run-0001"))
        with registry.path.open("a") as handle:
            handle.write('{"kind": "upd')  # an append a crash cut short
        assert [r["run_id"] for r in registry.runs()] == ["run-0001"]
        assert registry.next_run_id() == "run-0002"
        registry.append(self._record("run-0002"))
        lines = registry.path.read_text().splitlines()
        assert lines[1] == '{"kind": "upd'
        assert json.loads(lines[2])["run_id"] == "run-0002"
        for reader in (registry, RunRegistry(tmp_path)):
            assert [r["run_id"] for r in reader.runs()] == [
                "run-0001",
                "run-0002",
            ]

    def test_runs_parses_only_the_lines_appended_since(
        self, tmp_path, monkeypatch
    ):
        registry = RunRegistry(tmp_path)
        for run_id in ("run-0001", "run-0002", "run-0003"):
            registry.append(self._record(run_id))
        assert len(registry.runs()) == 3
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        other = RunRegistry(tmp_path)  # another process appending
        other.append(self._record("run-0004"))
        ids = [r["run_id"] for r in registry.runs()]
        assert ids == ["run-0001", "run-0002", "run-0003", "run-0004"]
        assert len(parsed) == 1
        assert len(registry.runs()) == 4 and len(parsed) == 1
        # A file that shrank or vanished is read afresh.
        shorter = self._record("run-0009").to_dict()
        registry.path.write_text(json.dumps(shorter) + "\n")
        assert [r["run_id"] for r in registry.runs()] == ["run-0009"]
        registry.path.unlink()
        assert registry.runs() == []
        other.append(self._record("run-0001"))
        assert [r["run_id"] for r in registry.runs()] == ["run-0001"]

    def test_monitor_series(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for run_id, value in (("run-0001", 0.1), ("run-0002", 0.3)):
            record = self._record(run_id)
            record.health = {
                "verdict": "ok",
                "monitors": [{"name": "drift", "value": value, "verdict": "ok"}],
            }
            registry.append(record)
        assert registry.monitor_series("drift") == [0.1, 0.3]
        assert registry.monitor_series("churn") == []

    def test_record_run_snapshots_config(self, tmp_path):
        registry = RunRegistry(tmp_path)
        config = DarkVecConfig(epochs=2)
        doc = record_run(registry, "fit", config, wall_seconds=1.5)
        assert doc["config_fingerprint"] == config_fingerprint(config)
        assert doc["kind"] == "fit"
        assert registry.runs() == [doc]


class TestRunRecordSpans:
    def test_update_record_holds_only_its_own_run(self, small_bundle, tmp_path):
        """Each record holds the spans under its own pipeline span and
        each sketch's summary, not the session's history."""
        from repro import obs

        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            vector_size=16,
            window_days=3.0,
            cache_dir=tmp_path,
        )
        with obs.session(obs.Telemetry()):
            darkvec = DarkVec(config).fit(trace.between(trace.start_time, cut))
            darkvec.update(trace.between(cut, cut + 43200.0), health_gate=True)
        fit, update = darkvec.registry.runs()
        for record, run_span in (
            (fit, "pipeline.fit"),
            (update, "pipeline.update"),
        ):
            paths = [span["path"] for span in record["spans"]]
            assert paths[0] == run_span
            assert all(path.startswith(run_span + "/") for path in paths[1:])
            assert len(paths) > 1
            for name, summary in record["metrics"]["sketches"].items():
                assert "levels" not in summary, name
                assert {"count", "p50", "p95", "p99"} <= set(summary), name


class TestConfigFingerprint:
    def test_stable_across_instances(self):
        assert config_fingerprint(DarkVecConfig()) == config_fingerprint(
            DarkVecConfig()
        )

    def test_sensitive_to_any_knob(self):
        base = config_fingerprint(DarkVecConfig())
        assert config_fingerprint(DarkVecConfig(epochs=3)) != base
        assert (
            config_fingerprint(DarkVecConfig(health={"drift_warn": 0.01}))
            != base
        )

    def test_code_version_is_a_string(self):
        assert isinstance(code_version(), str)
        assert code_version()


class TestHealthGate:
    @pytest.fixture(scope="class")
    def gated(self, small_bundle, tmp_path_factory):
        """Fit 3 days, then a gated update forced to fail on drift."""
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        head = trace.between(trace.start_time, cut)
        tail = trace.between(cut, cut + 86400.0)
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            window_days=3.0,
            cache_dir=tmp_path_factory.mktemp("gate-cache"),
            health={"gate_updates": True, "drift_warn": 1e-9, "drift_fail": 1e-8},
        )
        darkvec = DarkVec(config).fit(head)
        fitted = darkvec.fitted
        before = darkvec.embedding.vectors.copy()
        darkvec.update(tail)
        return darkvec, fitted, before

    def test_fit_records_run(self, gated):
        darkvec, _, _ = gated
        kinds = [r["kind"] for r in darkvec.registry.runs()]
        assert kinds == ["fit", "update"]

    def test_gate_refuses_promotion(self, gated):
        darkvec, _, _ = gated
        assert darkvec.last_health.promoted is False
        assert darkvec.last_health.verdict == "fail"
        assert any(m.name == "drift" for m in darkvec.last_health.failures())

    def test_prior_state_stays_live(self, gated):
        darkvec, fitted, before = gated
        assert darkvec.fitted is fitted
        np.testing.assert_array_equal(darkvec.embedding.vectors, before)
        assert len(darkvec.trace) == len(fitted.trace)

    def test_refused_update_still_recorded(self, gated):
        darkvec, _, _ = gated
        record = darkvec.registry.last(kind="update")
        assert record["health"]["promoted"] is False
        assert record["health"]["verdict"] == "fail"

    def test_ungated_update_promotes(self, small_bundle, tmp_path):
        trace = small_bundle.trace
        cut = trace.start_time + 3 * 86400.0
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            window_days=3.0,
            cache_dir=tmp_path,
            health={"drift_warn": 1e-9, "drift_fail": 1e-8},
        )
        darkvec = DarkVec(config).fit(
            trace.between(trace.start_time, cut)
        )
        before = darkvec.embedding.vectors.copy()
        darkvec.update(trace.between(cut, cut + 86400.0))
        # Monitors still fail, but without the gate the update promotes.
        assert darkvec.last_health.verdict == "fail"
        assert darkvec.last_health.promoted is True
        assert not np.array_equal(darkvec.embedding.vectors, before)
