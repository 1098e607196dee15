"""Tests for the command-line interface (end-to-end workflow)."""

import argparse

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full CLI workflow once; commands share the artefacts."""
    root = tmp_path_factory.mktemp("cli")
    trace_file = root / "trace.csv"
    vectors_file = root / "vectors.npz"
    rc = main(
        [
            "simulate",
            "--out",
            str(trace_file),
            "--scale",
            "0.02",
            "--days",
            "3",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--trace",
            str(trace_file),
            "--out",
            str(vectors_file),
            "--epochs",
            "3",
            "--vector-size",
            "16",
        ]
    )
    assert rc == 0
    return root, trace_file, vectors_file


class TestSimulate:
    def test_artifacts_written(self, workspace):
        root, trace_file, _ = workspace
        assert trace_file.exists()
        labels_file = root / "trace.csv.labels.csv"
        assert labels_file.exists()
        assert labels_file.read_text().startswith("src_ip,label")

    def test_trace_readable(self, workspace):
        from repro.io.csvio import read_trace_csv

        _, trace_file, _ = workspace
        trace = read_trace_csv(trace_file)
        assert trace.n_packets > 100


class TestStats:
    def test_prints_summary(self, workspace, capsys):
        _, trace_file, _ = workspace
        assert main(["stats", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "full trace" in out
        assert "active senders" in out


class TestTrain:
    def test_vectors_keyed_by_ip(self, workspace):
        from repro.w2v.keyedvectors import KeyedVectors

        _, _, vectors_file = workspace
        keyed = KeyedVectors.load(vectors_file)
        assert len(keyed) > 50
        assert keyed.vector_size == 16
        # Tokens are IPv4 addresses (large ints), sorted.
        assert keyed.tokens.min() > 2**20
        assert np.all(np.diff(keyed.tokens) > 0)


class TestEvaluate:
    def test_report_printed(self, workspace, capsys):
        root, trace_file, vectors_file = workspace
        rc = main(
            [
                "evaluate",
                "--trace",
                str(trace_file),
                "--vectors",
                str(vectors_file),
                "--labels",
                str(root / "trace.csv.labels.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        assert "Mirai-like" in out


class TestCluster:
    def test_clusters_printed(self, workspace, capsys):
        _, trace_file, vectors_file = workspace
        rc = main(
            [
                "cluster",
                "--trace",
                str(trace_file),
                "--vectors",
                str(vectors_file),
                "--min-size",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "Cluster" in out


class TestTelemetryFlags:
    def test_metrics_out_writes_ndjson(self, workspace, tmp_path):
        from repro.io.ndjson import read_ndjson

        _, trace_file, _ = workspace
        metrics_file = tmp_path / "train.ndjson"
        rc = main(
            [
                "train",
                "--trace",
                str(trace_file),
                "--out",
                str(tmp_path / "v.npz"),
                "--epochs",
                "2",
                "--vector-size",
                "8",
                "--metrics-out",
                str(metrics_file),
            ]
        )
        assert rc == 0
        records = read_ndjson(metrics_file)
        types = {record["type"] for record in records}
        assert {"span", "counter", "gauge"} <= types
        counters = {
            record["name"]: record["value"]
            for record in records
            if record["type"] == "counter"
        }
        assert counters["train.epochs"] == 2
        assert counters["corpus.tokens"] > 0
        paths = [r["path"] for r in records if r["type"] == "span"]
        assert "pipeline.fit/stage.train/train.fit" in paths

    def test_profile_flag_prints_tables(self, workspace, tmp_path, capsys):
        _, trace_file, _ = workspace
        rc = main(
            [
                "train",
                "--trace",
                str(trace_file),
                "--out",
                str(tmp_path / "v.npz"),
                "--epochs",
                "2",
                "--vector-size",
                "8",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 1/2" in out
        assert "Pipeline stages" in out
        assert "train.fit" in out
        assert "Peak mem" in out
        assert "train.pairs" in out

    def test_profile_subcommand_smoke(self, tmp_path, capsys):
        metrics_file = tmp_path / "profile.ndjson"
        rc = main(
            [
                "profile",
                "--preset",
                "small",
                "--epochs",
                "2",
                "--metrics-out",
                str(metrics_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "modularity" in out
        assert "pipeline.cluster" in out
        assert metrics_file.exists()

    def test_deterministic_counters_match_across_workers(self, tmp_path):
        from repro.io.ndjson import read_ndjson
        from repro.obs import counters_from_records

        counters = {}
        for workers in (1, 2):
            metrics_file = tmp_path / f"w{workers}.ndjson"
            rc = main(
                [
                    "profile",
                    "--preset",
                    "small",
                    "--epochs",
                    "2",
                    "--workers",
                    str(workers),
                    "--metrics-out",
                    str(metrics_file),
                ]
            )
            assert rc == 0
            counters[workers] = counters_from_records(
                read_ndjson(metrics_file), deterministic_only=True
            )
        assert counters[1] and counters[1] == counters[2]


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


#: The arguments each verb that takes the ANN flags requires.
_ANN_VERB_ARGS = {
    "run": ["--trace", "t.csv", "--cache-dir", "c"],
    "resume": ["--trace", "t.csv", "--cache-dir", "c"],
    "evaluate": ["--trace", "t.csv", "--vectors", "v.npz", "--labels", "l.csv"],
    "cluster": ["--trace", "t.csv", "--vectors", "v.npz"],
    "update": ["--trace", "d.csv", "--cache-dir", "c"],
    "serve": ["--cache-dir", "c"],
}

#: The DarkVecConfig fields the ANN flags set.
_ANN_FIELDS = (
    "ann_backend",
    "ann_nlist",
    "ann_nprobe",
    "ann_pq_m",
    "ann_pq_bits",
    "ann_hnsw_m",
    "ann_hnsw_ef_build",
    "ann_hnsw_ef_search",
)


def _ann_args(argv: list[str]) -> dict:
    """The ``ann_*`` values the parser gives for ``argv``."""
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    return {k: v for k, v in vars(args).items() if k.startswith("ann_")}


class TestAnnFlags:
    @pytest.mark.parametrize("verb", ["run", "resume", "evaluate", "cluster"])
    def test_defaults_equal_the_config_defaults(self, verb):
        from repro.core import DarkVecConfig

        defaults = DarkVecConfig()
        assert _ann_args([verb, *_ANN_VERB_ARGS[verb]]) == {
            field: getattr(defaults, field) for field in _ANN_FIELDS
        }

    @pytest.mark.parametrize("verb", ["update", "serve"])
    def test_state_verbs_override_nothing_by_default(self, verb):
        assert _ann_args([verb, *_ANN_VERB_ARGS[verb]]) == dict.fromkeys(
            _ANN_FIELDS
        )

    @pytest.mark.parametrize("verb", ["update", "serve"])
    def test_state_verbs_override_exactly_the_given_flags(self, verb):
        given = _ann_args(
            [
                verb,
                *_ANN_VERB_ARGS[verb],
                "--ann-backend", "hnsw",
                "--ann-hnsw-ef-search", "16",
                "--ann-nlist", "0",
            ]
        )
        assert {k: v for k, v in given.items() if v is not None} == {
            "ann_backend": "hnsw",
            "ann_hnsw_ef_search": 16,
            "ann_nlist": 0,
        }

    @pytest.mark.parametrize("verb", sorted(_ANN_VERB_ARGS))
    def test_backend_choices_are_the_backend_table(self, verb):
        from repro.ann.base import BACKENDS
        from repro.cli import build_parser

        (verbs,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (flag,) = [
            action
            for action in verbs.choices[verb]._actions
            if action.dest == "ann_backend"
        ]
        assert tuple(flag.choices) == tuple(BACKENDS)

    def test_update_applies_exactly_the_given_overrides(
        self, staged_workspace, tmp_path
    ):
        import dataclasses
        import shutil

        from repro.core import DarkVec

        _, _, cache_dir, tail_file = staged_workspace
        state = tmp_path / "state"
        shutil.copytree(cache_dir / "state", state)
        before = DarkVec.load_state(state).config
        rc = main(
            [
                "update",
                "--trace", str(tail_file),
                "--state", str(state),
                "--ann-backend", "ivf",
                "--ann-nprobe", "4",
            ]
        )
        assert rc == 0
        assert DarkVec.load_state(state).config == dataclasses.replace(
            before, ann_backend="ivf", ann_nprobe=4
        )


class TestPresets:
    def test_minimal_preset_simulation(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        rc = main(
            [
                "simulate",
                "--out",
                str(out),
                "--preset",
                "minimal",
                "--days",
                "2",
            ]
        )
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "packets" in text

    def test_quiet_preset_has_empty_labels(self, tmp_path):
        out = tmp_path / "quiet.csv"
        rc = main(
            ["simulate", "--out", str(out), "--preset", "quiet", "--days", "2"]
        )
        assert rc == 0
        labels = (tmp_path / "quiet.csv.labels.csv").read_text()
        assert labels.strip() == "src_ip,label"

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--out",
                    str(tmp_path / "x.csv"),
                    "--preset",
                    "bogus",
                ]
            )

    def test_config_document_simulation(self, tmp_path):
        import json

        config = {
            "days": 2,
            "seed": 1,
            "actors": [
                {
                    "name": "a",
                    "senders": {"kind": "subnet24", "count": 5},
                    "schedule": {"kind": "continuous", "rate_per_day": 30},
                    "ports": {"head": [["80/tcp", 1.0]]},
                }
            ],
        }
        config_file = tmp_path / "scenario.json"
        config_file.write_text(json.dumps(config))
        out = tmp_path / "custom.csv"
        rc = main(
            ["simulate", "--out", str(out), "--config", str(config_file)]
        )
        assert rc == 0
        assert out.exists()


@pytest.fixture(scope="module")
def staged_workspace(tmp_path_factory):
    """Simulate 4 days, split off the last day, run the staged pipeline."""
    import numpy as np

    from repro.io.csvio import read_trace_csv, write_trace_csv
    from repro.trace.packet import SECONDS_PER_DAY

    root = tmp_path_factory.mktemp("staged")
    full_file = root / "full.csv"
    rc = main(
        [
            "simulate",
            "--out",
            str(full_file),
            "--scale",
            "0.02",
            "--days",
            "4",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    full = read_trace_csv(full_file)
    cut = full.start_time + 3 * SECONDS_PER_DAY
    head_file = root / "head.csv"
    tail_file = root / "tail.csv"
    write_trace_csv(full.between(full.start_time, cut), head_file)
    write_trace_csv(full.between(cut, np.inf), tail_file)

    cache_dir = root / "cache"
    run_args = [
        "--trace",
        str(head_file),
        "--cache-dir",
        str(cache_dir),
        "--epochs",
        "2",
        "--vector-size",
        "16",
    ]
    rc = main(["run", *run_args])
    assert rc == 0
    return root, run_args, cache_dir, tail_file


class TestRunResumeUpdate:
    def test_run_populates_cache_and_state(self, staged_workspace):
        _, _, cache_dir, _ = staged_workspace
        objects = list((cache_dir / "objects").iterdir())
        assert objects, "artifact store is empty after run"
        state_dir = cache_dir / "state"
        for name in (
            "config.json",
            "meta.json",
            "trace.npz",
            "corpus.npz",
            "embedding.npz",
        ):
            assert (state_dir / name).exists(), name

    def test_resume_is_all_cache_hits(self, staged_workspace, capsys):
        _, run_args, _, _ = staged_workspace
        rc = main(["resume", *run_args])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5/5 stages served" in out
        assert out.count(" hit ") >= 5

    def test_run_exports_vectors(self, staged_workspace, tmp_path):
        from repro.w2v.keyedvectors import KeyedVectors

        _, run_args, _, _ = staged_workspace
        out_file = tmp_path / "vec.npz"
        rc = main(["run", *run_args, "--out", str(out_file)])
        assert rc == 0
        keyed = KeyedVectors.load(out_file)
        assert len(keyed) > 0
        assert keyed.vector_size == 16

    def test_update_appends_the_new_day(self, staged_workspace, capsys):
        from repro.core import DarkVec

        _, _, cache_dir, tail_file = staged_workspace
        before = DarkVec.load_state(cache_dir / "state")
        rc = main(
            ["update", "--trace", str(tail_file), "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "appended" in out
        assert "warm-started" in out
        after = DarkVec.load_state(cache_dir / "state")
        assert len(after.trace) > len(before.trace)
        assert after.embedding.context_vectors is not None

    def test_update_without_state_location_fails(self, tmp_path, capsys):
        rc = main(["update", "--trace", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "needs --state or --cache-dir" in capsys.readouterr().err


@pytest.fixture(scope="module")
def registry_workspace(tmp_path_factory):
    """Staged run + gated update with a registry to query."""
    from repro.io.csvio import read_trace_csv, write_trace_csv
    from repro.trace.packet import SECONDS_PER_DAY

    root = tmp_path_factory.mktemp("registry")
    full_file = root / "full.csv"
    rc = main(
        [
            "simulate",
            "--out",
            str(full_file),
            "--scale",
            "0.02",
            "--days",
            "4",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    full = read_trace_csv(full_file)
    cut = full.start_time + 3 * SECONDS_PER_DAY
    head_file = root / "head.csv"
    tail_file = root / "tail.csv"
    write_trace_csv(full.between(full.start_time, cut), head_file)
    write_trace_csv(full.between(cut, np.inf), tail_file)

    cache_dir = root / "cache"
    rc = main(
        [
            "run",
            "--trace",
            str(head_file),
            "--cache-dir",
            str(cache_dir),
            "--epochs",
            "2",
            "--vector-size",
            "16",
        ]
    )
    assert rc == 0
    metrics_file = root / "update-metrics.ndjson"
    rc = main(
        [
            "update",
            "--trace",
            str(tail_file),
            "--cache-dir",
            str(cache_dir),
            "--labels",
            str(root / "full.csv.labels.csv"),
            "--metrics-out",
            str(metrics_file),
        ]
    )
    assert rc == 0
    return root, cache_dir, tail_file, metrics_file


class TestRunRegistryCli:
    def test_registry_file_written(self, registry_workspace):
        _, cache_dir, _, _ = registry_workspace
        registry_file = cache_dir / "registry" / "runs.ndjson"
        assert registry_file.exists()
        lines = registry_file.read_text().strip().splitlines()
        assert len(lines) == 2
        assert not list((cache_dir / "registry").glob("*.tmp*"))

    def test_update_metrics_out_written(self, registry_workspace):
        _, _, _, metrics_file = registry_workspace
        assert metrics_file.exists()
        assert "span" in metrics_file.read_text()

    def test_runs_list(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(["runs", "list", "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run-0001" in out
        assert "run-0002" in out
        assert "fit" in out
        assert "update" in out

    def test_runs_show(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(["runs", "show", "run-0002", "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run-0002" in out
        assert "Health" in out
        assert "drift" in out

    def test_runs_show_unknown_id_fails(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(["runs", "show", "run-9999", "--cache-dir", str(cache_dir)])
        assert rc == 2
        assert "unknown run" in capsys.readouterr().err

    def test_runs_compare_last(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(["runs", "compare", "--last", "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run-0001" in out
        assert "run-0002" in out
        assert "wall" in out

    def test_runs_compare_explicit_ids(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(
            [
                "runs",
                "compare",
                "run-0001",
                "run-0002",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert rc == 0
        assert "Timing" in capsys.readouterr().out

    def test_health_renders_monitors(self, registry_workspace, capsys):
        _, cache_dir, _, _ = registry_workspace
        rc = main(["health", "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "drift" in out

    def test_records_with_histograms_section_still_read(
        self, registry_workspace, tmp_path, capsys
    ):
        # Older records keep four distributions as bucketed histograms
        # in a `histograms` section of their metric snapshot.
        from repro.io.ndjson import read_ndjson, write_ndjson

        _, cache_dir, _, _ = registry_workspace
        records = read_ndjson(cache_dir / "registry" / "runs.ndjson")
        moved = (
            "ingest.sender_packets",
            "corpus.sentence_length",
            "train.batch_pairs",
            "knn.neighbor_distance",
        )
        for record in records:
            metrics = record.get("metrics")
            if not metrics:
                continue
            metrics["histograms"] = {
                name: {
                    "edges": [1.0, 10.0],
                    "counts": [data["count"], 0, 0],
                    "total": data["count"],
                    "sum": data["sum"],
                }
                for name in moved
                if (data := metrics["sketches"].pop(name, None)) is not None
            }
        assert any((r.get("metrics") or {}).get("histograms") for r in records)
        registry = tmp_path / "registry"
        registry.mkdir()
        write_ndjson(records, registry / "runs.ndjson")
        flags = ["--registry", str(registry)]

        assert main(["runs", "list", *flags]) == 0
        assert "run-0002" in capsys.readouterr().out
        assert main(["runs", "show", "run-0002", "--quantiles", *flags]) == 0
        out = capsys.readouterr().out
        assert "Distribution quantiles" in out
        assert "knn.search_seconds" in out
        assert main(["runs", "compare", "--last", *flags]) == 0
        assert "corpus.sentences" in capsys.readouterr().out
        assert main(["health", *flags]) == 0
        assert "drift" in capsys.readouterr().out

    def test_runs_without_registry_fails(self, tmp_path, capsys):
        rc = main(["runs", "list", "--cache-dir", str(tmp_path / "nope")])
        assert rc in (0, 2)  # empty registry is not an error, missing dir is

    def test_gated_update_refuses_and_keeps_state(
        self, registry_workspace, capsys
    ):
        from repro.core import DarkVec, DarkVecConfig
        from repro.io.csvio import read_trace_csv
        from repro.store.state import save_state

        root, _, tail_file, _ = registry_workspace
        # A fresh cache whose saved state carries a hair-trigger policy.
        strict_cache = root / "strict-cache"
        head = read_trace_csv(root / "head.csv")
        config = DarkVecConfig(
            service="domain",
            epochs=2,
            seed=3,
            vector_size=16,
            window_days=3.0,
            cache_dir=strict_cache,
            health={"drift_warn": 1e-9, "drift_fail": 1e-8},
        )
        darkvec = DarkVec(config).fit(head)
        save_state(darkvec, strict_cache / "state")
        before = (strict_cache / "state" / "embedding.npz").read_bytes()

        rc = main(
            [
                "update",
                "--trace",
                str(tail_file),
                "--cache-dir",
                str(strict_cache),
                "--health-gate",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "fail" in out
        assert "not promoted" in out or "refus" in out
        # The on-disk state is untouched.
        assert (strict_cache / "state" / "embedding.npz").read_bytes() == before
