"""The metric catalogue, BENCHMARK.json and what the command prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import tracing

REPO = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    catalogue = layers.END_TO_END + layers.PER_LAYER + layers.STUDY
    names = [name for name, *_ in catalogue]
    assert len(names) == len(set(names))
    for name, unit, *_ in catalogue:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert all(0 < bound <= 0.25 for *_, bound in layers.END_TO_END)
    setup = [m for m in layers.END_TO_END if m[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower", max(b for *_, b in layers.END_TO_END))]


def test_benchmark_json_matches_the_catalogue():
    doc = benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_every_per_layer_metric_comes_out_of_an_empty_trace():
    assert set(layers.layer_metrics([], {})) == {
        name for name, *_ in layers.PER_LAYER + layers.STUDY
    }


def test_every_workload_names_targets_the_tracer_knows():
    known = {path for _, path, _ in tracing.TARGETS}
    for workload in ("fit_paper", "serve_read"):
        assert run.REQUIRED_TARGETS[workload]
        assert set(run.REQUIRED_TARGETS[workload]) <= known


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_prints_every_metric(trace):
    """One short serve_read run per mode against the real program."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_read",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    doc = benchmark_json()
    expected = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        assert set(detail["study"]) == {name for name, *_ in layers.STUDY}
        assert detail["skipped_targets"] == []


def test_the_command_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (REPO / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
