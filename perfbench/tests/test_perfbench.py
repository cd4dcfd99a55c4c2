"""Tests of the benchmark itself, at a tiny scale.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(WORKLOADS)


def _run_script(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_checks_and_reports_every_metric(name, tmp_path):
    result = run.measure(make_workload(name, tiny=True), 3, 0, tmp_path,
                         min_iterations=1)
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 1, 0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    workload = make_workload(name, tiny=True)
    first, second = (run.trace(workload, workload.seed, 0, tmp_path)
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    counts = {k for k, v in first["metrics"].items()
              if v["unit"] in ("count", "ratio") and k != "trace.overhead"}
    assert {k: first["metrics"][k] for k in counts} == {
        k: second["metrics"][k] for k in counts}
    assert first["metrics"]["apps.units"]["value"] > 0
    if name == "capacity-matrix":
        for layer_count in ("sim.events", "capacity.requests",
                            "dag.derived_files", "cloud.spot_interruptions"):
            assert first["metrics"][layer_count]["value"] > 0, layer_count


def test_missing_target_is_reported_and_wrappers_are_removed(monkeypatch):
    from repro.vfs.files import Segment

    size = Segment.__dict__["size"]
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("dag", "repro.dag", "no_such_function", None),))
    tracer = layers.LayerTracer()
    with tracer.installed():
        assert Segment.__dict__["size"] is not size
    assert tracer.missing == ["repro.dag:no_such_function"]
    assert Segment.__dict__["size"] is size


def test_script_accepts_seed_and_rejects_unknown_workload():
    proc = _run_script(ROOT, "--workload", "nope", "--seed", "5")
    assert proc.returncode == 2
    assert "unknown workload" in proc.stderr


def test_script_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path, "--workload", "grep-reshape", "--seed",
                       "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
