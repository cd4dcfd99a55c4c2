"""The perf trajectory (``scripts/bench_packing_trajectory.py``).

A real ``--check`` runs every perfbench workload and the figure session
for minutes, so the gate tests stub the measurements and check the
verdict and what a failure names.  The committed newest entry is checked
against ``BENCHMARK.json``, so the trajectory and the benchmark keep one
set of workloads and metric names.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {"wall_s": 1.0, "files_per_s": 1000.0, "setup_s": 0.5,
              "peak_rss_mb": 150.0, "sim_usd": 2.0, "on_time_ratio": 1.0}
LAYERS = {"corpus.self_s": 0.3, "apps.self_s": 0.4, "sim.self_s": 0.1,
          "corpus.files": 1000}


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script, its trajectory file in ``tmp_path`` holding one entry."""
    spec = importlib.util.spec_from_file_location(
        "_bench_trajectory", REPO / "scripts" / "bench_packing_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entry = {
        "label": "baseline", "date": "2026-10-19", "run_seconds": 20,
        "workloads": {w: {"end_to_end": dict(END_TO_END),
                          "layers": dict(LAYERS)} for w in WORKLOADS},
        "figures": {"total_wall_s": 10.0, "wall_s": {"F1a": 4.0, "F2": 6.0}},
        "spot": {"cost_ratio_vs_on_demand": 0.25},
        "matrix": {"cost_ratio_vs_on_demand": 0.4},
        "calibration_ops_per_s": 1000.0,
    }
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"description": "d", "entries": [entry]},
                              indent=2) + "\n")
    monkeypatch.setattr(module, "OUT", out)
    module.calls = []
    return module


def stub(monkeypatch, bench, *, slower=None, factor=1.0, host=1.0):
    """Measurements equal to the entry, except ``slower``'s ``wall_s`` and
    ``apps.self_s`` times ``factor``; the host probe reads ``host`` times
    the entry's."""
    def run_perfbench(workload, seconds, trace=False):
        bench.calls.append((workload, trace))
        scale = factor if workload == slower else 1.0
        if trace:
            return {**LAYERS, "apps.self_s": LAYERS["apps.self_s"] * scale}
        return {**END_TO_END, "wall_s": END_TO_END["wall_s"] * scale}

    def time_figures():
        bench.calls.append(("figures", False))
        return {"total_wall_s": 10.0, "wall_s": {"F1a": 4.0, "F2": 6.0}}

    monkeypatch.setattr(bench, "run_perfbench", run_perfbench)
    monkeypatch.setattr(bench, "time_figures", time_figures)
    monkeypatch.setattr(bench, "collect_spot_stats",
                        lambda: {"cost_ratio_vs_on_demand": 0.25})
    monkeypatch.setattr(bench, "collect_matrix_stats",
                        lambda: {"cost_ratio_vs_on_demand": 0.4})
    monkeypatch.setattr(bench, "host_calibration", lambda: 1000.0 * host)


def test_check_passes_on_equal_numbers(bench, monkeypatch, capsys):
    stub(monkeypatch, bench)
    assert bench.check(warn_only=False) == 0
    out = capsys.readouterr().out
    assert "=> PASS (0 regressions)" in out
    for w in WORKLOADS:
        assert f"{w}.wall_s" in out and f"{w}.sim_usd" in out
    assert "figures.total_wall_s" in out
    assert "matrix.cost_ratio_vs_on_demand" in out
    assert sorted(bench.calls) == sorted(
        [(w, False) for w in WORKLOADS] + [("figures", False)])


def test_check_names_workload_metric_and_layer(bench, monkeypatch, capsys):
    """A 30% slower ``wall_s`` fails after best-of-N, and the traced rerun
    names the layer whose self time grew."""
    stub(monkeypatch, bench, slower="grep-reshape", factor=1.3)
    assert bench.check(warn_only=False) == 1
    out = capsys.readouterr().out
    fail = [line for line in out.splitlines() if "FAIL" in line
            and "regressions" not in line]
    assert len(fail) == 1 and "grep-reshape.wall_s" in fail[0]
    assert "grep-reshape: grew most" in out
    assert "apps.self_s 0.400 -> 0.520 s" in out
    assert bench.calls.count(("grep-reshape", False)) == bench.BEST_OF
    assert bench.calls.count(("grep-reshape", True)) == 1
    assert bench.calls.count(("figures", False)) == 1
    assert bench.calls.count(("pos-deadline", False)) == 1


def test_warn_only_reports_and_exits_zero(bench, monkeypatch, capsys):
    stub(monkeypatch, bench, slower="grep-reshape", factor=1.3)
    assert bench.check(warn_only=True) == 0
    out = capsys.readouterr().out
    assert "grep-reshape.wall_s" in out and "warn-only" in out


@pytest.mark.parametrize("host, factor, rc", [
    (0.5, 2.0, 0),     # a host half as fast: twice the wall is no change
    (2.0, 1.0, 1),     # the same wall on a host twice as fast regressed
])
def test_timings_are_calibrated(bench, monkeypatch, host, factor, rc):
    stub(monkeypatch, bench, host=host)
    # Every timing reads ``factor`` times the entry's on this host.
    run = bench.run_perfbench
    monkeypatch.setattr(bench, "run_perfbench", lambda w, s, trace=False: {
        **run(w, s, trace), "wall_s": END_TO_END["wall_s"] * factor,
        "setup_s": END_TO_END["setup_s"] * factor})
    fig = bench.time_figures
    monkeypatch.setattr(bench, "time_figures", lambda: {
        **fig(), "total_wall_s": 10.0 * factor})
    assert bench.check(warn_only=False) == rc


def test_a_slow_probe_cannot_excuse_a_slow_timing(bench, monkeypatch,
                                                  capsys):
    """The probe keeps its fastest reading over the whole check, so
    retries that read the host slow do not scale a regression away."""
    stub(monkeypatch, bench, slower="grep-reshape", factor=1.3)
    probes = iter([1000.0] * 4 + [500.0] * 10)
    monkeypatch.setattr(bench, "host_calibration", lambda: next(probes))
    assert bench.check(warn_only=False) == 1
    out = capsys.readouterr().out
    assert out.count("host calibration x1.00") == bench.BEST_OF


def test_check_gates_simulated_outcomes_uncalibrated(bench, monkeypatch,
                                                     capsys):
    """``sim_usd`` is seed-deterministic: a slow host does not excuse it,
    and re-measuring cannot help, so it is measured once."""
    stub(monkeypatch, bench, host=0.5)
    run = bench.run_perfbench
    monkeypatch.setattr(bench, "run_perfbench", lambda w, s, trace=False: {
        **run(w, s, trace), "sim_usd": END_TO_END["sim_usd"] * 1.3})
    assert bench.check(warn_only=False) == 1
    out = capsys.readouterr().out
    assert all(f"{w}.sim_usd" in out for w in WORKLOADS)
    assert bench.calls.count(("pos-deadline", False)) == 1


def test_record_appends_and_replaces_by_label(bench, monkeypatch):
    stub(monkeypatch, bench)
    before = json.loads(bench.OUT.read_text())["entries"]
    bench.record("new")
    bench.record("new")
    entries = json.loads(bench.OUT.read_text())["entries"]
    assert entries[:-1] == before and len(entries) == 2
    new = entries[-1]
    assert list(new["workloads"]) == WORKLOADS
    assert new["workloads"]["grep-reshape"]["layers"] == LAYERS
    assert new["run_seconds"] == BENCHMARK["run_seconds"]
    assert bench.gated_values(new) == bench.gated_values(before[0])


def test_newest_entry_holds_the_benchmark():
    """The committed newest entry holds every ``BENCHMARK.json`` workload
    with its end-to-end and per-layer metric names, and every figure."""
    entry = json.loads((REPO / "BENCH_packing.json").read_text())[
        "entries"][-1]
    assert list(entry["workloads"]) == WORKLOADS
    for runs in entry["workloads"].values():
        assert list(runs["end_to_end"]) == [
            m["name"] for m in BENCHMARK["end_to_end"]]
        assert list(runs["layers"]) == [
            m["name"] for m in BENCHMARK["per_layer"]]
    assert list(entry["figures"]["wall_s"]) == list(FIGURES)
    assert entry["run_seconds"] == BENCHMARK["run_seconds"]
    for name in ("spot", "matrix"):
        assert 0 < entry[name]["cost_ratio_vs_on_demand"] < 1
    assert entry["calibration_ops_per_s"] > 0


@pytest.mark.parametrize("argv", [
    ["--record"], ["--label", "x"], ["--record", "--check"],
    ["--run", "--label", "x"], ["raw.json", "--record", "--label", "x"],
])
def test_only_record_label_check_and_warn_only(bench, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["bench_packing_trajectory.py", *argv])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 2
