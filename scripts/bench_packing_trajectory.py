#!/usr/bin/env python
"""Record and gate the committed perf trajectory, BENCH_packing.json.

An entry holds what the system runs, measured the way it runs:

- for every workload ``BENCHMARK.json`` declares, the end-to-end metrics
  from the last line of ``perfbench/run.py --workload W --seconds S``
  (``S`` is the benchmark's ``run_seconds``) and the per-layer table
  from the same command with ``--trace 1``;
- ``figures.total_wall_s`` and the wall of every ``repro.cli`` figure
  id, timed around :func:`repro.cli.figure_session` with a run ledger
  installed, as ``figures`` runs by default;
- the spot and capacity-matrix cost ratios against on-demand, which are
  seed-deterministic;
- a host-speed probe, :func:`host_calibration`.

Usage::

    python scripts/bench_packing_trajectory.py --record --label "my change"
    python scripts/bench_packing_trajectory.py --check [--warn-only]

``--record`` appends the entry; an entry with the same label is
replaced, so re-running is idempotent.  ``--check`` re-measures and
gates against the newest entry (see :func:`check`).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
import time
from datetime import date
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_packing.json"
DESCRIPTION = (
    "Perf trajectory, one entry per significant change. Since "
    "2026-10-19 an entry holds perfbench's end-to-end metrics and "
    "--trace 1 layer table per BENCHMARK.json workload, the wall of every "
    "figure, the spot and matrix cost ratios and the host calibration. "
    "Record with `make bench-json LABEL=...`; gate with `make perf-gate`."
)
#: Worst change of a gated metric against the baseline entry.
THRESHOLD = 0.15
#: Timings are best-of-N: host interference only ever adds time.
BEST_OF = 3
#: perfbench end-to-end metrics the gate tracks.  Timings are scaled by
#: the host calibration; the simulated outcomes are seed-deterministic.
TIMED = ("wall_s", "setup_s")
SIMULATED = ("sim_usd", "on_time_ratio")
#: The in-process figure session and the two cost ratios.
FIGURES = "figures.total_wall_s"
RATIOS = ("spot.cost_ratio_vs_on_demand", "matrix.cost_ratio_vs_on_demand")
#: Layers printed for a workload whose timing failed the gate.
TOP_LAYERS = 3


def collect_spot_stats() -> dict:
    """Spot-provisioning facts for the entry: cost ratio and miss rates.

    Runs the spot sweep (every interruption regime x fallback ladder
    on/off at the operating point, plus the bid x slack sensitivity
    grid) and records per-regime miss rates, the cost of the spot-mixed
    fleet against the pure on-demand baseline, and the two acceptance
    verdicts the ladder is held to: at most a 10 % miss rate under
    every regime, and a mean bill below pure on-demand.  The headline
    ``cost_ratio_vs_on_demand`` (mean over regimes, ladder on) feeds
    the ``--check`` gate: a change that erodes the spot saving — a
    ladder rung regressing to on-demand too eagerly, billing drift —
    moves it past the budget.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_spot import spot_sweep

    _, stats = spot_sweep()
    slo = stats["slo"]
    regimes = {
        name: {
            "on_miss_rate": cell["on"]["miss_rate"],
            "off_miss_rate": cell["off"]["miss_rate"],
            "on_mean_cost_usd": cell["on"]["mean_cost_usd"],
            "on_mean_cost_ratio": cell["on"]["mean_cost_ratio"],
            "off_mean_cost_ratio": cell["off"]["mean_cost_ratio"],
        }
        for name, cell in sorted(stats["regimes"].items())
    }
    ratios = [r["on_mean_cost_ratio"] for r in regimes.values()]
    return {
        "workload": f"{len(regimes)} interruption regimes x (ladder "
                    "on/off) + bid x slack sensitivity grid",
        "regimes": regimes,
        "cost_ratio_vs_on_demand": round(sum(ratios) / len(ratios), 4),
        "on_worst_miss_rate": max(r["on_miss_rate"] for r in regimes.values()),
        "off_worst_miss_rate": max(
            r["off_miss_rate"] for r in regimes.values()),
        "slo_ok": {policy: rep.ok for policy, rep in sorted(slo.items())},
        "acceptance_on_le_10pct_everywhere": all(
            r["on_miss_rate"] <= 0.10 for r in regimes.values()),
        "acceptance_cheaper_than_on_demand_everywhere": all(
            r["on_mean_cost_ratio"] < 1.0 for r in regimes.values()),
    }


def collect_matrix_stats() -> dict:
    """Capacity-matrix facts for the entry: broker stacks under fire.

    Runs the broker-stack matrix (on-demand fleet control, spot ladder,
    spot with warm-lease escalation — each over both workflow shapes,
    every interruption regime and the default seeds) and records the
    per-(stack, regime) grid, the per-stack SLO verdicts, and the
    headline ``cost_ratio_vs_on_demand`` — the mean bill of the spot
    stacks relative to the like-for-like on-demand baseline.  That
    headline feeds the ``--check`` gate: a broker regression that makes
    the ladder escalate to list price too eagerly, leaks lease hours, or
    re-runs interrupted segments it already paid for moves the ratio
    toward 1.0.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_matrix import matrix_sweep

    _, stats = matrix_sweep()
    slo = stats["slo"]
    grid = {
        f"{g['stack']}@{g['regime']}": {
            "miss_rate": g["miss_rate"],
            "mean_cost_ratio": g["mean_cost_ratio"],
        }
        for g in stats["grid"]
    }
    spot_stacks = [s for s in ("spot", "spot-lease") if s in stats["stacks"]]
    ratios = [stats["stacks"][s]["mean_cost_ratio"] for s in spot_stacks]
    return {
        "workload": f"{len(stats['stacks'])} broker stacks x 2 shapes x "
                    "3 interruption regimes x default seeds",
        "grid": grid,
        "stack_miss_rates": {
            s: agg["miss_rate"] for s, agg in sorted(stats["stacks"].items())},
        "stack_cost_ratios": {
            s: agg["mean_cost_ratio"]
            for s, agg in sorted(stats["stacks"].items())},
        "cost_ratio_vs_on_demand": round(sum(ratios) / len(ratios), 4)
        if ratios else 1.0,
        "slo_ok": {s: r.ok for s, r in sorted(slo.items())},
        "acceptance_spot_le_10pct_everywhere": all(
            v["miss_rate"] <= 0.10 for k, v in grid.items()
            if k.split("@")[0] in spot_stacks),
        "acceptance_spot_cheaper_than_on_demand_everywhere": all(
            v["mean_cost_ratio"] < 1.0 for k, v in grid.items()
            if k.split("@")[0] in spot_stacks),
    }


def host_calibration() -> float:
    """Host-speed probe: ops/s of a fixed pure-Python mixed workload.

    The gate compares timings measured *now* against numbers committed
    from a different machine (or the same machine in a different load
    regime), so raw seconds are not comparable: CPU steal, frequency
    scaling and thermal state move every pure-Python workload roughly
    proportionally.  Each trajectory entry records this probe's ops/s at
    measurement time and ``--check`` normalises its own measurements by
    the calibration ratio before gating, so a correct build on a slow
    host is not flagged and a regressed build on a fast host is.
    Best-of-5 (interference is one-sided), ~50 ms per rep.
    """
    n = 200_000
    best = math.inf
    for _ in range(5):
        acc = 0
        d: dict[int, int] = {}
        t0 = time.perf_counter()
        for i in range(n):
            acc += i * i
            if not i % 17:
                d[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return n / best


def benchmark() -> dict:
    """The declared benchmark: workloads, run length and metric directions."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def run_perfbench(workload: str, seconds: float,
                  trace: bool = False) -> dict[str, float]:
    """Metric values from one ``perfbench/run.py`` run of ``workload``.

    The run's working directory is a temp dir, so its ``.perfbench/``
    output stays out of the repo.  A run that fails or whose outputs
    fail perfbench's checks stops the script: its timings mean nothing.
    """
    argv = [sys.executable, str(REPO / "perfbench" / "run.py"),
            "--workload", workload, "--seconds", str(seconds),
            "--trace", str(int(trace))]
    print(f"perfbench {workload} ({seconds:g} s{', traced' if trace else ''})",
          file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as cwd:
        res = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        raise SystemExit(f"perfbench {workload} exited {res.returncode}:\n"
                         f"{res.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench {workload}: {result['failed']} of "
                         f"{result['attempted']} iterations failed their "
                         "checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def time_figures() -> dict:
    """Wall seconds of every figure id and their total, in one session.

    A file-backed run ledger under ``.repro/runs`` is installed, as the
    ``figures`` subcommand does by default, so the walls include the
    flight recorder and CI can upload the ledger next to the verdict.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import FIGURES as IDS
    from repro.cli import figure_session
    from repro.obs.ledger import RunLedger, set_run_ledger

    print("figure session", file=sys.stderr, flush=True)
    walls = {}
    previous = set_run_ledger(RunLedger(REPO / ".repro" / "runs"))
    try:
        t0 = last = time.perf_counter()
        for fid, _, _ in figure_session(IDS):
            now = time.perf_counter()
            walls[fid], last = round(now - last, 4), now
    finally:
        set_run_ledger(previous)
    return {"total_wall_s": round(last - t0, 4), "wall_s": walls}


def measure(sources: list[str], seconds: float) -> tuple[dict, float]:
    """Results of ``sources`` (workload names, or ``"figures"``) and the
    host-speed probe.

    The probe runs after each source and the fastest reading counts:
    like the timings, it can only read slow when another tenant is busy.
    """
    results, probes = {}, []
    for source in sources:
        results[source] = (time_figures() if source == "figures"
                           else run_perfbench(source, seconds))
        probes.append(host_calibration())
    return results, max(probes)


def cost_ratios() -> dict[str, dict[str, float]]:
    """The two seed-deterministic cost ratios, as an entry holds them."""
    return {name: {"cost_ratio_vs_on_demand":
                   collect()["cost_ratio_vs_on_demand"]}
            for name, collect in (("spot", collect_spot_stats),
                                  ("matrix", collect_matrix_stats))}


def load_trajectory() -> dict:
    """Load the committed trajectory file, or an empty skeleton."""
    if OUT.exists():
        return json.loads(OUT.read_text())
    return {"description": DESCRIPTION, "entries": []}


def directions(workloads: list[str]) -> dict[str, str]:
    """Gated metric name -> the direction that is better."""
    better = {m["name"]: m["better"] for m in benchmark()["end_to_end"]}
    return {**{f"{w}.{m}": better[m] for w in workloads
               for m in TIMED + SIMULATED},
            FIGURES: "lower", **{r: "lower" for r in RATIOS}}


def gated_values(entry: dict) -> dict[str, float]:
    """The gated metrics an entry holds, by dotted name."""
    values = {f"{w}.{m}": runs["end_to_end"][m]
              for w, runs in entry.get("workloads", {}).items()
              for m in TIMED + SIMULATED if m in runs["end_to_end"]}
    if "figures" in entry:
        values[FIGURES] = entry["figures"]["total_wall_s"]
    for name in RATIOS:
        group, metric = name.split(".")
        if metric in entry.get(group, {}):
            values[name] = entry[group][metric]
    return values


def calibrated(name: str) -> bool:
    """Whether host speed moves the metric (a timing, not an outcome)."""
    return name == FIGURES or name.endswith(tuple(f".{m}" for m in TIMED))


def record(label: str) -> None:
    """``--record``: measure everything an entry holds and append it."""
    bench = benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results, calibration = measure([*workloads, "figures"], seconds)
    entry = {
        "label": label,
        "date": date.today().isoformat(),
        "run_seconds": seconds,
        "workloads": {
            w: {"end_to_end": results[w],
                "layers": run_perfbench(w, seconds, trace=True)}
            for w in workloads
        },
        "figures": results["figures"],
        **cost_ratios(),
        "calibration_ops_per_s": round(calibration, 1),
    }
    trajectory = load_trajectory()
    trajectory["description"] = DESCRIPTION
    trajectory["entries"] = [
        e for e in trajectory["entries"] if e["label"] != label
    ] + [entry]
    OUT.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {OUT.name} ({len(trajectory['entries'])} entries)")


def grown(base: dict[str, float], current: dict[str, float],
          ratio: float) -> list[tuple[str, float, float]]:
    """``(name, base, calibrated current)`` of the ``TOP_LAYERS`` timings
    (``*.self_s`` or figure walls) that grew most, largest growth first."""
    rows = [(name, base[name], current[name] * ratio)
            for name in current if name in base]
    rows.sort(key=lambda r: r[1] - r[2])
    return [r for r in rows[:TOP_LAYERS] if r[2] > r[1]]


def check(warn_only: bool) -> int:
    """``--check``: re-measure and gate against the newest entry.

    Gated are perfbench's ``wall_s``, ``setup_s``, ``sim_usd`` and
    ``on_time_ratio`` per workload, ``figures.total_wall_s`` and the two
    cost ratios; a metric fails when it is worse than the entry by more
    than ``THRESHOLD``.  Timings are multiplied by the
    :func:`host_calibration` ratio against the entry's probe (see
    :func:`measure`), so a correct build on a slow host is not flagged
    and a regressed build on a fast host is.  Noise on a shared host
    only ever adds time, so a source (a workload, or the figure session)
    whose timing fails is measured again, up to ``BEST_OF`` times in
    all; each metric keeps its best reading and the probe its fastest,
    so a probe that read the host slow cannot excuse a slow timing.
    For a timing that still fails, the workload runs once more with
    ``--trace 1`` and the layers whose self time grew most are printed
    (for the figure session: the figures whose wall grew most), so the
    failure names its layer.  ``--warn-only`` reports violations but
    exits 0.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.diff import regression_gate, render_gate_report

    entries = load_trajectory()["entries"]
    if not entries:
        print("no committed trajectory entries; gate skipped")
        return 0
    entry = entries[-1]
    baseline = gated_values(entry)
    workloads = [w["name"] for w in benchmark()["workloads"]]
    tracked = directions(workloads)
    seconds = entry["run_seconds"]
    cal_base = entry["calibration_ops_per_s"]

    current = gated_values(cost_ratios())
    best: dict[str, float] = {}
    figures: dict = {}
    calibration = 0.0
    sources = everything = [*workloads, "figures"]
    for attempt in range(1, BEST_OF + 1):
        results, probe = measure(sources, seconds)
        calibration = max(calibration, probe)
        ratio = calibration / cal_base
        print(f"attempt {attempt}/{BEST_OF}: host calibration x{ratio:.2f} "
              f"vs baseline entry ({cal_base:,.0f} ops/s)")
        figures = results.pop("figures", figures)
        fresh = {f"{w}.{m}": v for w, metrics in results.items()
                 for m, v in metrics.items() if m in TIMED + SIMULATED}
        if "figures" in sources:
            fresh[FIGURES] = figures["total_wall_s"]
        for name, value in fresh.items():
            pick = min if tracked[name] == "lower" else max
            best[name] = pick(best.get(name, value), value)
        current.update({name: value * ratio if calibrated(name) else value
                        for name, value in best.items()})
        violations = regression_gate(baseline, current, tracked,
                                     threshold=THRESHOLD)
        # A faster probe can tip a source measured earlier, so every
        # source whose timing fails now is measured again.
        sources = [s for s in everything
                   if any(v.metric.split(".")[0] == s and calibrated(v.metric)
                          for v in violations)]
        if not sources:
            break
    print(render_gate_report(baseline, current, tracked, violations,
                             threshold=THRESHOLD))
    print(f"(baseline entry: {entry['label']!r}, {entry['date']})")
    for source in sources:
        if source == "figures":
            rows = grown(entry["figures"]["wall_s"], figures["wall_s"], ratio)
        else:
            layers = run_perfbench(source, seconds, trace=True)
            rows = grown(entry["workloads"][source]["layers"],
                         {k: v for k, v in layers.items()
                          if k.endswith(".self_s")}, ratio)
        print(f"{source}: grew most against the entry's table "
              "(calibrated): " + (", ".join(
                  f"{name} {base:.3f} -> {cur:.3f} s" for name, base, cur
                  in rows) or "nothing grew"))
    if violations and warn_only:
        print("warn-only mode: regressions reported above, exiting 0")
        return 0
    return 1 if violations else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="measure and append an entry (needs --label)")
    mode.add_argument("--check", action="store_true",
                      help="regression-gate against the newest entry")
    ap.add_argument("--label", help="entry label (same label = replace)")
    ap.add_argument("--warn-only", action="store_true",
                    help="with --check: report regressions but exit 0")
    args = ap.parse_args()

    if args.check:
        raise SystemExit(check(args.warn_only))
    if not args.label:
        ap.error("--record needs --label")
    record(args.label)


if __name__ == "__main__":
    main()
