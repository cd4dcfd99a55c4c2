#!/usr/bin/env python
"""Distil pytest-benchmark output into the committed BENCH_packing.json.

``make bench-json`` runs the kernel benchmarks with ``--benchmark-json`` and
pipes the result through this script, which reduces the full statistics dump
to one ``kernel -> {median_s, ops_per_s}`` map and appends it as a labelled
entry to ``BENCH_packing.json``.  The file therefore accumulates a
*trajectory*: one entry per significant packing-engine change, so a
regression shows up as a worsening median against the committed history
rather than against a number someone has to remember.

Usage::

    python scripts/bench_packing_trajectory.py --label "my change" RAW.json
    python scripts/bench_packing_trajectory.py --label "my change" --run

With ``--run`` the script invokes pytest itself (into a temp file); with a
positional path it distils an existing ``--benchmark-json`` dump.  Entries
with the same label are replaced, not duplicated, so re-running is
idempotent.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_packing.json"
BENCH_FILES = [
    "benchmarks/test_perf_kernels.py",
    "benchmarks/test_perf_obs_overhead.py",
    "benchmarks/test_perf_engine.py",
]
BENCH_FILE = BENCH_FILES[0]  # kept for the trajectory-file description


def run_benchmarks(raw_path: Path) -> None:
    """Run the kernel bench suite, writing pytest-benchmark JSON to ``raw_path``."""
    cmd = [
        sys.executable, "-m", "pytest", *BENCH_FILES,
        "--benchmark-only", f"--benchmark-json={raw_path}", "-q",
    ]
    res = subprocess.run(cmd, cwd=REPO, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"})
    if res.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {res.returncode})")


def collect_obs_stats() -> dict:
    """Observability facts for the entry: cache hit-rate and span volume.

    Runs the same probe-set workload twice against one shared cache with
    the observability bundle enabled — the second pass must be all hits —
    and reports the packing-cache counters plus how many trace records the
    instrumentation produced.  A future change that silently stops caching
    (hit-rate drop) or floods the tracer (span-count jump) shows up in the
    trajectory next to the kernel medians it would distort.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro import obs as obs_mod
    from repro.corpus import text_400k_like
    from repro.packing import PackingCache
    from repro.perfmodel.probes import build_probe_set
    from repro.units import KB, MB

    o = obs_mod.configure()
    try:
        cat = text_400k_like(scale=0.1)          # 40k files, as in the bench
        cache = PackingCache()
        sizes = [256 * KB, 512 * KB, 1 * MB, 2 * MB]
        volume = cat.total_size // 2
        for _ in range(2):
            build_probe_set(cat, volume, sizes, cache=cache)
        counters = o.metrics.snapshot()["counters"]

        def total(prefix: str) -> float:
            return sum(v for k, v in counters.items() if k.startswith(prefix))

        hits = total("packing.cache.hits")
        misses = total("packing.cache.misses")
        return {
            "workload": "probe-set build x2, 40k files, 4 unit sizes",
            "cache_hits": int(hits),
            "cache_misses": int(misses),
            "cache_derived": int(total("packing.cache.derived")),
            "cache_hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
            "span_count": o.tracer.span_count,
            "instant_count": len(o.tracer.instants),
        }
    finally:
        obs_mod.disable()


def collect_fleet_stats() -> dict:
    """Fleet-sharing facts for the entry: shared vs isolated economics.

    Runs the concurrent-campaigns experiment (8 grep+POS campaigns on one
    shared fleet vs the same plans run in isolation) and records the two
    bills, the warm-pool hit rate, and the miss rates.  A change that
    regresses the warm pool (hit-rate drop) or erodes the §7 sharing
    saving shows up in the trajectory like a kernel-median regression.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_fleet import shared_vs_isolated

    _, stats = shared_vs_isolated()
    return {
        "workload": f"{stats['n_campaigns']} concurrent grep+POS campaigns, "
                    "shared fleet vs isolated",
        "shared_cost_usd": stats["shared_cost_usd"],
        "isolated_cost_usd": stats["isolated_cost_usd"],
        "saving_pct": stats["saving_pct"],
        "warm_hit_rate": stats["warm_hit_rate"],
        "shared_miss_rate": stats["shared_miss_rate"],
        "isolated_miss_rate": stats["isolated_miss_rate"],
        "shared_instance_hours": stats["shared_instance_hours"],
        "isolated_instance_hours": stats["isolated_instance_hours"],
    }


def collect_chaos_stats() -> dict:
    """Chaos-sweep facts for the entry: miss rates with and without policy.

    Runs the full scenario x policy sweep (every shipped fault scenario,
    resilience on and off, the default seed set) and records per-scenario
    miss rates plus the two acceptance verdicts the resilience layer is
    held to: policy-on stays at or under a 10 % miss rate under *every*
    scenario, and policy-off exceeds 25 % under at least one.  A change
    that erodes a defence (retry, steering, hedging, degradation) flips
    a verdict or moves a miss rate in the trajectory.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_chaos import DEFAULT_SEEDS, chaos_sweep

    _, stats = chaos_sweep()
    scenarios = {
        name: {
            "on_miss_rate": cell["on"]["miss_rate"],
            "off_miss_rate": cell["off"]["miss_rate"],
            "on_mean_cost_usd": cell["on"]["mean_cost_usd"],
            "off_mean_cost_usd": cell["off"]["mean_cost_usd"],
        }
        for name, cell in sorted(stats.items())
    }
    return {
        "workload": f"{len(stats)} fault scenarios x (resilience on/off) "
                    f"x seeds {list(DEFAULT_SEEDS)}",
        "scenarios": scenarios,
        "on_worst_miss_rate": max(
            s["on_miss_rate"] for s in scenarios.values()),
        "off_worst_miss_rate": max(
            s["off_miss_rate"] for s in scenarios.values()),
        "acceptance_on_le_10pct_everywhere": all(
            s["on_miss_rate"] <= 0.10 for s in scenarios.values()),
        "acceptance_off_gt_25pct_somewhere": any(
            s["off_miss_rate"] > 0.25 for s in scenarios.values()),
    }


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
    moves it like a kernel-median regression.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_spot import evaluate_spot_slos, spot_sweep

    _, stats = spot_sweep()
    slo = evaluate_spot_slos(stats)
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
    toward 1.0 like a kernel-median regression.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.exp_matrix import evaluate_matrix_slos, matrix_sweep

    _, stats = matrix_sweep()
    slo = evaluate_matrix_slos(stats)
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


#: Capability metrics are min-of-N: host interference is one-sided.
BEST_OF = 3


def host_calibration() -> float:
    """Host-speed probe: ops/s of a fixed pure-Python mixed workload.

    The gate compares throughput measured *now* against numbers committed
    from a different machine (or the same machine in a different load
    regime), so raw events/s are not comparable: CPU steal, frequency
    scaling and thermal state move every pure-Python workload roughly
    proportionally.  Each trajectory entry records this probe's ops/s at
    measurement time and ``--check`` normalises its own measurements by
    the calibration ratio before gating, so a correct build on a slow
    host is not flagged and a regressed build on a fast host is.
    Best-of-5 (interference is one-sided), ~50 ms per rep.
    """
    import time

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


def collect_runner_core_stats() -> dict:
    """Execution-core facts for the entry: event throughput at fleet scale.

    Runs one 64-instance plan through ``execute_plan`` (one fleet-ready
    barrier event plus one completion event per bin) and reads wall-clock
    runtime, engine events fired, and events/sec off the flight-recorder
    :class:`~repro.obs.ledger.RunRecord` the core emits — the same record
    ``repro.cli runs diff`` compares, so the trajectory and the ledger
    can never disagree about what a run cost.  A change that bloats the
    core's per-event work — extra spans, accidental quadratic scans over
    grants — shows up here before it hurts the big experiments.

    The plan runs ``BEST_OF`` times and the fastest run's record is
    kept: scheduler interference on a shared host only ever slows a
    run down, so the minimum is the least-biased capability estimate
    and keeps the committed baseline comparable with ``--check``.
    """
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.cloud import Cloud, Workload
    from repro.core import reshape
    from repro.core.planner import ProvisioningPlan
    from repro.corpus import text_400k_like
    from repro.obs.ledger import capture_runs, get_run_ledger
    from repro.perfmodel.regression import fit_affine
    from repro.runner import execute_plan

    n_bins = 64
    units = list(reshape(text_400k_like(scale=0.02), None).units)
    model = fit_affine(np.array([1e5, 1e6, 5e6]),
                       0.327 + 0.865e-4 * np.array([1e5, 1e6, 5e6]))
    assignments = [units[i::n_bins] for i in range(n_bins)]
    plan = ProvisioningPlan(
        deadline=240.0, planning_deadline=240.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[model.predict(sum(u.size for u in b))
                         for b in assignments],
    )
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())

    record = report = None
    for _ in range(BEST_OF):
        cloud = Cloud(seed=2010)
        ledger = get_run_ledger()
        if ledger is not None:
            rep = execute_plan(cloud, workload, plan)
            rec = ledger.records(kind="runner", label="execute_plan")[-1]
        else:
            with capture_runs() as mem:
                rep = execute_plan(cloud, workload, plan)
            rec = mem.records()[-1]
        if record is None or ((rec.get("profile.events_per_s") or 0.0)
                              > (record.get("profile.events_per_s") or 0.0)):
            record, report = rec, rep
    wall = record.get("profile.wall_s") or 0.0
    return {
        "workload": f"execute_plan core, {n_bins}-instance plan, "
                    f"{len(units)} units",
        "n_runs": len(report.runs),
        "events_fired": record.get("profile.events_fired"),
        "wall_seconds": round(wall, 4),
        "events_per_s": round(record.get("profile.events_per_s") or 0.0, 1),
        "run_id": record.run_id,
    }


def collect_dag_stats() -> dict:
    """DAG-scheduler facts for the entry: backend sweep + event throughput.

    Two measurements.  First, the backend-comparison sweep
    (S3/EBS/local x linear/fan-out x the default seeds, plus the serial
    fan-out baseline): per-backend mean makespan/cost, the
    serial-over-concurrent speedup, and the campaign SLO verdict — a
    change that erodes stage-concurrency or mis-prices a backend moves
    these next to the kernel medians.  Second, the scheduler's own event
    throughput: one fan-out DAG run's flight-recorder profile
    (events fired / wall seconds), best of ``BEST_OF`` like every other
    capability metric, feeding the ``dag.events_per_s`` gate.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.cloud import Cloud
    from repro.corpus import html_18mil_like
    from repro.dag import S3Backend, execute_dag, fanout_pipeline
    from repro.experiments.exp_dag import (
        DEADLINE,
        DEFAULT_SEEDS,
        SCALE,
        dag_sweep,
        evaluate_dag_slos,
    )
    from repro.obs.ledger import capture_runs, get_run_ledger

    _, stats = dag_sweep()
    slo = evaluate_dag_slos(stats)

    record = None
    for _ in range(BEST_OF):
        cloud = Cloud(seed=2010)
        cat = html_18mil_like(scale=SCALE, seed=2010)
        ledger = get_run_ledger()
        if ledger is not None:
            execute_dag(cloud, fanout_pipeline(), cat, DEADLINE,
                        backend=S3Backend(), label="bench.dag")
            rec = ledger.records(kind="dag", label="bench.dag")[-1]
        else:
            with capture_runs() as mem:
                execute_dag(cloud, fanout_pipeline(), cat, DEADLINE,
                            backend=S3Backend(), label="bench.dag")
            rec = mem.records()[-1]
        if record is None or ((rec.get("profile.events_per_s") or 0.0)
                              > (record.get("profile.events_per_s") or 0.0)):
            record = rec
    return {
        "workload": "backend sweep (3 backends x 2 shapes x seeds "
                    f"{list(DEFAULT_SEEDS)} + serial baseline); "
                    "fan-out DAG on S3 for throughput",
        "agg": stats["agg"],
        "speedup": stats["speedup"],
        "slo_ok": {b: r.ok for b, r in sorted(slo.items())},
        "events_fired": record.get("profile.events_fired"),
        "wall_seconds": round(record.get("profile.wall_s") or 0.0, 4),
        "events_per_s": round(record.get("profile.events_per_s") or 0.0, 1),
        "run_id": record.run_id,
    }


def collect_engine_stats() -> dict:
    """Simulation-core facts for the entry: raw event throughput and
    columnar fleet advance.

    Two measurements.  First, engine throughput: ``schedule_batch`` +
    ``run`` of a 200k-event storm on the heap event queue, tracer off
    and on — the events/s headline the engine
    rewrite is held to (the pre-rewrite runner managed ~1.3k events/s
    end to end).  Second, the columnar uniform-fleet runner at 1k / 10k /
    100k instances, tracer off and on: wall seconds, member-advances/s,
    and the engine event count (exactly two — boot barrier plus fleet
    completion — whatever the fleet size).  Every timing is the best of
    ``BEST_OF`` repeats (interference only slows a run down), so the
    committed entry and the ``--check`` gate estimate the same quantity.
    """
    import time

    sys.path.insert(0, str(REPO / "src"))
    from repro import obs as obs_mod
    from repro.cloud import Cloud, Workload
    from repro.core import reshape
    from repro.corpus import text_400k_like
    from repro.obs import Tracer
    from repro.sim.engine import SimulationEngine

    def noop() -> None:
        pass

    n_storm = 200_000
    storm_times = [((i * 2654435761) & 0xFFFFF) / 16.0 for i in range(n_storm)]
    storm: dict = {}
    for traced in (False, True):
        elapsed = math.inf
        for _ in range(BEST_OF):
            engine = SimulationEngine(tracer=Tracer() if traced else None)
            t0 = time.perf_counter()
            engine.schedule_batch(storm_times, noop, "storm")
            engine.run()
            elapsed = min(elapsed, time.perf_counter() - t0)
        storm["traced" if traced else "fast"] = {
            "wall_seconds": round(elapsed, 4),
            "events_per_s": round(n_storm / elapsed, 1),
        }

    from repro.apps import GrepApplication, GrepCostProfile
    from repro.runner import execute_uniform_fleet

    workload = Workload("scan", GrepApplication(), GrepCostProfile())
    units = list(reshape(text_400k_like(scale=1e-3), None).units)[:6]
    fleets: dict = {}
    for n in (1_000, 10_000, 100_000):
        for traced in (False, True):
            o = obs_mod.configure(metrics=False) if traced else None
            try:
                elapsed = math.inf
                for _ in range(BEST_OF):
                    cloud = Cloud(seed=42)
                    t0 = time.perf_counter()
                    execute_uniform_fleet(cloud, workload, n, units,
                                          deadline=3600.0)
                    elapsed = min(elapsed, time.perf_counter() - t0)
            finally:
                if o is not None:
                    obs_mod.disable()
            key = f"{n}_{'traced' if traced else 'fast'}"
            fleets[key] = {
                "wall_seconds": round(elapsed, 4),
                "instances_per_s": round(n / elapsed, 1),
                "events_fired": cloud.engine.events_fired,
            }

    return {
        "workload": f"{n_storm}-event engine storm; columnar uniform "
                    "fleets of 1k/10k/100k instances (tracer off/on)",
        "storm": storm,
        "fleets": fleets,
        "events_per_s": storm["fast"]["events_per_s"],
        "baseline_events_per_s": 1338.9,
        "speedup_vs_baseline": round(
            storm["fast"]["events_per_s"] / 1338.9, 1),
        "fleet_100k_wall_seconds": fleets["100000_fast"]["wall_seconds"],
    }


def distil(raw: dict) -> dict[str, dict[str, float]]:
    """Reduce a pytest-benchmark dump to ``kernel -> median/ops``."""
    kernels: dict[str, dict[str, float]] = {}
    for b in raw["benchmarks"]:
        median = b["stats"]["median"]
        kernels[b["name"]] = {
            "median_s": round(median, 6),
            "ops_per_s": round(1.0 / median, 3) if median else 0.0,
        }
    return dict(sorted(kernels.items()))


def load_trajectory() -> dict:
    """Load the committed trajectory file, or an empty skeleton."""
    if OUT.exists():
        return json.loads(OUT.read_text())
    return {
        "description": (
            "Median runtimes of the packing/corpus kernels "
            f"({BENCH_FILE}), one entry per packing-engine change. "
            "Regenerate with `make bench-json LABEL=...`."
        ),
        "entries": [],
    }


#: Gate metrics: dotted path into a trajectory entry -> direction.
TRACKED_METRICS = {
    "runner_core.events_per_s": "higher",
    "engine.events_per_s": "higher",
    "engine.fleet_100k_wall_seconds": "lower",
    "dag.events_per_s": "higher",
    "spot.cost_ratio_vs_on_demand": "lower",
    "matrix.cost_ratio_vs_on_demand": "lower",
}

#: Simulated-economics metrics are seed-deterministic: host speed cannot
#: move them, so the calibration ratio must not be applied.
CALIBRATION_EXEMPT = {"spot.cost_ratio_vs_on_demand",
                      "matrix.cost_ratio_vs_on_demand"}


def _tracked_values(entry: dict) -> dict[str, float]:
    """Flatten a trajectory entry to the gate's tracked metric map."""
    out = {}
    for path in TRACKED_METRICS:
        node = entry
        for part in path.split("."):
            node = node.get(part) if isinstance(node, dict) else None
            if node is None:
                break
        if isinstance(node, (int, float)):
            out[path] = float(node)
    return out


def check(warn_only: bool) -> int:
    """``--check``: re-measure the tracked perf headlines and gate them
    against the newest committed trajectory entry.

    Measurements run with a file-backed run ledger installed under
    ``.repro/runs``, so CI can upload the JSONL flight-recorder artifact
    alongside the gate verdict.  Two defences keep the gate about the
    build rather than the machine: measurements are normalised by the
    :func:`host_calibration` ratio against the probe speed recorded in
    the baseline entry (different machines and load regimes become
    comparable), and — since timing noise on a shared host is strictly
    additive, interference makes a run slower, never faster — a failing
    first measurement is re-taken up to ``REPRO_GATE_ATTEMPTS`` times
    (default 3) with each metric keeping its best observation; only a
    regression that survives every attempt fails the gate.  The budget
    defaults to 15% and can be widened/narrowed via
    ``REPRO_GATE_THRESHOLD``; ``--warn-only`` reports violations but
    exits 0 (the pull-request lane), while the default exits 1 on any
    violation (the main-branch lane).
    """
    import os

    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.diff import regression_gate, render_gate_report
    from repro.obs.ledger import RunLedger, set_run_ledger

    entries = load_trajectory()["entries"]
    if not entries:
        print("no committed trajectory entries; gate skipped")
        return 0
    baseline_entry = entries[-1]
    baseline = _tracked_values(baseline_entry)
    cal_base = baseline_entry.get("calibration_ops_per_s")

    def measure() -> dict[str, float]:
        previous = set_run_ledger(RunLedger(REPO / ".repro" / "runs"))
        try:
            values = _tracked_values({
                "runner_core": collect_runner_core_stats(),
                "engine": collect_engine_stats(),
                "dag": collect_dag_stats(),
                "spot": collect_spot_stats(),
                "matrix": collect_matrix_stats(),
            })
        finally:
            set_run_ledger(previous)
        if cal_base:
            # Express this host's numbers in baseline-host units so the
            # budget measures the *build*, not the machine or its load.
            ratio = host_calibration() / cal_base
            print(f"host calibration x{ratio:.2f} vs baseline entry "
                  f"({cal_base:,.0f} ops/s)")
            for path, direction in TRACKED_METRICS.items():
                if path in values and path not in CALIBRATION_EXEMPT:
                    values[path] = (values[path] / ratio
                                    if direction == "higher"
                                    else values[path] * ratio)
        return values

    threshold = float(os.environ.get("REPRO_GATE_THRESHOLD", "0.15"))
    attempts = max(1, int(os.environ.get("REPRO_GATE_ATTEMPTS", "3")))
    current = measure()
    violations = regression_gate(baseline, current, TRACKED_METRICS,
                                 threshold=threshold)
    for retry in range(1, attempts):
        if not violations:
            break
        print(f"attempt {retry}/{attempts}: {len(violations)} violation(s), "
              "re-measuring (best-of-N, noise is one-sided)")
        fresh = measure()
        for path, direction in TRACKED_METRICS.items():
            if path in fresh:
                best = max if direction == "higher" else min
                current[path] = best(current.get(path, fresh[path]),
                                     fresh[path])
        violations = regression_gate(baseline, current, TRACKED_METRICS,
                                     threshold=threshold)
    print(render_gate_report(baseline, current, TRACKED_METRICS, violations,
                             threshold=threshold))
    print(f"(baseline entry: {baseline_entry['label']!r}, "
          f"{baseline_entry['date']})")
    if violations and warn_only:
        print("warn-only mode: regressions reported above, exiting 0")
        return 0
    return 1 if violations else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw", nargs="?", help="existing --benchmark-json dump to distil")
    ap.add_argument("--run", action="store_true", help="run the bench suite first")
    ap.add_argument("--label", help="entry label (same label = replace)")
    ap.add_argument("--check", action="store_true",
                    help="regression-gate the tracked perf headlines "
                         "against the newest committed entry")
    ap.add_argument("--warn-only", action="store_true",
                    help="with --check: report regressions but exit 0")
    args = ap.parse_args()

    if args.check:
        raise SystemExit(check(args.warn_only))
    if not args.label:
        ap.error("--label is required (unless --check)")
    if args.run == bool(args.raw):
        ap.error("pass exactly one of --run or a raw JSON path")

    if args.run:
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            raw_path = Path(tmp.name)
        run_benchmarks(raw_path)
    else:
        raw_path = Path(args.raw)

    raw = json.loads(raw_path.read_text())
    entry = {
        "label": args.label,
        "date": date.today().isoformat(),
        "kernels": distil(raw),
        "obs": collect_obs_stats(),
        "fleet": collect_fleet_stats(),
        "chaos": collect_chaos_stats(),
        "spot": collect_spot_stats(),
        "runner_core": collect_runner_core_stats(),
        "engine": collect_engine_stats(),
        "dag": collect_dag_stats(),
        "matrix": collect_matrix_stats(),
        "calibration_ops_per_s": round(host_calibration(), 1),
    }

    trajectory = load_trajectory()
    trajectory["entries"] = [
        e for e in trajectory["entries"] if e["label"] != args.label
    ] + [entry]
    OUT.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {OUT.relative_to(REPO)} ({len(trajectory['entries'])} entries)")


if __name__ == "__main__":
    main()
