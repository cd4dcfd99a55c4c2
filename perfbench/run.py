"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload grep-reshape --seed 1 --trace 0

Each iteration builds its inputs from the seed (timed as set-up), runs the
workload (timed as the iteration) and checks the outputs (untimed).
Iterations repeat until ``--seconds`` have passed, and at least four
times; a time is the fastest iteration's.  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics instead, writing
the spans to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the ``repro`` sources
under ``src/`` next to this directory, the script exits with an error and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")
#: Iterations per run, however short ``--seconds`` is.
MIN_ITERATIONS = 4
#: CPUs the process may run on, read before it pins itself to one.
CPUS = (sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_setaffinity") else [])


def _probe_s() -> float:
    """Best of three runs of a fixed ~5 ms pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _pin_to_fastest_cpu() -> None:
    """Pin the process to whichever allowed CPU runs the probe fastest.

    The workloads are single-threaded.  Unpinned, the process migrates
    between cores and runs ~35% slower; pinned, a core still slows by up
    to ~50% for seconds at a time while its sibling hyper-thread is busy
    with another tenant's work, so the core is chosen afresh before every
    iteration.
    """
    if not CPUS:
        return
    speeds = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = _probe_s()
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def _iteration(workload, seed: int, scratch: Path, tracer=None) -> tuple:
    """Set up, run and check once: ``(setup_s, wall_s, outcome)``.

    Each iteration writes a run ledger of its own under ``scratch``, as
    the CLI does by default, and removes it afterwards.
    """
    from repro.obs.ledger import configure_run_ledger, set_run_ledger

    gc.collect()
    _pin_to_fastest_cpu()
    ledger_dir = Path(tempfile.mkdtemp(prefix="ledger-", dir=scratch))
    configure_run_ledger(ledger_dir)
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            t1 = time.perf_counter()
            result = workload.run(inputs)
            t2 = time.perf_counter()
        return t1 - t0, t2 - t1, workload.check(result)
    finally:
        set_run_ledger(None)
        shutil.rmtree(ledger_dir, ignore_errors=True)


def _failed_checks(outcomes: list) -> list[list[str]]:
    """Failed checks per iteration; every outcome must equal the first."""
    first = outcomes[0].digest
    return [o.failures + ([] if o.digest == first else ["outcome-repeats"])
            for o in outcomes]


def _result(checks: list[list[str]], metrics: dict) -> dict:
    for i, failed in enumerate(checks, 1):
        if failed:
            print(f"iteration {i} FAILED: {', '.join(failed)}")
    failed = sum(1 for c in checks if c)
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def measure(workload, seed: int, seconds: float, scratch: Path, *,
            min_iterations: int = MIN_ITERATIONS) -> dict:
    """Untraced iterations for ``seconds``: the end-to-end metrics."""
    setups, walls, outcomes = [], [], []
    stop = time.perf_counter() + seconds
    while len(walls) < min_iterations or time.perf_counter() < stop:
        setup_s, wall_s, outcome = _iteration(workload, seed, scratch)
        setups.append(setup_s)
        walls.append(wall_s)
        outcomes.append(outcome)
        print(f"iteration {len(walls)}: setup {setup_s:.3f} s, "
              f"wall {wall_s:.3f} s, sim ${outcome.usd:.4f}, "
              f"{outcome.missed}/{outcome.bins} bins missed")
    first = outcomes[0]
    # Fastest, not median: on a shared host the noise only ever adds time
    # (a busy sibling hyper-thread slows a whole iteration by up to ~50%).
    wall = min(walls)
    print(f"input: {first.files} files, {first.input_bytes / 1e9:.3f} GB "
          f"per iteration; {len(walls)} iterations, median wall "
          f"{statistics.median(walls):.3f} s")
    return _result(_failed_checks(outcomes), {
        "wall_s": (wall, "s"),
        "files_per_s": (first.files / wall, "files/s"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "sim_usd": (first.usd, "USD"),
        "on_time_ratio": (first.on_time_ratio, "ratio"),
    })


def trace(workload, seed: int, seconds: float, scratch: Path, *,
          spans_path: Path | None = None) -> dict:
    """Untraced and traced iterations in turn: the per-layer metrics.

    Self times are medians over the traced iterations; counts must repeat
    exactly across them.  ``trace.overhead`` compares the traced and the
    untraced set-up plus iteration time.
    """
    from perfbench.layers import LAYERS, LayerTracer

    plain, traced, outcomes, tracers = [], [], [], []
    stop = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < stop:
        setup_s, wall_s, outcome = _iteration(workload, seed, scratch)
        plain.append(setup_s + wall_s)
        outcomes.append(outcome)
        tracer = LayerTracer()
        setup_s, wall_s, outcome = _iteration(workload, seed, scratch, tracer)
        traced.append(setup_s + wall_s)
        outcomes.append(outcome)
        tracers.append(tracer)
    per_iteration = [t.metrics(w) for t, w in zip(tracers, traced)]
    checks = _failed_checks(outcomes)
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"}
              for m in per_iteration]
    if any(c != counts[0] for c in counts):
        checks[-1].append("layer-counts-repeat")
    metrics = {name: (statistics.median(m[name][0] for m in per_iteration)
                      if unit == "s" else value, unit)
               for name, (value, unit) in per_iteration[0].items()}
    wall = statistics.median(traced)
    metrics["trace.overhead"] = (wall / statistics.median(plain) - 1.0,
                                 "ratio")

    print(f"traced set-up + iteration {wall:.3f} s "
          f"(untraced {statistics.median(plain):.3f} s), "
          f"{len(tracers)} traced iterations, "
          f"{sum(len(t.spans) for t in tracers)} spans kept, "
          f"{sum(t.dropped for t in tracers)} dropped")
    for layer in (*LAYERS, "other"):
        self_s = metrics[f"{layer}.self_s"][0]
        extra = ", ".join(f"{name.split('.', 1)[1]} {value:g}"
                          for name, (value, unit) in metrics.items()
                          if name.startswith(layer + ".") and unit != "s")
        print(f"  {layer:<10} {self_s:8.3f} s  {self_s / wall:6.1%}  {extra}")
    for target in tracers[0].missing:
        print(f"  missing    {target}")
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write_spans(fh, i)
    return _result(checks, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the figure's seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long to keep iterating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = make_workload(args.workload)
    seed = workload.seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            result = trace(workload, seed, args.seconds, scratch,
                           spans_path=OUT_DIR / f"spans-{args.workload}"
                                                f"-seed{seed}.jsonl")
        else:
            result = measure(workload, seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
