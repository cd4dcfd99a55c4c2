"""Chaos sweep: every shipped fault scenario × resilience on/off.

The §3/§7 story assumes launches succeed, boots take ≈3 minutes, and
storage performs; this experiment measures what the campaign loses when
none of that holds — and what the :mod:`repro.resilience` layer buys
back.  Each cell of the sweep runs the same grep campaign under one
:data:`~repro.chaos.scenario.SCENARIOS` entry:

* **off** — the paper's §5 regime (:func:`~repro.runner.execute
  .execute_plan`, no retries, no steering): injected faults surface as
  failed bins, hung boots stall the whole fleet, degraded storage eats
  the deadline slack;
* **on** — :func:`~repro.runner.dynamic.execute_with_monitoring` with a
  :class:`~repro.resilience.launch.ResilientLauncher`: rejections are
  retried with backoff, breakers steer around dead zones, hung boots are
  hedged, measured-slow instances are replaced *outside* the slow zone,
  and results are fetched with hedged requests.

A bin **misses** when its boot latency (absorbed waits included) plus
processing plus its own result retrieval exceeds the user deadline;
bins that never got an instance count as missed.  Everything is
deterministic under ``(scenario, policy, seed)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps import GrepApplication, GrepCostProfile
from repro.chaos import FaultInjector, get_scenario
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.experiments.registry import register_slo_policy
from repro.experiments.sweep import (
    DEFAULT_SEEDS,
    Cell,
    aggregate,
    run_campaign,
)
from repro.obs import get_logger
from repro.obs.ledger import record_experiment
from repro.obs.slo import Objective, SloPolicy
from repro.perfmodel.regression import fit_affine
from repro.report.figures import FigureResult
from repro.resilience import (
    DegradationPlanner,
    ResilientLauncher,
    RetryPolicy,
    hedged_retrieval,
)
from repro.runner import DynamicPolicy, execute_plan, execute_with_monitoring
from repro.units import HOUR, KB, MB

__all__ = ["run_cell", "chaos_sweep", "CHAOS_SLOS", "CAMPAIGN"]

_log = get_logger("experiments.chaos")

#: User deadline and the tighter deadline the plan is packed against; the
#: difference is the slack that absorbs boots, retries, and retrieval.
DEADLINE = 0.5 * HOUR
PLANNING_DEADLINE = 0.5 * DEADLINE

#: Corpus scale: sized so the uniform plan packs the campaign into a
#: meaningful handful of bins (miss rates need denominators).
SCALE = 0.7

#: The campaign's declared service-level objectives, evaluated per policy
#: side over every (scenario, seed) cell: the PR-4 acceptance bar (≤ 10%
#: of bins miss the user deadline) plus a cost ceiling above the worst
#: resilience-on scenario mean (slow-ebs, ≈ $1.76/cell) — resilience-on
#: holds both, the unprotected baseline burns through the miss budget.
CHAOS_SLOS = SloPolicy("chaos-campaign", (
    Objective("miss-rate", "deadline", "<=", 0.10, aggregate="ratio",
              num="deadline.missed", den="deadline.bins"),
    Objective("mean-cost", "billing.cost_usd", "<=", 2.00, aggregate="mean"),
))

#: The campaign's declaration: one sweep-cell record per cell, judged per
#: policy side; ``repro runs slo --policy chaos`` resolves it by name.
CAMPAIGN = register_slo_policy(
    "chaos", slos=CHAOS_SLOS, group_name="policy", label_prefix="exp_chaos.",
    label=("scenario", "policy"), config=("scenario", "policy", "seed"),
    extra=("replaced", "retrieval_s", "faults_injected"))


def _workload() -> Workload:
    """An I/O-bound scan over cold, uncached EBS-resident inputs.

    Stock grep streams at ≈75 MB/s, which would need tens of GB per bin
    to fill an interesting deadline; like every experiment in this repo
    the volumes are scaled to laptop size, so the scan profile charges a
    proportionally lower bandwidth while keeping grep's I/O-dominated
    cost shape (≈70 % of reference seconds on storage) — which is what
    the EBS-degradation scenarios act on.
    """
    profile = GrepCostProfile(stream_bandwidth=0.12 * MB,
                              per_file_overhead=0.05,
                              cpu_per_byte=3.0e-6)
    return Workload("scan", GrepApplication(), profile)


@lru_cache(maxsize=8)
def _grep_model(seed: int):
    """Perf model fit from §4-style probes on a clean, vetted instance.

    The chaos sweep's miss accounting needs predictions that match what
    the simulated cloud actually charges, so — like ``exp_grep`` — the
    model is fit to measured probe times rather than to the paper's
    hard-coded figures.  The probe cloud is separate from (and unbilled
    by) the campaign clouds.
    """
    from repro.cloud import ExecutionService, acquire_good_instance

    cloud = Cloud(seed=seed + 7919)
    instance, _ = acquire_good_instance(cloud)
    svc = ExecutionService(cloud)
    wl = _workload()
    cat = text_400k_like(scale=0.02, seed=seed + 7919)
    units = reshape(cat, 100 * KB).units
    xs, ys = [], []
    for target in (2 * MB, 6 * MB, 12 * MB):
        subset = units.head_by_volume(target)
        vol = subset.total_size
        for _ in range(3):
            xs.append(vol)
            ys.append(svc.run(instance, subset, wl, advance_clock=False))
    return fit_affine(np.array(xs), np.array(ys))


@lru_cache(maxsize=8)
def _campaign(seed: int):
    """(workload, plan) for one seeded grep campaign (cached per seed)."""
    model = _grep_model(seed)
    cat = text_400k_like(scale=SCALE, seed=seed)
    units = reshape(cat, 100 * KB).units
    plan = StaticProvisioner(model).plan(
        units, DEADLINE, strategy="uniform",
        planning_deadline=PLANNING_DEADLINE)
    return _workload(), plan


def _retrieval_seconds(cloud: Cloud, run, bin_i: int, *,
                       hedged: bool) -> float:
    """Fetch one bin's result objects (one per unit), hedged or plain."""
    if run.n_units == 0:
        return 0.0
    size = max(1, run.volume // run.n_units // 100)
    keys = []
    for j in range(run.n_units):
        key = f"chaos/{bin_i}/{j}"
        cloud.s3.put(key, size)
        keys.append(key)
    rng = cloud.rng.fork(f"exp.chaos.retrieval.{bin_i}")
    if hedged:
        return hedged_retrieval(cloud.s3, keys, rng, hedges=2)
    return cloud.s3.retrieval_time(keys, rng)


def run_cell(scenario_name: str, *, resilience: bool, seed: int = 11) -> dict:
    """Run one (scenario, policy, seed) cell; returns the outcome dict."""
    scenario = get_scenario(scenario_name)
    injector = FaultInjector([scenario], seed=seed)
    cloud = Cloud(seed=seed, chaos=injector)
    wl, plan = _campaign(seed)

    if resilience:
        launcher = ResilientLauncher(
            cloud,
            retry=RetryPolicy(max_attempts=8, budget_seconds=1200.0),
            degradation=DegradationPlanner(_grep_model(seed)),
        )
        policy = DynamicPolicy(probe_fraction=0.1)
        report, events = execute_with_monitoring(
            cloud, wl, plan, policy=policy, launcher=launcher)
        launcher_stats = launcher.stats()
        n_replaced = len(events)
    else:
        report = execute_plan(cloud, wl, plan)
        launcher_stats = None
        n_replaced = 0

    n_failed = report.n_failed
    total_bins = len(report.runs) + n_failed
    missed = n_failed
    retrieval_total = 0.0
    for i, run in enumerate(report.runs):
        t_ret = _retrieval_seconds(cloud, run, i, hedged=resilience)
        retrieval_total += t_ret
        if run.boot_delay + run.duration + t_ret > plan.deadline:
            missed += 1

    out = {
        "scenario": scenario_name,
        "policy": "on" if resilience else "off",
        "seed": seed,
        "bins": total_bins,
        "missed": missed,
        "failed": n_failed,
        "replaced": n_replaced,
        "miss_rate": round(missed / total_bins, 4) if total_bins else 0.0,
        "cost_usd": round(cloud.ledger.total_cost, 4),
        "retrieval_s": round(retrieval_total, 1),
        "faults_injected": injector.fault_counts(),
    }
    if launcher_stats is not None:
        out["launcher"] = launcher_stats
    return out


def chaos_sweep(
    names: list[str] | None = None,
    *,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    policies: tuple[bool, ...] = (True, False),
    processes: int | None = 1,
) -> tuple[FigureResult, dict]:
    """Sweep scenarios × policies × seeds; aggregate miss rate and cost.

    Returns ``(figure, stats)`` where ``stats["scenarios"][name]`` holds
    the aggregated ``on``/``off`` rows (miss rate over all seeds' bins,
    mean cost) plus the per-cell outcomes, and ``stats["slo"]`` the
    campaign's :class:`~repro.obs.slo.SloReport` per policy side.

    Every cell is an independent ``(scenario, policy, seed)`` run, so the
    grid fans out over the :mod:`~repro.experiments.sweep` harness:
    ``processes=None`` uses every core, the default ``1`` runs inline.
    Results are bit-identical either way — each cell seeds its own cloud.
    """
    from repro.chaos import SCENARIOS

    names = list(SCENARIOS) if names is None else names
    grid = [
        Cell("repro.experiments.exp_chaos:run_cell",
             {"scenario_name": name, "resilience": resilience, "seed": seed},
             tag=(name, resilience))
        for name in names
        for resilience in policies
        for seed in seeds
    ]
    by_tag, slo_reports = run_campaign(CAMPAIGN, grid, processes=processes)

    scenarios: dict = {}
    for name in names:
        per_policy = {"on" if resilience else "off":
                      aggregate(by_tag[(name, resilience)])
                      for resilience in policies}
        scenarios[name] = per_policy
        row = {p: per_policy[p]["miss_rate"] for p in per_policy}
        _log.info("chaos %-16s miss %s", name,
                  " ".join(f"{p}={r:.3f}" for p, r in row.items()))
    stats = {"scenarios": scenarios, "slo": slo_reports}

    fig = FigureResult(
        "Chaos", "deadline miss rate under injected faults: "
        "resilience on vs off")
    for metric, key in (("miss rate", "miss_rate"),
                        ("mean cost (USD)", "mean_cost_usd")):
        for policy in ("on", "off"):
            rows = [(n, scenarios[n][policy][key]) for n in names
                    if policy in scenarios[n]]
            if rows:
                fig.add(f"{metric} [{policy}]",
                        [n for n, _ in rows], [float(v) for _, v in rows])
    on_rates = [scenarios[n]["on"]["miss_rate"] for n in names
                if "on" in scenarios[n]]
    off_rates = [scenarios[n]["off"]["miss_rate"] for n in names
                 if "off" in scenarios[n]]
    if on_rates and off_rates:
        fig.note(f"resilience-on worst miss {max(on_rates):.3f}; "
                 f"resilience-off worst miss {max(off_rates):.3f} "
                 f"over {len(names)} scenarios x {len(seeds)} seeds")

    record_experiment(
        "exp_chaos",
        config={"scenarios": names, "seeds": list(seeds),
                "policies": ["on" if p else "off" for p in policies]},
        extra={
            "slo": {p: r.to_dict() for p, r in slo_reports.items()},
            "worst_miss": {p: max((scenarios[n][p]["miss_rate"]
                                   for n in names if p in scenarios[n]),
                                  default=0.0)
                           for p in ("on", "off")},
        },
    )
    return fig, stats
