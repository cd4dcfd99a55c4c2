"""Spot sweep: interruption regime × bid aggressiveness × deadline slack.

The paper sticks to on-demand instances *because* of deadlines (§1.1);
this experiment measures what that caution costs.  Each cell runs the
same grep campaign as :mod:`~repro.experiments.exp_chaos` — identical
bins, identical deadline — but provisions every bin on spot capacity via
:func:`~repro.runner.spot.execute_plan_spot`, under one replayed
:data:`~repro.chaos.scenario.SPOT_REGIMES` interruption regime:

* **on** — the full :class:`~repro.resilience.spot.SpotLadder`:
  checkpoint into the two-minute warning, re-bid in another zone,
  re-type, queue, and escalate to on-demand preemptively when predicted
  remaining work plus the restart buffer no longer fits the deadline;
* **off** — a naive spot user (no ladder, no checkpoints, no
  escalation): every interruption restarts the bin from scratch in the
  same zone, which is how spot capacity got its reputation.

Two sensitivity axes ride along on the resilient side: **bid
aggressiveness** (how much of the market a bid covers — aggressive bids
exclude expensive zones from the fallback ladder) and **deadline slack**
(the user deadline scaled around the planner's; tighter deadlines force
earlier on-demand escalation, looser ones let the ladder ride out more
interruptions on cheap capacity).

Cost ratios compare against a pure on-demand run of the same plan on a
clean same-seed cloud, so "beats on-demand" is measured like-for-like.
A bin **misses** when boot latency plus processing (absorbed
interruptions, queue waits and restarts included) exceeds the user
deadline; bins that never got capacity count as missed.  Everything is
deterministic under ``(regime, policy, bid, slack, seed)``.
"""

from __future__ import annotations

import dataclasses

from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud
from repro.experiments.exp_chaos import _campaign
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
from repro.report.figures import FigureResult
from repro.resilience import SpotFallbackPolicy
from repro.runner import execute_plan, execute_plan_spot
from repro.vfs.memo import shared_in_sweep

__all__ = ["run_cell", "spot_sweep", "BIDS", "SLACKS", "DEFAULT_BID",
           "DEFAULT_SLACK", "SPOT_SLOS", "CAMPAIGN"]

_log = get_logger("experiments.spot")

#: Reference-terms bid levels: reckless (half the mean market price —
#: whole markets become unaffordable and the ladder falls straight
#: through to on-demand), the shipped default, and conservative (= the
#: on-demand rate, the most a rational 2010 bidder would offer).
BIDS: tuple[float, ...] = (0.02, 0.06, 0.085)

#: User-deadline multipliers around the planning deadline: tight, the
#: shipped default, and loose.  Slack scales *only* the user deadline —
#: the plan (bins, predictions) is packed once per seed and shared, so
#: the axis isolates deadline pressure from packing.
SLACKS: tuple[float, ...] = (0.85, 1.0, 1.25)

DEFAULT_BID: float = 0.06
DEFAULT_SLACK: float = 1.0

#: The declared objectives, evaluated per policy side over the operating
#: point (default bid and slack) across every (regime, seed) cell: the
#: campaign keeps the paper's ≤ 10 % miss budget *and* lands well under
#: the pure on-demand bill.  The resilient ladder holds both; the naive
#: baseline burns the miss budget under the eviction-storm regime.
SPOT_SLOS = SloPolicy("spot-campaign", (
    Objective("miss-rate", "deadline", "<=", 0.10, aggregate="ratio",
              num="deadline.missed", den="deadline.bins"),
    Objective("cost-vs-on-demand", "extra.cost_ratio", "<=", 0.90,
              aggregate="mean"),
))

#: The campaign's declaration: one sweep-cell record per operating-point
#: cell, judged per policy side (``repro runs slo --policy spot``).
CAMPAIGN = register_slo_policy(
    "spot", slos=SPOT_SLOS, group_name="policy", label_prefix="exp_spot.",
    label=("regime", "policy"),
    config=("regime", "policy", "seed", "bid", "slack"),
    extra=("cost_ratio", "interruptions", "escalations", "rebids",
           "faults_injected"))


@shared_in_sweep
def _on_demand_baseline(seed: int) -> tuple[float, tuple[float, ...]]:
    """Pure on-demand counterfactual for one seed: ``(cost, durations)``.

    The same cached plan executed by :func:`~repro.runner.execute
    .execute_plan` on a clean same-seed cloud — the §5 regime the paper
    actually ran.  Returns the total ceil-hour bill and each bin's
    ``boot_delay + duration`` so callers can re-judge misses under any
    slack level.
    """
    cloud = Cloud(seed=seed)
    wl, plan = _campaign(seed)
    report = execute_plan(cloud, wl, plan)
    durations = tuple(r.boot_delay + r.duration for r in report.runs)
    return cloud.ledger.total_cost, durations


def run_cell(regime_name: str, *, resilience: bool = True,
             bid: float = DEFAULT_BID, slack: float = DEFAULT_SLACK,
             seed: int = 11) -> dict:
    """Run one (regime, policy, bid, slack, seed) cell; returns the outcome.

    ``resilience=False`` strips the ladder, checkpoints and escalation
    from the fallback policy, leaving a naive spot user who waits out
    every interruption in place and restarts from scratch.
    """
    regime = get_spot_regime(regime_name)
    injector = FaultInjector([regime.scenario(seed)], seed=seed)
    cloud = Cloud(seed=seed, chaos=injector)
    wl, plan = _campaign(seed)
    plan = dataclasses.replace(plan, deadline=plan.deadline * slack)

    if resilience:
        policy = SpotFallbackPolicy(bid=bid)
    else:
        policy = SpotFallbackPolicy(bid=bid, ladder=False, checkpoint=False,
                                    escalate=False)
    result = execute_plan_spot(cloud, wl, plan, policy=policy)
    report, stats = result.report, result.stats

    n_failed = report.n_failed
    total_bins = len(report.runs) + n_failed
    missed = n_failed + sum(
        1 for run in report.runs
        if run.boot_delay + run.duration > plan.deadline)
    od_cost, _ = _on_demand_baseline(seed)

    return {
        "regime": regime_name,
        "policy": "on" if resilience else "off",
        "seed": seed,
        "bid": bid,
        "slack": slack,
        "bins": total_bins,
        "missed": missed,
        "failed": n_failed,
        "miss_rate": round(missed / total_bins, 4) if total_bins else 0.0,
        "cost_usd": round(stats.total_cost, 4),
        "on_demand_baseline_usd": round(od_cost, 4),
        "cost_ratio": round(stats.total_cost / od_cost, 4) if od_cost else 0.0,
        "interruptions": stats.interruptions,
        "escalations": stats.escalations,
        "preemptive_escalations": stats.preemptive_escalations,
        "rebids": stats.rebids,
        "retypes": stats.retypes,
        "queued": stats.queued,
        "spot_cost_usd": round(stats.spot_cost, 4),
        "on_demand_cost_usd": round(stats.on_demand_cost, 4),
        "faults_injected": injector.fault_counts(),
    }


def spot_sweep(
    regimes: list[str] | None = None,
    *,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    bids: tuple[float, ...] = BIDS,
    slacks: tuple[float, ...] = SLACKS,
    policies: tuple[bool, ...] = (True, False),
    processes: int | None = 1,
) -> tuple[FigureResult, dict]:
    """Sweep regimes × bids × slacks × seeds; aggregate misses and cost.

    Returns ``(figure, stats)``.  ``stats["regimes"][name]`` holds the
    ``on``/``off`` aggregates at the operating point (default bid and
    slack) — the shipped configuration the SLOs judge; the naive side
    only runs there.  ``stats["grid"]`` holds one aggregated row per
    ``(regime, bid, slack)`` combination on the resilient side — the
    sensitivity surface.  ``stats["slo"]`` holds the campaign's
    :class:`~repro.obs.slo.SloReport` per policy side.

    Every cell is an independent seeded run, so the grid fans out over
    the :mod:`~repro.experiments.sweep` harness exactly like the chaos
    sweep; results are bit-identical at any process count.
    """
    from repro.chaos import SPOT_REGIMES

    names = list(SPOT_REGIMES) if regimes is None else regimes
    bids = tuple(bids) if DEFAULT_BID in bids else tuple(bids) + (DEFAULT_BID,)
    slacks = (tuple(slacks) if DEFAULT_SLACK in slacks
              else tuple(slacks) + (DEFAULT_SLACK,))
    grid = []
    for name in names:
        for seed in seeds:
            if False in policies:
                grid.append(Cell(
                    "repro.experiments.exp_spot:run_cell",
                    {"regime_name": name, "resilience": False,
                     "bid": DEFAULT_BID, "slack": DEFAULT_SLACK, "seed": seed},
                    tag=(name, "off", DEFAULT_BID, DEFAULT_SLACK)))
            if True in policies:
                for bid in bids:
                    for slack in slacks:
                        grid.append(Cell(
                            "repro.experiments.exp_spot:run_cell",
                            {"regime_name": name, "resilience": True,
                             "bid": bid, "slack": slack, "seed": seed},
                            tag=(name, "on", bid, slack)))
    by_tag, slo_reports = run_campaign(
        CAMPAIGN, grid, processes=processes,
        judged=[(name, policy, DEFAULT_BID, DEFAULT_SLACK)
                for name in names for policy in ("on", "off")])

    stats: dict = {"regimes": {}, "grid": [], "slo": slo_reports}
    for name in names:
        per_policy: dict = {}
        for policy in ("on", "off"):
            cells = by_tag.get((name, policy, DEFAULT_BID, DEFAULT_SLACK))
            if cells:
                per_policy[policy] = aggregate(cells)
        stats["regimes"][name] = per_policy
        row = {p: per_policy[p]["miss_rate"] for p in per_policy}
        _log.info("spot %-16s miss %s", name,
                  " ".join(f"{p}={r:.3f}" for p, r in row.items()))
    if True in policies:
        for name in names:
            for bid in bids:
                for slack in slacks:
                    cells = by_tag.get((name, "on", bid, slack))
                    if not cells:
                        continue
                    agg = aggregate(cells)
                    stats["grid"].append({
                        "regime": name, "bid": bid, "slack": slack,
                        "miss_rate": agg["miss_rate"],
                        "mean_cost_usd": agg["mean_cost_usd"],
                        "mean_cost_ratio": agg["mean_cost_ratio"],
                    })

    fig = FigureResult(
        "Spot", "deadline misses and cost on spot capacity: "
        "fallback ladder on vs naive spot")
    for metric, key in (("miss rate", "miss_rate"),
                        ("cost vs on-demand", "mean_cost_ratio")):
        for policy in ("on", "off"):
            rows = [(n, stats["regimes"][n][policy][key]) for n in names
                    if policy in stats["regimes"][n]]
            if rows:
                fig.add(f"{metric} [{policy}]",
                        [n for n, _ in rows], [float(v) for _, v in rows])
    # Sensitivity series: one point per grid value, aggregated over the
    # other axes — how the resilient side moves with bid and slack.
    for axis, values in (("bid", bids), ("slack", slacks)):
        rows = []
        for v in values:
            sub = [g for g in stats["grid"] if g[axis] == v]
            if sub:
                rows.append((f"{axis}={v:g}", sum(
                    g["miss_rate"] for g in sub) / len(sub)))
        if len(rows) > 1:
            fig.add(f"miss rate by {axis} [on]",
                    [lbl for lbl, _ in rows], [val for _, val in rows])
    on_rates = [stats["regimes"][n]["on"]["miss_rate"] for n in names
                if "on" in stats["regimes"][n]]
    off_rates = [stats["regimes"][n]["off"]["miss_rate"] for n in names
                 if "off" in stats["regimes"][n]]
    if on_rates and off_rates:
        fig.note(f"ladder-on worst miss {max(on_rates):.3f}; "
                 f"naive-spot worst miss {max(off_rates):.3f} "
                 f"over {len(names)} regimes x {len(seeds)} seeds")

    record_experiment(
        "exp_spot",
        config={"regimes": names, "seeds": list(seeds),
                "bids": list(bids), "slacks": list(slacks),
                "policies": ["on" if p else "off" for p in policies]},
        extra={
            "slo": {p: r.to_dict() for p, r in slo_reports.items()},
            "worst_miss": {p: max((stats["regimes"][n][p]["miss_rate"]
                                   for n in names
                                   if p in stats["regimes"][n]), default=0.0)
                           for p in ("on", "off")},
        },
    )
    return fig, stats
