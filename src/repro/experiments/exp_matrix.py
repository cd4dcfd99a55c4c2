"""Capacity matrix: broker stack × DAG shape × spot interruption regime.

The capacity broker refactor made acquisition composable — the same
:class:`~repro.dag.scheduler.DagScheduler` can run every stage on
private on-demand fleets (``fleet``), on the raw spot market with the
full fallback ladder (``spot``), or on spot with interrupted segments
escalating into a shared warm-lease pool before paying list price
(``spot-lease``).  This experiment is the cross-product those brokers
finally make possible: each cell executes the same workflow campaign —
identical catalogue, identical subdeadlines — under one replayed
:data:`~repro.chaos.scenario.SPOT_REGIMES` interruption regime, on one
broker stack.

Cost ratios compare against the paper's §7 regime — the *same* shape and
seed run on on-demand fleets over a clean cloud — so "beats on-demand"
is measured like-for-like.  The declared objectives hold each stack to
the campaign miss budget (≤ 10 % of bins over their stage subdeadline)
and to landing under the on-demand bill; the on-demand stack itself
prices at ratio 1.0 by construction and exists as the control row.
Everything is deterministic under ``(stack, shape, regime, seed)``.

The cells of one sweep share what does not depend on the stack or the
regime: the seeded corpus, each shape's stage catalogues and each
(shape, seed) on-demand baseline are built once per sweep and process
(:mod:`repro.vfs.memo`), so a sweep runs and records each baseline once.
Nothing is kept between sweeps.
"""

from __future__ import annotations

from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud
from repro.corpus import html_18mil_like
from repro.dag import S3Backend
from repro.dag.scheduler import DagScheduler
from repro.experiments.exp_dag import DEADLINE, SCALE, _graph
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
from repro.vfs.memo import shared_in_sweep

__all__ = ["run_cell", "matrix_sweep", "STACKS", "SHAPES", "REGIMES",
           "MATRIX_SLOS", "CAMPAIGN"]

_log = get_logger("experiments.matrix")

#: Broker stacks under test, thinnest to thickest: private on-demand
#: fleets (the control), the spot ladder, and spot with warm-lease
#: escalation sharing paid hours across stages.
STACKS: tuple[str, ...] = ("fleet", "spot", "spot-lease")

#: Workflow shapes: the five-stage linear pipeline and the fan-out/fan-in
#: diamond (concurrent siblings are where cross-stage leases pay off).
SHAPES: tuple[str, ...] = ("linear", "fanout")

#: Interruption regimes every stack is replayed under.
REGIMES: tuple[str, ...] = ("calm", "choppy", "eviction-storm")

#: The declared objectives, judged per broker stack across every
#: (shape, regime, seed) cell: keep the campaign miss budget *and* beat
#: the on-demand bill.  The ``fleet`` control row prices at ratio 1.0
#: and is expected to fail the cost objective — that is the comparison
#: the matrix exists to make.
MATRIX_SLOS = SloPolicy("matrix-campaign", (
    Objective("miss-rate", "deadline", "<=", 0.10, aggregate="ratio",
              num="deadline.missed", den="deadline.bins"),
    Objective("cost-vs-on-demand", "extra.cost_ratio", "<=", 0.99,
              aggregate="mean"),
))

#: The campaign's declaration: one sweep-cell record per cell, judged per
#: broker stack (``repro runs slo --policy matrix``).
CAMPAIGN = register_slo_policy(
    "matrix", slos=MATRIX_SLOS, group_name="stack",
    label_prefix="exp_matrix.", label=("stack", "regime"),
    config=("stack", "shape", "regime", "seed"),
    extra=("cost_ratio", "interruptions", "escalations", "pool_hits",
           "faults_injected"),
    cost_key="total_usd")


@shared_in_sweep
def _on_demand_baseline(shape: str, seed: int) -> float:
    """On-demand counterfactual bill: same DAG, clean cloud, fleet policy."""
    report = DagScheduler(
        Cloud(seed=seed), _graph(shape),
        html_18mil_like(scale=SCALE, seed=seed), DEADLINE,
        backend=S3Backend(), policy="fleet",
        label=f"matrix.baseline.{shape}",
    ).run()
    return report.total_cost


def run_cell(stack: str = "fleet", shape: str = "linear",
             regime_name: str = "calm", *, seed: int = 11) -> dict:
    """Run one (stack, shape, regime, seed) cell; returns the outcome dict."""
    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r}")
    regime = get_spot_regime(regime_name)
    injector = FaultInjector([regime.scenario(seed)], seed=seed)
    cloud = Cloud(seed=seed, chaos=injector)
    report = DagScheduler(
        cloud, _graph(shape), html_18mil_like(scale=SCALE, seed=seed),
        DEADLINE, backend=S3Backend(), policy=stack,
        label=f"matrix.{stack}.{shape}.{regime_name}",
    ).run()
    baseline = _on_demand_baseline(shape, seed)
    spot = report.spot_stats or {}
    leases = report.lease_stats or {}
    return {
        "stack": stack,
        "shape": shape,
        "regime": regime_name,
        "seed": seed,
        "bins": report.n_bins,
        "missed": report.n_missed,
        "failed": report.n_failed,
        "miss_rate": (round(report.n_missed / report.n_bins, 4)
                      if report.n_bins else 0.0),
        "makespan_s": round(report.makespan, 1),
        "met": report.met_deadline,
        "total_usd": round(report.total_cost, 4),
        "baseline_usd": round(baseline, 4),
        "cost_ratio": (round(report.total_cost / baseline, 4)
                       if baseline else 0.0),
        "interruptions": spot.get("interruptions", 0),
        "escalations": spot.get("escalations", 0),
        "pool_hits": leases.get("pool_hits", 0),
        "faults_injected": injector.fault_counts(),
    }


def matrix_sweep(
    stacks: list[str] | None = None,
    *,
    shapes: tuple[str, ...] = SHAPES,
    regimes: tuple[str, ...] = REGIMES,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    processes: int | None = 1,
) -> tuple[FigureResult, dict]:
    """Sweep stacks × shapes × regimes × seeds; aggregate misses and cost.

    Returns ``(figure, stats)``.  ``stats["stacks"][name]`` aggregates
    one broker stack over every cell it ran; ``stats["grid"]`` holds one
    row per (stack, regime) — the surface the figure plots;
    ``stats["slo"]`` holds the campaign's :class:`~repro.obs.slo.SloReport`
    per stack.  Every cell is an independent seeded run fanned out over
    the :mod:`~repro.experiments.sweep` harness, bit-identical at any
    process count.
    """
    names = list(STACKS) if stacks is None else stacks
    grid = [Cell("repro.experiments.exp_matrix:run_cell",
                 {"stack": stack, "shape": shape, "regime_name": regime,
                  "seed": seed},
                 tag=(stack, regime))
            for stack in names
            for shape in shapes
            for regime in regimes
            for seed in seeds]
    by_tag, slo_reports = run_campaign(CAMPAIGN, grid, processes=processes)

    stats: dict = {"stacks": {}, "grid": [], "slo": slo_reports}
    for stack in names:
        cells = [row for (s, _), rows in by_tag.items() if s == stack
                 for row in rows]
        if not cells:
            continue
        stats["stacks"][stack] = aggregate(cells, CAMPAIGN.cost_key)
        for regime in regimes:
            sub = by_tag.get((stack, regime))
            if not sub:
                continue
            agg = aggregate(sub, CAMPAIGN.cost_key)
            stats["grid"].append({
                "stack": stack, "regime": regime,
                "miss_rate": agg["miss_rate"],
                "mean_cost_usd": agg["mean_cost_usd"],
                "mean_cost_ratio": agg["mean_cost_ratio"],
            })
        _log.info("matrix %-10s miss %.3f cost-ratio %.3f", stack,
                  stats["stacks"][stack]["miss_rate"],
                  stats["stacks"][stack]["mean_cost_ratio"])

    fig = FigureResult(
        "Matrix", "DAG campaigns per broker stack: deadline misses and "
        "cost vs on-demand under spot interruption regimes")
    for metric, key in (("miss rate", "miss_rate"),
                        ("cost vs on-demand", "mean_cost_ratio")):
        for stack in names:
            rows = [(g["regime"], g[key]) for g in stats["grid"]
                    if g["stack"] == stack]
            if rows:
                fig.add(f"{metric} [{stack}]",
                        [r for r, _ in rows], [float(v) for _, v in rows])
    spot_ratios = [g["mean_cost_ratio"] for g in stats["grid"]
                   if g["stack"] in ("spot", "spot-lease")]
    if spot_ratios:
        fig.note(f"spot stacks cost {min(spot_ratios):.3f}-"
                 f"{max(spot_ratios):.3f} of on-demand over "
                 f"{len(regimes)} regimes x {len(shapes)} shapes x "
                 f"{len(seeds)} seeds")

    record_experiment(
        "exp_matrix", kind="matrix",
        config={"stacks": names, "shapes": list(shapes),
                "regimes": list(regimes), "seeds": list(seeds)},
        extra={
            "slo": {s: r.to_dict() for s, r in slo_reports.items()},
            "worst_miss": {s: max((g["miss_rate"] for g in stats["grid"]
                                   if g["stack"] == s), default=0.0)
                           for s in names},
            "cost_ratio_vs_on_demand": {
                s: stats["stacks"][s]["mean_cost_ratio"]
                for s in stats["stacks"]},
        },
    )
    return fig, stats
