"""DAG backend comparison: S3 vs EBS vs local-disk inter-stage sharing.

The Juve et al. experiment (PAPERS.md) transplanted onto the paper's §7
workflow setting: the same text-processing DAG — planned against
full-hour subdeadlines and run stage-concurrently by
:class:`~repro.dag.scheduler.DagScheduler` — is executed once per
:class:`~repro.dag.backends.DataBackend`, and the sweep reports how the
data-sharing choice moves cost and makespan.  Because backend transfer
draws live on their own named RNG forks, per-stage compute is
bit-identical across backends within a seed: every delta in the figure
is attributable to the transfers.

Two DAG shapes are swept — the five-stage linear pipeline and the
fan-out/fan-in diamond — and the diamond is additionally run under
``mode="serial"`` (stage barriers, the §7 baseline) to measure what
stage-concurrent scheduling buys.
"""

from __future__ import annotations

from repro.cloud import Cloud
from repro.corpus import html_18mil_like
from repro.dag import (
    DataBackend,
    EbsBackend,
    LocalDiskBackend,
    S3Backend,
    WorkflowGraph,
    fanout_pipeline,
    linear_pipeline,
)
from repro.dag.scheduler import DagScheduler
from repro.experiments.registry import register_slo_policy
from repro.experiments.sweep import DEFAULT_SEEDS, Cell, run_campaign
from repro.obs import get_logger
from repro.obs.ledger import record_experiment
from repro.obs.slo import Objective, SloPolicy
from repro.report.figures import FigureResult
from repro.units import HOUR

__all__ = ["run_cell", "dag_sweep", "DAG_SLOS", "CAMPAIGN"]

_log = get_logger("experiments.dag")

#: User deadline for the whole workflow (apportioned per stage).
DEADLINE = 6 * HOUR

#: Corpus scale: a few thousand crawl files, laptop-sized like every
#: experiment here, but enough bins per stage for miss-rate denominators.
SCALE = 2e-4

#: The workflow campaign's declared objective: across a backend's cells,
#: at most 10 % of bins overrun their stage's full-hour subdeadline.
DAG_SLOS = SloPolicy("dag-campaign", (
    Objective("miss-rate", "deadline", "<=", 0.10, aggregate="ratio",
              num="deadline.missed", den="deadline.bins"),
))

#: The campaign's declaration: one sweep-cell record per concurrent cell,
#: judged per backend (``repro runs slo --policy dag``).
CAMPAIGN = register_slo_policy(
    "dag", slos=DAG_SLOS, group_name="backend", label_prefix="exp_dag.",
    label=("backend", "shape"), config=("backend", "shape", "seed", "mode"),
    extra=("makespan_s", "transfer_s", "transfer_usd"), cost_key="total_usd")

_BACKENDS = ("local", "s3", "ebs")
_SHAPES = ("linear", "fanout")


def _backend(name: str) -> DataBackend:
    """A fresh backend instance for one cell (EBS volumes are per-run)."""
    try:
        return {"local": LocalDiskBackend,
                "s3": S3Backend,
                "ebs": EbsBackend}[name]()
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None


def _graph(shape: str) -> WorkflowGraph:
    try:
        return {"linear": linear_pipeline,
                "fanout": fanout_pipeline}[shape]()
    except KeyError:
        raise ValueError(f"unknown shape {shape!r}") from None


def run_cell(backend: str = "local", shape: str = "linear", *,
             seed: int = 11, mode: str = "concurrent") -> dict:
    """Run one (backend, shape, seed, mode) cell; returns the outcome dict."""
    cloud = Cloud(seed=seed)
    catalogue = html_18mil_like(scale=SCALE, seed=seed)
    report = DagScheduler(
        cloud, _graph(shape), catalogue, DEADLINE,
        backend=_backend(backend), mode=mode,
        label=f"dag.{backend}.{shape}.{mode}",
    ).run()
    return {
        "backend": backend,
        "shape": shape,
        "mode": mode,
        "seed": seed,
        "stages": len(report.stages),
        "bins": report.n_bins,
        "missed": report.n_missed,
        "failed": report.n_failed,
        "miss_rate": (round(report.n_missed / report.n_bins, 4)
                      if report.n_bins else 0.0),
        "makespan_s": round(report.makespan, 1),
        "met": report.met_deadline,
        "transfer_s": round(report.transfer_seconds, 1),
        "compute_usd": round(report.compute_cost_usd, 4),
        "transfer_usd": round(report.transfer_cost, 4),
        "total_usd": round(report.total_cost, 4),
    }


def dag_sweep(
    backends: tuple[str, ...] = _BACKENDS,
    shapes: tuple[str, ...] = _SHAPES,
    *,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    processes: int | None = 1,
) -> tuple[FigureResult, dict]:
    """Sweep backends × shapes × seeds (plus the serial fan-out baseline).

    Returns ``(figure, stats)``: ``stats["agg"][backend][shape]`` holds
    mean makespan/cost over the seeds, ``stats["speedup"]`` the
    serial/concurrent makespan ratio per backend on the fan-out DAG,
    ``stats["cells"]`` every cell outcome, and ``stats["slo"]`` the
    campaign's :class:`~repro.obs.slo.SloReport` per backend, judged over
    the concurrent cells.  Cells are independent seeded runs, so the
    grid fans out over the :mod:`~repro.experiments.sweep` harness
    (``processes=None`` uses every core; results are bit-identical
    either way).
    """
    grid = [
        Cell("repro.experiments.exp_dag:run_cell",
             {"backend": backend, "shape": shape, "seed": seed,
              "mode": mode},
             tag=(backend, shape, mode))
        for backend in backends
        for shape in shapes
        for seed in seeds
        for mode in (("concurrent", "serial") if shape == "fanout"
                     else ("concurrent",))
    ]
    by_tag, slo_reports = run_campaign(
        CAMPAIGN, grid, processes=processes,
        judged=[(backend, shape, "concurrent")
                for backend in backends for shape in shapes])

    def _mean(cells: list[dict], key: str) -> float:
        return sum(c[key] for c in cells) / len(cells)

    agg: dict = {}
    speedup: dict = {}
    for backend in backends:
        agg[backend] = {}
        for shape in shapes:
            cells = by_tag[(backend, shape, "concurrent")]
            agg[backend][shape] = {
                "mean_makespan_s": round(_mean(cells, "makespan_s"), 1),
                "mean_total_usd": round(_mean(cells, "total_usd"), 4),
                "mean_transfer_s": round(_mean(cells, "transfer_s"), 1),
                "miss_rate": round(
                    sum(c["missed"] for c in cells)
                    / max(1, sum(c["bins"] for c in cells)), 4),
            }
        serial = by_tag.get((backend, "fanout", "serial"))
        if serial and "fanout" in agg[backend]:
            concurrent_mk = agg[backend]["fanout"]["mean_makespan_s"]
            serial_mk = _mean(serial, "makespan_s")
            speedup[backend] = round(serial_mk / concurrent_mk, 4)
        _log.info("dag %-6s %s", backend,
                  " ".join(f"{s}={agg[backend][s]['mean_makespan_s']:.0f}s"
                           f"/${agg[backend][s]['mean_total_usd']:.3f}"
                           for s in shapes))

    stats = {"agg": agg, "speedup": speedup,
             "cells": [row for rows in by_tag.values() for row in rows],
             "slo": slo_reports}

    fig = FigureResult(
        "DAG backends", "workflow cost/makespan by data-sharing backend "
        "(Juve et al. comparison)")
    for shape in shapes:
        fig.add(f"makespan s [{shape}]", list(backends),
                [agg[b][shape]["mean_makespan_s"] for b in backends])
        fig.add(f"total USD [{shape}]", list(backends),
                [agg[b][shape]["mean_total_usd"] for b in backends])
    if speedup:
        fig.note("stage-concurrent vs serial on the fan-out DAG: "
                 + ", ".join(f"{b} {s:.2f}x" for b, s in speedup.items()))

    record_experiment(
        "exp_dag",
        config={"backends": list(backends), "shapes": list(shapes),
                "seeds": list(seeds), "deadline_s": DEADLINE,
                "scale": SCALE},
        extra={
            "slo": {b: r.to_dict() for b, r in slo_reports.items()},
            "agg": agg,
            "speedup": speedup,
        },
    )
    return fig, stats
