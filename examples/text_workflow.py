#!/usr/bin/env python
"""A three-stage text-processing workflow with full-hour subdeadlines (§7).

Pipeline: grep-filter the HTML crawl for relevant articles (keeps 40 %),
extract visible text, POS-tag the result.  The §7 scheduler splits the
user deadline across stages proportionally to predicted work and snaps the
splits to whole hours, so no stage's fleet releases instances mid-hour
under ceil-hour pricing.  The serial DAG scheduler then runs the stages
one after another, each on its own fleet; its makespan counts boot waits.

Run:  python examples/text_workflow.py
"""

import numpy as np

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, UploadSite, Workload
from repro.core import WorkflowStage, assign_subdeadlines
from repro.corpus import html_18mil_like
from repro.dag import DagScheduler, WorkflowGraph
from repro.perfmodel.regression import fit_affine
from repro.units import HOUR, fmt_bytes, fmt_seconds


def affine(a, b):
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def main() -> None:
    cloud = Cloud(seed=22)
    catalogue = html_18mil_like(scale=5e-4)   # ~9k files, ~430 MB
    deadline = 4 * HOUR

    workflow = WorkflowGraph()
    workflow.add_stage(WorkflowStage(
        name="filter",
        workload=Workload("grep", GrepApplication("economy"), GrepCostProfile()),
        predictor=affine(0.2, 1.3e-8),
        output_ratio=0.4,
    ))
    workflow.add_stage(WorkflowStage(
        name="extract",
        workload=Workload("extract", ExtractorApplication(), ExtractCostProfile()),
        predictor=affine(0.3, 3.0e-8),
        output_ratio=0.95,
        strips_markup=True,
    ), after=["filter"])
    workflow.add_stage(WorkflowStage(
        name="tag",
        workload=Workload("postag", PosTaggerApplication(), PosCostProfile()),
        predictor=affine(3.0, 0.9e-4),
    ), after=["extract"])

    print(f"input: {len(catalogue)} HTML files, {fmt_bytes(catalogue.total_size)}")
    site = UploadSite()
    stage_in = site.stage_in_time(catalogue.total_size, n_instances=8)
    print(f"stage-in through the upload site: {fmt_seconds(stage_in)} "
          f"(saturates at {site.saturation_fleet()} instances)\n")

    vols = workflow.stage_volumes(catalogue.total_size)
    subs = assign_subdeadlines(workflow, catalogue.total_size, deadline)
    print(f"{'stage':>8} {'input':>10} {'subdeadline':>12}")
    for stage in workflow.stages():
        print(f"{stage.name:>8} {fmt_bytes(vols[stage.name]):>10} "
              f"{fmt_seconds(subs[stage.name]):>12}")

    report = DagScheduler(cloud, workflow, catalogue, deadline,
                          mode="serial").run()
    print(f"\n{'stage':>8} {'inst':>5} {'makespan':>10} {'missed':>7} {'inst-h':>7}")
    for name, stage in report.stages.items():
        r = stage.report
        print(f"{name:>8} {r.n_instances:>5} {fmt_seconds(r.makespan):>10} "
              f"{r.n_missed:>7} {r.instance_hours:>7}")
    hours = sum(s.report.instance_hours for s in report.stages.values())
    print(f"\nworkflow makespan {fmt_seconds(report.makespan)} vs deadline "
          f"{fmt_seconds(deadline)} -> {'met' if report.met_deadline else 'MISSED'}")
    print(f"total: {hours} instance-hours = ${report.total_cost:.3f}")


if __name__ == "__main__":
    main()
