"""Benches for the §7 future-work extensions implemented beyond the core.

Not paper figures — these quantify the improvements the paper *proposes*:
weighted curve fitting, per-quality predictors, workflow subdeadlines, and
upload-site staging.
"""

import numpy as np
from conftest import single_shot

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, UploadSite, Workload
from repro.cloud.instance import HeterogeneityModel
from repro.core import WorkflowStage, assign_subdeadlines
from repro.corpus import html_18mil_like
from repro.dag import DagScheduler, WorkflowGraph
from repro.perfmodel import QualityTracker, volume_weighted_fit
from repro.perfmodel.regression import fit_affine
from repro.report import ComparisonTable
from repro.runner import execute_quality_aware
from repro.units import GB, HOUR, MB


def test_extension_workflow_subdeadlines(benchmark):
    """§7: workflows scheduled with full-hour subdeadlines meet the global
    deadline without mid-hour instance waste."""

    def run():
        def affine(a, b):
            x = np.array([1e5, 1e6, 1e7])
            return fit_affine(x, a + b * x)

        wf = WorkflowGraph()
        wf.add_stage(WorkflowStage(
            "filter", Workload("grep", GrepApplication(), GrepCostProfile()),
            affine(0.2, 1.3e-8), output_ratio=0.4))
        wf.add_stage(WorkflowStage(
            "extract", Workload("extract", ExtractorApplication(), ExtractCostProfile()),
            affine(0.3, 3e-8), output_ratio=0.95, strips_markup=True),
            after=["filter"])
        wf.add_stage(WorkflowStage(
            "tag", Workload("postag", PosTaggerApplication(), PosCostProfile()),
            affine(3.0, 0.9e-4)), after=["extract"])
        cat = html_18mil_like(scale=5e-4)
        subs = assign_subdeadlines(wf, cat.total_size, 4 * HOUR)
        report = DagScheduler(Cloud(seed=22), wf, cat, 4 * HOUR,
                              mode="serial").run()
        return subs, report

    subs, report = single_shot(benchmark, run)
    table = ComparisonTable()
    table.add("W1", "subdeadlines are hour-aligned", "full-hour groups",
              f"{sorted(s / HOUR for s in subs.values())} h",
              all(s % HOUR == 0 for s in subs.values()))
    table.add("W1", "subdeadline budget equals the user deadline", "4 h",
              f"{sum(subs.values()) / HOUR:.0f} h",
              sum(subs.values()) == 4 * HOUR)
    table.add("W1", "workflow meets the global deadline", "met",
              f"makespan {report.makespan:.0f}s", report.met_deadline)
    print("\n" + table.render())
    assert table.all_agree


def test_extension_quality_aware_shares(benchmark):
    """§7: per-quality predictors narrow the finish-time spread on a
    heterogeneous fleet."""

    def run():
        tracker = QualityTracker()
        for v in (1e8, 5e8, 1e9):
            tracker.record("fast", v, v * 1.33e-8)
            tracker.record("ok", v, v * 1.33e-8 / 0.75)
            tracker.record("slow", v, v * 1.33e-8 / 0.45)
        hetero = HeterogeneityModel(p_slow=0.5, p_very_slow=0.0,
                                    slow_range=(0.45, 0.6))
        cloud = Cloud(seed=33, io_heterogeneity=hetero)
        cat = html_18mil_like(scale=1e-3)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        report, labels = execute_quality_aware(
            cloud, wl, cat, deadline=120.0, n_instances=6, tracker=tracker)
        return report, labels

    report, labels = single_shot(benchmark, run)
    durations = [r.duration for r in report.runs if r.volume > 0]
    spread = (max(durations) - min(durations)) / float(np.mean(durations))
    table = ComparisonTable()
    table.add("W2", "fleet mixes quality classes", "heterogeneous",
              f"labels {sorted(set(labels))}", len(set(labels)) >= 2)
    table.add("W2", "quality-aware shares even out finish times",
              "narrow spread", f"{spread:.1%} spread", spread < 0.5)
    print("\n" + table.render())
    assert table.all_agree


def test_extension_staging_constant_time(benchmark):
    """§5 staging assumption, made checkable: beyond the upload site's
    saturation point, stage-in time is fleet-size independent."""

    def run():
        site = UploadSite(egress_bandwidth=30 * MB, per_instance_cap=20 * MB)
        return {n: site.stage_in_time(10 * GB, n) for n in (1, 2, 4, 16, 64)}

    times = single_shot(benchmark, run)
    print(f"\nfleet size -> stage-in seconds: "
          f"{ {n: round(t, 1) for n, t in times.items()} }")
    assert times[1] > times[2]
    assert times[2] == times[4] == times[16] == times[64]


def test_extension_weighted_fit(benchmark):
    """§7: weighted fitting pins the large-volume range.

    Outcome worth recording: the weighted fit reliably tracks the largest
    measured volume more closely (its stated goal), but for *affine*
    runtime models the extrapolation gain over plain OLS is marginal —
    OLS slopes are already dominated by the large-volume points.  The §7
    proposal matters for the noisier curved families, not the linear one
    the paper ends up using.
    """

    def run():
        top_wins = 0
        extrap_w = []
        extrap_u = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = np.logspace(4, 8, 30)
            rel = np.linspace(1.2, 0.01, 30)
            y = np.maximum(
                (2.0 + 1e-4 * x) * (1 + rng.normal(0, 1, 30) * rel / 2), 1e-3)
            fit_w = volume_weighted_fit(x, y, power=3.0)
            fit_u = fit_affine(x, y)
            res_w = abs(float(y[-1]) - fit_w.predict(float(x[-1])))
            res_u = abs(float(y[-1]) - fit_u.predict(float(x[-1])))
            top_wins += res_w <= res_u
            truth = 2.0 + 1e-4 * 1e9
            extrap_w.append(abs(fit_w.predict(1e9) - truth) / truth)
            extrap_u.append(abs(fit_u.predict(1e9) - truth) / truth)
        return top_wins, float(np.mean(extrap_w)), float(np.mean(extrap_u))

    top_wins, err_w, err_u = single_shot(benchmark, run)
    print(f"\nweighted fit closer at the top volume in {top_wins}/10 trials; "
          f"mean extrapolation error {err_w:.1%} (weighted) vs {err_u:.1%} "
          f"(unweighted) — marginal for affine models, as recorded in "
          f"EXPERIMENTS.md")
    assert top_wins >= 9
    assert err_w < 3 * max(err_u, 0.005)  # no blow-up; gains are marginal
