"""Tests for workflow scheduling with full-hour subdeadlines (§7)."""

import numpy as np
import pytest

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, Workload
from repro.core import (
    TextWorkflow,
    WorkflowError,
    WorkflowStage,
    assign_subdeadlines,
)
from repro.corpus import html_18mil_like
from repro.dag import DagScheduler, WorkflowGraph
from repro.perfmodel.regression import fit_affine
from repro.units import HOUR


def affine(a, b):
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def grep_stage(name="filter", ratio=0.5):
    return WorkflowStage(name=name,
                         workload=Workload("grep", GrepApplication(), GrepCostProfile()),
                         predictor=affine(0.2, 1.3e-8), output_ratio=ratio)


def extract_stage(name="extract"):
    return WorkflowStage(name=name,
                         workload=Workload("extract", ExtractorApplication(),
                                           ExtractCostProfile()),
                         predictor=affine(0.3, 3e-8), output_ratio=0.95,
                         strips_markup=True)


def pos_stage(name="tag"):
    return WorkflowStage(name=name,
                         workload=Workload("postag", PosTaggerApplication(),
                                           PosCostProfile()),
                         predictor=affine(3.0, 0.9e-4))


def pipeline(cls=TextWorkflow) -> TextWorkflow:
    wf = cls()
    wf.add_stage(grep_stage())
    wf.add_stage(extract_stage(), after=["filter"])
    wf.add_stage(pos_stage(), after=["extract"])
    return wf


class TestWorkflowConstruction:
    def test_topological_order(self):
        wf = pipeline()
        assert [s.name for s in wf.stages()] == ["filter", "extract", "tag"]

    def test_duplicate_rejected(self):
        wf = pipeline()
        with pytest.raises(WorkflowError):
            wf.add_stage(grep_stage())

    def test_unknown_dependency_rejected(self):
        wf = TextWorkflow()
        with pytest.raises(WorkflowError):
            wf.add_stage(grep_stage(), after=["nope"])

    def test_cycle_rejected(self):
        wf = TextWorkflow()
        wf.add_stage(grep_stage("a"))
        wf.add_stage(grep_stage("b"), after=["a"])
        # manual edge to provoke a cycle through the public API path
        with pytest.raises(WorkflowError):
            wf._graph.add_edge("b", "a")
            wf.add_stage(grep_stage("c"), after=["a"])

    def test_bad_output_ratio(self):
        with pytest.raises(WorkflowError):
            grep_stage(ratio=1.5)

    def test_stage_lookup(self):
        wf = pipeline()
        assert wf.stage("extract").strips_markup
        with pytest.raises(WorkflowError):
            wf.stage("missing")


class TestStageVolumes:
    def test_volumes_flow_through_ratios(self):
        wf = pipeline()
        vols = wf.stage_volumes(1_000_000)
        assert vols["filter"] == 1_000_000
        assert vols["extract"] == 500_000
        assert vols["tag"] == 475_000

    def test_fan_in_sums(self):
        wf = TextWorkflow()
        wf.add_stage(grep_stage("a", ratio=0.4))
        wf.add_stage(grep_stage("b", ratio=0.2))
        wf.add_stage(pos_stage("join"), after=["a", "b"])
        vols = wf.stage_volumes(1_000_000)
        assert vols["join"] == 400_000 + 200_000


class TestSubdeadlines:
    def test_shares_sum_to_deadline_without_alignment(self):
        wf = pipeline()
        shares = assign_subdeadlines(wf, 10**7, 1800.0, hour_align=False)
        assert sum(shares.values()) == pytest.approx(1800.0)
        # POS dominates predicted work, so it gets the lion's share
        assert shares["tag"] > shares["filter"] + shares["extract"]

    def test_hour_alignment_produces_whole_hours(self):
        wf = pipeline()
        shares = assign_subdeadlines(wf, 10**9, 6 * HOUR)
        assert all(s % HOUR == 0 for s in shares.values())
        assert sum(shares.values()) == 6 * HOUR
        assert all(s >= HOUR for s in shares.values())

    def test_alignment_skipped_when_budget_too_small(self):
        wf = pipeline()
        shares = assign_subdeadlines(wf, 10**7, 2 * HOUR)  # 3 stages, 2 hours
        assert sum(shares.values()) == pytest.approx(2 * HOUR)
        assert any(s % HOUR != 0 for s in shares.values())

    def test_bad_deadline(self):
        with pytest.raises(WorkflowError):
            assign_subdeadlines(pipeline(), 10**6, 0.0)

    def test_empty_workflow(self):
        with pytest.raises(WorkflowError):
            assign_subdeadlines(TextWorkflow(), 10**6, HOUR)


def run_serial(seed):
    """The §7 stage-barrier run: one stage at a time, full-hour budgets."""
    cat = html_18mil_like(scale=2e-5)
    return DagScheduler(Cloud(seed=seed), pipeline(WorkflowGraph), cat,
                        3 * HOUR, mode="serial").run()


class TestExecuteWorkflow:
    def test_pipeline_runs_all_stages(self):
        report = run_serial(9)
        assert set(report.stages) == {"filter", "extract", "tag"}
        assert report.makespan > 0
        hours = sum(s.report.instance_hours for s in report.stages.values())
        assert hours >= 3
        assert report.compute_cost_usd == pytest.approx(hours * 0.085)

    def test_intermediate_volume_shrinks(self):
        stages = run_serial(9).stages
        v_filter = sum(r.volume for r in stages["filter"].report.runs)
        v_tag = sum(r.volume for r in stages["tag"].report.runs)
        assert v_tag < v_filter

    def test_deterministic(self):
        assert run_serial(5).makespan == run_serial(5).makespan
        assert run_serial(5).makespan != run_serial(6).makespan

    def test_summary_structure(self):
        s = run_serial(9).summary()
        assert s["stages"] == 3 and s["mode"] == "serial"
        assert "met" in s and "total_usd" in s
