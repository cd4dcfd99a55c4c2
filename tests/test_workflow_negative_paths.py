"""Negative-path tests for workflow execution and subdeadline splitting."""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.core import (
    PlanError,
    TextWorkflow,
    WorkflowStage,
)
from repro.corpus import html_18mil_like
from repro.dag import DagScheduler, WorkflowGraph
from repro.perfmodel.regression import fit_affine
from repro.units import HOUR


def affine(a, b):
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def heavy_pipeline(cls=TextWorkflow):
    wf = cls()
    wf.add_stage(WorkflowStage(
        "tag", Workload("postag", PosTaggerApplication(), PosCostProfile()),
        affine(3.0, 0.9e-4)))
    return wf


class TestWorkflowNegativePaths:
    def test_infeasible_subdeadline_raises_plan_error(self):
        """A deadline below any stage's model floor surfaces as PlanError."""
        wf = heavy_pipeline(WorkflowGraph)
        cat = html_18mil_like(scale=1e-5)
        with pytest.raises(PlanError):
            DagScheduler(Cloud(seed=3), wf, cat, 1.0, mode="serial").run()

    def test_single_stage_workflow_gets_whole_deadline(self):
        from repro.core import assign_subdeadlines

        wf = heavy_pipeline()
        shares = assign_subdeadlines(wf, 10**7, 2 * HOUR)
        assert shares == {"tag": 2 * HOUR}

    def test_stage_volumes_empty_input(self):
        wf = heavy_pipeline()
        assert wf.stage_volumes(0) == {"tag": 0}

    def test_workflow_len(self):
        assert len(heavy_pipeline()) == 1
        assert len(TextWorkflow()) == 0
