"""Tests for Gantt rendering and campaign error paths."""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.core import Campaign, PlanError, StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.report import render_gantt
from repro.runner import execute_plan
from repro.runner.execute import ExecutionReport, InstanceRun
from repro.units import KB


def sample_report(missed=False):
    runs = [
        InstanceRun("i-000001", 5, 1000, boot_delay=100.0,
                    duration=3000.0, predicted=2900.0),
        InstanceRun("i-000002", 5, 1000, boot_delay=120.0,
                    duration=4000.0 if missed else 3100.0, predicted=2900.0),
    ]
    return ExecutionReport(deadline=3600.0, strategy="uniform", runs=runs)


class TestGantt:
    def test_rows_and_summary(self):
        out = render_gantt(sample_report())
        lines = out.splitlines()
        assert len(lines) == 4  # header + 2 instances + summary
        assert "i-000001" in lines[1] and "i-000002" in lines[2]
        assert "makespan" in lines[-1]

    def test_deadline_marker_present(self):
        out = render_gantt(sample_report())
        assert "|" in out

    def test_miss_flagged(self):
        out = render_gantt(sample_report(missed=True))
        assert "!" in out
        assert "1 missed" in out

    def test_boot_phase_optional(self):
        with_boot = render_gantt(sample_report(), include_boot=True)
        without = render_gantt(sample_report(), include_boot=False)
        assert "b" in with_boot.splitlines()[1]
        assert "b" not in without.splitlines()[1].split()[1]

    def test_empty_report(self):
        assert "(no instances ran)" in render_gantt(
            ExecutionReport(deadline=10.0, strategy="x"))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_gantt(sample_report(), width=5)

    def test_real_execution_renders(self):
        x = np.array([1e5, 1e6, 5e6])
        model = fit_affine(x, 0.327 + 0.865e-4 * x)
        cat = text_400k_like(scale=2e-3)
        plan = StaticProvisioner(model).plan(
            reshape(cat, None).units, 30.0, strategy="uniform")
        report = execute_plan(Cloud(seed=6), Workload(
            "postag", PosTaggerApplication(), PosCostProfile()), plan)
        out = render_gantt(report)
        assert out.count("\n") == report.n_instances + 1


class TestCampaignErrorPaths:
    def test_impossible_deadline_raises_plan_error(self):
        cloud = Cloud(seed=60)
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        cat = text_400k_like(scale=0.01)
        campaign = Campaign(cloud, wl, cat, probe_repeats=2)
        with pytest.raises(PlanError):
            campaign.run(deadline=0.5,  # below any model intercept
                         initial_volume=100 * KB,
                         unit_sizes_for=lambda v: [10 * KB])

    def test_probe_volume_larger_than_catalogue_is_capped(self):
        cloud = Cloud(seed=61)
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        cat = text_400k_like(scale=2e-3)
        campaign = Campaign(cloud, wl, cat, probe_repeats=2)
        result = campaign.run(deadline=120.0,
                              initial_volume=cat.total_size * 10,
                              unit_sizes_for=lambda v: [10 * KB])
        assert result.report.n_instances >= 1
