"""Tests for staging, quality-aware execution and the CLI."""

import numpy as np
import pytest

from repro.apps import GrepApplication, GrepCostProfile
from repro.cli import FIGURES, main as cli_main
from repro.cloud import Cloud, UploadSite, Workload
from repro.cloud.instance import HeterogeneityModel
from repro.cloud.staging import StagePlan
from repro.corpus import html_18mil_like
from repro.perfmodel import QualityTracker
from repro.runner import execute_plan, execute_quality_aware
from repro.sim.random import RngStream
from repro.units import GB, MB


class TestUploadSite:
    def test_small_fleet_below_saturation_scales(self):
        site = UploadSite(egress_bandwidth=100 * MB, per_instance_cap=20 * MB)
        t1 = site.stage_in_time(1 * GB, 1)
        t3 = site.stage_in_time(1 * GB, 3)
        assert t3 < t1

    def test_saturated_fleet_is_constant_time(self):
        """§5: 'staged … in a constant time per run (assuming that the
        bottleneck is the maximum throughput available at the upload site)'."""
        site = UploadSite(egress_bandwidth=30 * MB, per_instance_cap=20 * MB)
        t10 = site.stage_in_time(1 * GB, 10)
        t100 = site.stage_in_time(1 * GB, 100)
        assert t10 == pytest.approx(t100)

    def test_saturation_fleet(self):
        site = UploadSite(egress_bandwidth=30 * MB, per_instance_cap=20 * MB)
        assert site.saturation_fleet() == 2

    def test_zero_volume(self):
        assert UploadSite().stage_in_time(0, 5) == 0.0

    def test_noise_optional_and_deterministic(self):
        site = UploadSite()
        a = site.stage_in_time(1 * GB, 2, rng=RngStream(4))
        b = site.stage_in_time(1 * GB, 2, rng=RngStream(4))
        assert a == b
        assert a != site.stage_in_time(1 * GB, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            UploadSite(egress_bandwidth=0)
        with pytest.raises(ValueError):
            UploadSite().stage_in_time(-1, 1)
        with pytest.raises(ValueError):
            UploadSite().stage_in_time(1, 0)

    def test_stage_plan_effective_deadline(self):
        plan = StagePlan(volume=10**9, n_instances=4, stage_seconds=600.0)
        assert plan.effective_deadline(3600.0) == 3000.0
        with pytest.raises(ValueError):
            plan.effective_deadline(500.0)


class TestQualityAwareExecution:
    def seeded_tracker(self):
        """Tracker pre-trained with per-band grep throughputs."""
        t = QualityTracker()
        for v in (1e8, 5e8, 1e9):
            t.record("fast", v, v * 1.33e-8)
            t.record("ok", v, v * 1.33e-8 / 0.75)
            t.record("slow", v, v * 1.33e-8 / 0.45)
        return t

    def test_share_sizes_follow_quality(self):
        hetero = HeterogeneityModel(p_slow=0.5, p_very_slow=0.0,
                                    slow_range=(0.45, 0.6))
        cloud = Cloud(seed=21, io_heterogeneity=hetero)
        cat = html_18mil_like(scale=1e-3)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        report, labels = execute_quality_aware(
            cloud, wl, cat, deadline=120.0, n_instances=6,
            tracker=self.seeded_tracker())
        assert len(labels) == 6
        by_label = {}
        for run, label in zip(report.runs, labels):
            by_label.setdefault(label, []).append(run.volume)
        if "fast" in by_label and "slow" in by_label:
            assert min(by_label["fast"]) > max(by_label["slow"])
        assert sum(r.volume for r in report.runs) == cat.total_size

    def test_narrows_duration_spread_vs_uniform(self):
        """On a heterogeneous fleet, quality-aware shares even out finish
        times relative to uniform shares."""
        from repro.core.planner import ProvisioningPlan
        from repro.packing import uniform_layout

        hetero = HeterogeneityModel(p_slow=0.5, p_very_slow=0.0,
                                    slow_range=(0.45, 0.6))
        cat = html_18mil_like(scale=1e-3)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        n = 6

        layouts = uniform_layout(cat.sizes().tolist(), n_bins=n)
        plan = ProvisioningPlan(
            deadline=120.0, planning_deadline=120.0, strategy="uniform",
            predictor_name="fixed",
            assignments=[cat._take(l.indices, f"bin{i}") for i, l in enumerate(layouts)],
            predicted_times=[l.used * 1.33e-8 for l in layouts],
        )
        uni_cloud = Cloud(seed=33, io_heterogeneity=hetero)
        uni = execute_plan(uni_cloud, wl, plan)

        qa_cloud = Cloud(seed=33, io_heterogeneity=hetero)
        qa, _ = execute_quality_aware(qa_cloud, wl, cat, deadline=120.0,
                                      n_instances=n, tracker=self.seeded_tracker())

        def spread(report):
            durs = [r.duration for r in report.runs]
            return (max(durs) - min(durs)) / np.mean(durs)

        assert spread(qa) < spread(uni)

    def test_validation(self):
        cloud = Cloud(seed=1)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        with pytest.raises(ValueError):
            execute_quality_aware(cloud, wl, html_18mil_like(scale=1e-4),
                                  deadline=10.0, n_instances=0,
                                  tracker=self.seeded_tracker())


class TestCli:
    def test_figures_registry_complete(self):
        for fid in ("F1a", "F1b", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
                    "F9", "X1", "X2", "X3", "X4", "X5", "X6", "X7"):
            assert fid in FIGURES

    def test_cheap_figures_render(self, capsys):
        rc = cli_main(["figures", "--ids", "F1b", "F2", "X2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig2" in out and "Switching" in out

    def test_unknown_figure_id(self, capsys):
        assert cli_main(["figures", "--ids", "NOPE"]) == 2

    def test_no_ids(self):
        assert cli_main(["figures"]) == 2

    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "html_18mil" in out and "text_400k" in out
