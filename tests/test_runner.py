"""Tests for plan execution, its fleet timeline, and dynamic rescheduling."""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.cloud.instance import HeterogeneityModel
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import (
    DynamicPolicy,
    ExecutionCore,
    FleetCompletion,
    FleetLaunchAcquisition,
    FleetTimeline,
    RunToCompletion,
    execute_plan,
    execute_with_monitoring,
)


def model():
    x = np.array([1e5, 1e6, 5e6])
    return fit_affine(x, 0.327 + 0.865e-4 * x)


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def make_plan(deadline=30.0, strategy="uniform", scale=1e-3):
    cat = text_400k_like(scale=scale)
    units = reshape(cat, None).units
    return StaticProvisioner(model()).plan(units, deadline, strategy=strategy)


class TestExecutePlan:
    def test_report_fields(self):
        cloud = Cloud(seed=1)
        plan = make_plan()
        report = execute_plan(cloud, pos_workload(), plan)
        assert report.n_instances == plan.n_instances
        assert report.makespan > 0
        assert report.instance_hours >= report.n_instances
        assert report.cost == pytest.approx(report.instance_hours * 0.085)

    def test_durations_deterministic(self):
        plan = make_plan()
        r1 = execute_plan(Cloud(seed=9), pos_workload(), plan)
        r2 = execute_plan(Cloud(seed=9), pos_workload(), plan)
        assert [a.duration for a in r1.runs] == [b.duration for b in r2.runs]

    def test_ledger_matches_report(self):
        cloud = Cloud(seed=2)
        report = execute_plan(cloud, pos_workload(), make_plan())
        assert cloud.ledger.total_instance_hours == report.instance_hours

    def test_all_instances_terminated(self):
        cloud = Cloud(seed=3)
        execute_plan(cloud, pos_workload(), make_plan())
        assert not cloud.running_instances()

    def test_uniform_meets_more_often_than_first_fit(self):
        """Fig. 8(a) vs 8(b): uniform bins lower the worst instance time."""
        wl = pos_workload()
        plan_ff = make_plan(strategy="first-fit")
        plan_uni = make_plan(strategy="uniform")
        assert plan_ff.n_instances == plan_uni.n_instances  # same cost basis
        ff = execute_plan(Cloud(seed=4), wl, plan_ff)
        uni = execute_plan(Cloud(seed=4), wl, plan_uni)
        assert uni.makespan <= ff.makespan * 1.05

    def test_misses_counted_per_instance(self):
        cloud = Cloud(seed=5)
        plan = make_plan(deadline=1.0)  # absurd deadline: everything misses
        plan.deadline = 1.0
        report = execute_plan(cloud, pos_workload(), plan)
        assert report.n_missed == report.n_instances
        assert not report.met_deadline

    def test_makespan_is_max_duration(self):
        cloud = Cloud(seed=6)
        report = execute_plan(cloud, pos_workload(), make_plan())
        assert report.makespan == max(r.duration for r in report.runs)

    def test_summary_keys(self):
        cloud = Cloud(seed=7)
        s = execute_plan(cloud, pos_workload(), make_plan()).summary()
        for key in ("strategy", "instances", "makespan_s", "missed",
                    "instance_hours", "cost_usd"):
            assert key in s

    def test_billed_hours_floor_one(self):
        cloud = Cloud(seed=8)
        report = execute_plan(cloud, pos_workload(), make_plan())
        assert all(r.billed_hours >= 1 for r in report.runs)


class TestFleetTimeline:
    """The completion-event timeline of an ``execute_plan``-shaped run."""

    def _run(self):
        plan = make_plan(scale=2e-3)
        result = ExecutionCore(Cloud(seed=9), pos_workload(), plan,
                               acquisition=FleetLaunchAcquisition(),
                               progress=RunToCompletion(),
                               completion=FleetCompletion()).run()
        return plan, result.timeline

    def test_completion_counts_monotone(self):
        plan, timeline = self._run()
        completed = [c for _, _, c in timeline.points]
        assert completed == sorted(completed)
        assert completed[-1] == plan.n_instances

    def test_working_plus_completed_is_fleet(self):
        plan, timeline = self._run()
        for _, working, completed in timeline.points:
            assert working + completed == plan.n_instances

    def test_times_nondecreasing(self):
        _, timeline = self._run()
        times = [t for t, _, _ in timeline.points]
        assert times == sorted(times)

    def test_completed_at_queries(self):
        plan, timeline = self._run()

        def completed_at(t):
            return max((c for when, _, c in timeline.points if when <= t),
                       default=0)

        assert completed_at(timeline.points[-1][0]) == plan.n_instances
        assert completed_at(0.0) == 0

    def test_empty_timeline(self):
        t = FleetTimeline()
        assert t.points == []


class TestDynamicRescheduling:
    def test_no_replacements_on_good_cloud(self):
        hmodel = HeterogeneityModel(p_slow=0.0, p_very_slow=0.0)
        cloud = Cloud(seed=11, heterogeneity=hmodel)
        report, events = execute_with_monitoring(cloud, pos_workload(), make_plan())
        assert events == []
        assert report.n_instances >= 1

    def test_straggler_replaced_on_bad_cloud(self):
        hmodel = HeterogeneityModel(p_slow=0.0, p_very_slow=1.0)  # all 0.25-0.5x
        cloud = Cloud(seed=12, heterogeneity=hmodel)
        report, events = execute_with_monitoring(
            cloud, pos_workload(), make_plan(),
            policy=DynamicPolicy(slow_threshold=0.7),
        )
        assert len(events) >= 1
        ev = events[0]
        assert ev.old_instance != ev.new_instance
        assert ev.observed_ratio < 0.7

    def test_replacement_improves_makespan_on_straggler(self):
        """§3.1: swapping a slow instance wins despite the 3 min penalty.

        Needs bins big enough that remaining work dwarfs the 180 s swap
        penalty — the same condition the paper's 210 GB-vs-57 GB argument
        relies on.
        """
        plan = make_plan(scale=3e-2, deadline=300.0)
        n = plan.n_instances

        class Scripted:
            """First 2n factor draws (cpu+io per launch) slow, rest fast."""

            def __init__(self, n_slow):
                self.remaining = n_slow

            def draw_factor(self, rng):
                if self.remaining > 0:
                    self.remaining -= 1
                    return 0.3
                return 1.0

        cloud_a = Cloud(seed=13, heterogeneity=Scripted(2 * n))
        static_report = execute_plan(cloud_a, pos_workload(), plan)

        cloud_b = Cloud(seed=13, heterogeneity=Scripted(2 * n))
        report, events = execute_with_monitoring(
            cloud_b, pos_workload(), plan,
            policy=DynamicPolicy(slow_threshold=0.7, probe_fraction=0.2,
                                 replacement_penalty=180.0),
        )
        assert len(events) >= 1  # stragglers detected
        assert report.makespan < static_report.makespan

    def test_retired_instances_still_billed(self):
        hmodel = HeterogeneityModel(p_slow=0.0, p_very_slow=1.0)
        cloud = Cloud(seed=14, heterogeneity=hmodel)
        report, events = execute_with_monitoring(cloud, pos_workload(), make_plan())
        if events:
            # ledger covers both retired and replacement instances
            assert len(cloud.ledger.records) > report.n_instances

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DynamicPolicy(probe_fraction=0.0)
        with pytest.raises(ValueError):
            DynamicPolicy(slow_threshold=1.5)
        with pytest.raises(ValueError):
            DynamicPolicy(replacement_penalty=-1.0)
