"""Satellite coverage: runner/quality.py, report/compare.py, and the
work-conservation property of every runner-core policy combination.

The conservation law is the core's central invariant: whatever the
acquisition / progress / completion policies do — replace stragglers,
redo crashed batches, fail bins, re-home orphans onto survivors — every
unit of the plan is accounted for exactly once:

    completed units  +  non-absorbed failed-bin units  ==  plan units

(and likewise for bytes).  Hypothesis drives seeds, policy knobs, chaos
and failure models through all five entry points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_runner_core_differential import run_leased
from repro.apps import (
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.capacity import (
    BrokerAcquisition,
    LadderBroker,
    OnDemandBroker,
    ResilientBroker,
    SpotBroker,
    WarmLeaseBroker,
)
from repro.chaos import FaultInjector, get_scenario, get_spot_regime
from repro.cloud import Cloud, FailureModel, Workload
from repro.cloud.bonnie import BONNIE_DURATION
from repro.core import StaticProvisioner, reshape
from repro.corpus import html_18mil_like, text_400k_like
from repro.fleet import LeaseManager
from repro.perfmodel import QualityTracker
from repro.perfmodel.regression import fit_affine
from repro.report.compare import ComparisonRow, ComparisonTable
from repro.resilience import ResilientLauncher
from repro.runner import (
    DynamicPolicy,
    FaultPolicy,
    execute_fault_tolerant,
    execute_plan,
    execute_plan_spot,
    execute_quality_aware,
    execute_with_monitoring,
)


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def make_plan(deadline=30.0, scale=1e-3, strategy="uniform", y_scale=1.0):
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, y_scale * (0.327 + 0.865e-4 * x))
    cat = text_400k_like(scale=scale)
    return StaticProvisioner(model).plan(
        list(reshape(cat, None).units), deadline, strategy=strategy)


def plan_units(plan):
    return sum(len(b) for b in plan.assignments)


def plan_volume(plan):
    return sum(u.size for b in plan.assignments for u in b)


def assert_work_conserved(plan, report):
    """completed + non-absorbed-failed == planned, in units and bytes."""
    done_units = sum(r.n_units for r in report.runs)
    done_volume = sum(r.volume for r in report.runs)
    lost_units = sum(f.n_units for f in report.failures if not f.absorbed)
    lost_volume = sum(f.volume for f in report.failures if not f.absorbed)
    assert done_units + lost_units == plan_units(plan)
    assert done_volume + lost_volume == plan_volume(plan)


class TestQualityAwareRunner:
    def seeded_tracker(self):
        t = QualityTracker()
        for v in (1e8, 5e8, 1e9):
            t.record("fast", v, v * 1.33e-8)
            t.record("ok", v, v * 1.33e-8 / 0.75)
            t.record("slow", v, v * 1.33e-8 / 0.45)
        return t

    def run(self, seed=5, n=4):
        cloud = Cloud(seed=seed)
        cat = html_18mil_like(scale=5e-4)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        report, labels = execute_quality_aware(
            cloud, wl, cat, deadline=120.0, n_instances=n,
            tracker=self.seeded_tracker())
        return cloud, cat, report, labels

    def test_every_file_assigned_exactly_once(self):
        _, cat, report, _ = self.run()
        assert sum(r.n_units for r in report.runs) == len(list(cat))
        assert sum(r.volume for r in report.runs) == cat.total_size

    def test_probe_time_charged_to_every_run(self):
        _, _, report, labels = self.run()
        assert len(labels) == len(report.runs)
        assert all(r.duration >= BONNIE_DURATION for r in report.runs)

    def test_every_instance_billed_once(self):
        cloud, _, report, _ = self.run(n=3)
        billed = [r.instance_id for r in cloud.ledger.records]
        assert sorted(billed) == sorted(r.instance_id for r in report.runs)
        assert len(billed) == 3

    def test_deterministic_across_identical_clouds(self):
        _, _, a, la = self.run(seed=9)
        _, _, b, lb = self.run(seed=9)
        assert la == lb
        assert [r.duration for r in a.runs] == [r.duration for r in b.runs]

    def test_labels_drawn_from_tracker_bands(self):
        _, _, _, labels = self.run()
        assert set(labels) <= {"fast", "ok", "slow"}


class TestComparisonReport:
    def test_row_markdown_cells(self):
        row = ComparisonRow("fig8", "makespan", "40 min", "41 min", True)
        assert row.markdown() == \
            "| fig8 | makespan | 40 min | 41 min | yes |"
        bad = ComparisonRow("fig8", "makespan", "40", "80", False)
        assert bad.markdown().endswith("| NO |")

    def test_add_coerces_and_returns_row(self):
        t = ComparisonTable()
        row = t.add("e1", "cost", 12.5, 13, 1)
        assert row.paper == "12.5" and row.measured == "13"
        assert row.agree is True
        assert t.rows == [row]

    def test_all_agree_and_markdown_table(self):
        t = ComparisonTable()
        t.add("e1", "cost", 1, 1, True)
        t.add("e2", "misses", 0, 3, False)
        assert not t.all_agree
        md = t.markdown().splitlines()
        assert md[0] == "| experiment | quantity | paper | measured | agrees |"
        assert md[1] == "|---|---|---|---|---|"
        assert len(md) == 4

    def test_render_flags_and_alignment(self):
        t = ComparisonTable()
        t.add("e1", "q", "a", "b", True)
        t.add("e2", "longer-quantity", "a", "b", False)
        out = t.render().splitlines()
        assert out[0].startswith("ok ") and out[1].startswith("!! ")
        # quantities pad to the widest one
        assert "q              " in out[0]

    def test_empty_table(self):
        t = ComparisonTable()
        assert t.all_agree
        assert t.render() == ""
        assert t.markdown().count("\n") == 1


class TestWorkConservation:
    """Hypothesis: every policy combination conserves the plan's work."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           strategy=st.sampled_from(["uniform", "first-fit"]),
           chaos=st.sampled_from([None, "capacity-crunch", "flaky-boots",
                                  "kitchen-sink"]),
           resilient=st.booleans())
    def test_static_runner(self, seed, strategy, chaos, resilient):
        plan = make_plan(strategy=strategy)
        cloud = Cloud(seed=seed, chaos=FaultInjector(
            [get_scenario(chaos)], seed=seed) if chaos else None)
        launcher = ResilientLauncher(cloud) if resilient else None
        report = execute_plan(cloud, pos_workload(), plan, launcher=launcher)
        assert_work_conserved(plan, report)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_static_runner_any_seed(self, seed):
        plan = make_plan()
        report = execute_plan(Cloud(seed=seed), pos_workload(), plan)
        assert_work_conserved(plan, report)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           threshold=st.floats(0.3, 0.95),
           replace_at=st.sampled_from(["immediately", "hour-boundary"]),
           y_scale=st.sampled_from([0.5, 1.0]),
           leased=st.booleans())
    def test_monitored_runner(self, seed, threshold, replace_at, y_scale,
                              leased):
        plan = make_plan(y_scale=y_scale)
        policy = DynamicPolicy(slow_threshold=threshold, replace_at=replace_at)
        cloud = Cloud(seed=seed)
        manager = LeaseManager(cloud) if leased else None
        report, _ = execute_with_monitoring(cloud, pos_workload(), plan,
                                            policy=policy,
                                            lease_manager=manager)
        assert_work_conserved(plan, report)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           mtbf=st.sampled_from([0.002, 0.02, 0.2]),
           batch=st.integers(3, 40),
           max_crashes=st.integers(1, 8),
           leased=st.booleans())
    def test_fault_tolerant_runner(self, seed, mtbf, batch, max_crashes,
                                   leased):
        plan = make_plan(deadline=200.0)
        policy = FaultPolicy(batch_units=batch,
                             max_crashes_per_bin=max_crashes)
        cloud = Cloud(seed=seed, failure_model=FailureModel(mtbf_hours=mtbf))
        manager = LeaseManager(cloud) if leased else None
        report, _ = execute_fault_tolerant(cloud, pos_workload(), plan,
                                           policy=policy,
                                           lease_manager=manager)
        assert_work_conserved(plan, report)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16),
           strategy=st.sampled_from(["uniform", "first-fit"]))
    def test_fleet_runner(self, seed, strategy):
        plan = make_plan(strategy=strategy)
        manager = LeaseManager(Cloud(seed=seed))
        report = run_leased(manager, pos_workload(), plan)
        assert_work_conserved(plan, report)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           regime=st.sampled_from([None, "calm", "choppy", "eviction-storm"]),
           chaos=st.sampled_from([None, "capacity-crunch"]),
           deadline=st.sampled_from([30.0, 7200.0]))
    def test_spot_runner(self, seed, regime, chaos, deadline):
        """Spot market × interruption regime × launch chaos conserves work."""
        plan = make_plan(deadline=deadline)
        scenarios = []
        if regime is not None:
            scenarios.append(get_spot_regime(regime).scenario(seed))
        if chaos is not None:
            scenarios.append(get_scenario(chaos))
        cloud = Cloud(seed=seed, chaos=FaultInjector(scenarios, seed=seed)
                      if scenarios else None)
        result = execute_plan_spot(cloud, pos_workload(), plan)
        assert_work_conserved(plan, result.report)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16),
           chaos=st.sampled_from(["capacity-crunch", "kitchen-sink"]))
    def test_degradation_replan_absorbs_rather_than_loses(self, seed, chaos):
        """Absorbed failures re-home units into survivors' runs."""
        from repro.resilience import DegradationPlanner

        plan = make_plan()
        cloud = Cloud(seed=seed,
                      chaos=FaultInjector([get_scenario(chaos)], seed=seed))
        launcher = ResilientLauncher(cloud, degradation=DegradationPlanner())
        report = execute_plan(cloud, pos_workload(), plan, launcher=launcher)
        assert_work_conserved(plan, report)
        for f in report.failures:
            if f.absorbed:
                # its units are inside the survivors' totals already
                assert sum(r.n_units for r in report.runs) == plan_units(plan)


class TestBrokerStackConservation:
    """Hypothesis: hand-composed broker stacks conserve the plan's work.

    The entry-point runners above exercise the canonical stacks; these
    cases wire BrokerAcquisition directly with ladders and decorators the
    runners never build, under chaos, and check the same invariant.
    """

    def _core(self, cloud, plan, acquisition, completion):
        from repro.runner.core import ExecutionCore, RunToCompletion

        return ExecutionCore(cloud, pos_workload(), plan,
                             acquisition=acquisition,
                             progress=RunToCompletion(),
                             completion=completion,
                             label="broker-stack")

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           chaos=st.sampled_from([None, "capacity-crunch", "flaky-boots",
                                  "kitchen-sink"]),
           stack=st.sampled_from(["on-demand", "resilient",
                                  "resilient-ladder"]))
    def test_fleet_stacks(self, seed, chaos, stack):
        from repro.runner.core import FleetCompletion

        plan = make_plan()
        cloud = Cloud(seed=seed, chaos=FaultInjector(
            [get_scenario(chaos)], seed=seed) if chaos else None)
        if stack == "on-demand":
            broker = OnDemandBroker()
        elif stack == "resilient":
            broker = ResilientBroker(ResilientLauncher(cloud))
        else:
            broker = LadderBroker([ResilientBroker(ResilientLauncher(cloud)),
                                   OnDemandBroker()])
        core = self._core(cloud, plan,
                          BrokerAcquisition(broker),
                          FleetCompletion())
        assert_work_conserved(plan, core.run().report)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16),
           strategy=st.sampled_from(["uniform", "first-fit"]))
    def test_warm_lease_stack(self, seed, strategy):
        from repro.runner.core import FleetCompletion

        plan = make_plan(strategy=strategy)
        cloud = Cloud(seed=seed)
        manager = LeaseManager(cloud)
        acq = BrokerAcquisition(WarmLeaseBroker(manager, tenant="stack"),
                                lazy=True, lease_manager=manager,
                                replacement_tenant="stack")
        core = self._core(cloud, plan, acq,
                          FleetCompletion(lease_manager=manager))
        report = core.run().report
        assert_work_conserved(plan, report)
        manager.shutdown()
        # every paid instance-hour in the ledger, none double-billed
        assert len(cloud.ledger.records) >= 1

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16),
           regime=st.sampled_from([None, "choppy", "eviction-storm"]),
           deadline=st.sampled_from([30.0, 7200.0]))
    def test_spot_ladder_stack(self, seed, regime, deadline):
        from repro.cloud.spot import SpotMarketBoard
        from repro.resilience import SpotFallbackPolicy, SpotLadder
        from repro.runner.core import ExecutionCore
        from repro.runner.spot import SpotCompletion, SpotProgress, SpotRunStats

        plan = make_plan(deadline=deadline)
        cloud = Cloud(seed=seed, chaos=FaultInjector(
            [get_spot_regime(regime).scenario(seed)], seed=seed)
            if regime else None)
        board = SpotMarketBoard.for_cloud(cloud)
        ladder = SpotLadder(board, policy=SpotFallbackPolicy(),
                            chaos=cloud.chaos)
        stats = SpotRunStats()
        broker = LadderBroker([SpotBroker(board, ladder, stats=stats),
                               OnDemandBroker()])
        acq = BrokerAcquisition(broker, replacement_tenant="spot")
        core = ExecutionCore(cloud, pos_workload(), plan,
                             acquisition=acq,
                             progress=SpotProgress(board, ladder,
                                                   acquisition=acq,
                                                   chaos=cloud.chaos,
                                                   stats=stats),
                             completion=SpotCompletion(stats=stats),
                             label="spot-ladder-stack",
                             record_kind="spot")
        assert_work_conserved(plan, core.run().report)
