"""Differential bit-equality: unified ExecutionCore vs the frozen seed runners.

Every public runner entry point is now a policy configuration of
:class:`repro.runner.core.ExecutionCore`.  These tests run each one and
its frozen pre-refactor copy (``tests/reference_runners.py``) on
identically-seeded clouds and assert *bit* equality — durations, boot
delays, makespans, misses, bills, ledger records, lease statistics,
replacement/crash events — across multiple seeds and chaos scenarios.
No tolerance anywhere: ``==`` on floats is the point.
"""

import numpy as np
import pytest

from tests.reference_runners import (
    execute_fault_tolerant_reference,
    execute_on_fleet_reference,
    execute_plan_reference,
    execute_with_monitoring_reference,
)
from repro.apps import PosCostProfile, PosTaggerApplication
from repro.chaos import FaultInjector, get_scenario
from repro.cloud import Cloud, FailureModel, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.fleet import LeaseManager
from repro.perfmodel.regression import fit_affine
from repro.resilience import DegradationPlanner, ResilientLauncher
from repro.runner import (
    DynamicPolicy,
    FaultPolicy,
    execute_fault_tolerant,
    execute_plan,
    execute_with_monitoring,
)
from repro.runner.core import ExecutionCore, StagePolicy

SEEDS = [1, 7, 42]
CHAOS = ["capacity-crunch", "flaky-boots"]


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def make_plan(deadline=30.0, scale=2e-3, strategy="uniform"):
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.327 + 0.865e-4 * x)
    cat = text_400k_like(scale=scale)
    return StaticProvisioner(model).plan(
        reshape(cat, None).units, deadline, strategy=strategy)


def make_straggly_plan(deadline=30.0, scale=2e-3):
    """A plan whose predictor underestimates ~2×, so every probe looks slow.

    Straggler detection compares observed probe throughput to the plan's
    implied throughput; an optimistic model makes the ratio land well
    under any threshold, deterministically exercising the replacement
    path on every seed.
    """
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.5 * (0.327 + 0.865e-4 * x))
    cat = text_400k_like(scale=scale)
    return StaticProvisioner(model).plan(
        reshape(cat, None).units, deadline, strategy="uniform")


def run_leased(manager, workload, plan, *, tenant="default", campaign=None):
    """Run ``plan`` on warm leases from ``manager``.

    The lease triple :meth:`StagePolicy.leased` builds, under the strategy
    tag and campaign name ``execute_on_fleet_reference`` uses, so the two
    compare report for report.
    """
    policy = StagePolicy.leased(
        manager, tenant=tenant,
        campaign=campaign or f"{plan.strategy}-campaign")
    return ExecutionCore(
        manager.cloud, workload, plan,
        acquisition=policy.acquisition, progress=policy.progress,
        completion=policy.completion,
        strategy=f"{plan.strategy}+fleet", label="leased").run().report


def chaos_cloud(seed, scenario, **kw):
    return Cloud(seed=seed,
                 chaos=FaultInjector([get_scenario(scenario)], seed=seed),
                 **kw)


def assert_reports_equal(a, b):
    """Bit-equality of every report field the runners produce."""
    assert a.strategy == b.strategy
    assert a.deadline == b.deadline
    assert a.rate == b.rate
    assert [r.instance_id for r in a.runs] == [r.instance_id for r in b.runs]
    assert [r.duration for r in a.runs] == [r.duration for r in b.runs]
    assert [r.boot_delay for r in a.runs] == [r.boot_delay for r in b.runs]
    assert [r.n_units for r in a.runs] == [r.n_units for r in b.runs]
    assert [r.volume for r in a.runs] == [r.volume for r in b.runs]
    assert [r.predicted for r in a.runs] == [r.predicted for r in b.runs]
    assert a.makespan == b.makespan
    assert a.n_missed == b.n_missed
    assert a.instance_hours == b.instance_hours
    assert a.cost == b.cost
    assert a.retrieval_seconds == b.retrieval_seconds
    assert [(f.bin_index, f.reason, f.n_units, f.volume, f.completed_units,
             f.elapsed, f.billed_hours, f.absorbed) for f in a.failures] == \
           [(f.bin_index, f.reason, f.n_units, f.volume, f.completed_units,
             f.elapsed, f.billed_hours, f.absorbed) for f in b.failures]


def assert_ledgers_equal(ca, cb):
    a = [(r.instance_id, r.instance_type, r.start, r.end, r.hours, r.cost)
         for r in ca.ledger.records]
    b = [(r.instance_id, r.instance_type, r.start, r.end, r.hours, r.cost)
         for r in cb.ledger.records]
    assert a == b
    assert ca.now == cb.now


class TestStaticRunner:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain(self, seed):
        plan, wl = make_plan(), pos_workload()
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        new = execute_plan(ca, wl, plan)
        ref = execute_plan_reference(cb, wl, plan)
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_measure_retrieval(self, seed):
        plan, wl = make_plan(), pos_workload()
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        new = execute_plan(ca, wl, plan, measure_retrieval=True)
        ref = execute_plan_reference(cb, wl, plan, measure_retrieval=True)
        assert new.retrieval_seconds is not None
        assert_reports_equal(new, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", CHAOS)
    def test_chaos_bare(self, seed, scenario):
        """No launcher: injected faults surface as failed bins, identically."""
        plan, wl = make_plan(), pos_workload()
        ca, cb = chaos_cloud(seed, scenario), chaos_cloud(seed, scenario)
        new = execute_plan(ca, wl, plan)
        ref = execute_plan_reference(cb, wl, plan)
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", CHAOS)
    def test_chaos_resilient_with_degradation(self, seed, scenario):
        plan, wl = make_plan(), pos_workload()
        ca, cb = chaos_cloud(seed, scenario), chaos_cloud(seed, scenario)
        new = execute_plan(ca, wl, plan,
                           launcher=ResilientLauncher(
                               ca, degradation=DegradationPlanner()))
        ref = execute_plan_reference(cb, wl, plan,
                                     launcher=ResilientLauncher(
                                         cb, degradation=DegradationPlanner()))
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)


class TestMonitoredRunner:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("replace_at", ["immediately", "hour-boundary"])
    def test_plain(self, seed, replace_at):
        plan, wl = make_straggly_plan(), pos_workload()
        pol = DynamicPolicy(slow_threshold=0.9, replace_at=replace_at)
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        new, ev_new = execute_with_monitoring(ca, wl, plan, policy=pol)
        ref, ev_ref = execute_with_monitoring_reference(cb, wl, plan, policy=pol)
        assert ev_new, "plan too healthy — no straggler replaced"
        assert_reports_equal(new, ref)
        assert [(e.bin_index, e.old_instance, e.new_instance, e.at_progress,
                 e.observed_ratio) for e in ev_new] == \
               [(e.bin_index, e.old_instance, e.new_instance, e.at_progress,
                 e.observed_ratio) for e in ev_ref]
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leased_replacements(self, seed):
        plan, wl = make_straggly_plan(), pos_workload()
        pol = DynamicPolicy(slow_threshold=0.9)
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        ma, mb = LeaseManager(ca), LeaseManager(cb)
        new, ev_new = execute_with_monitoring(ca, wl, plan, policy=pol,
                                              lease_manager=ma)
        ref, ev_ref = execute_with_monitoring_reference(
            cb, wl, plan, policy=pol, lease_manager=mb)
        assert ev_new, "plan too healthy — no straggler replaced"
        assert_reports_equal(new, ref)
        assert len(ev_new) == len(ev_ref)
        assert ma.stats() == mb.stats()
        ma.shutdown(), mb.shutdown()
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", CHAOS)
    def test_chaos_resilient(self, seed, scenario):
        plan, wl = make_straggly_plan(), pos_workload()
        pol = DynamicPolicy(slow_threshold=0.9)
        ca, cb = chaos_cloud(seed, scenario), chaos_cloud(seed, scenario)
        new, ev_new = execute_with_monitoring(
            ca, wl, plan, policy=pol, launcher=ResilientLauncher(ca))
        ref, ev_ref = execute_with_monitoring_reference(
            cb, wl, plan, policy=pol, launcher=ResilientLauncher(cb))
        assert_reports_equal(new, ref)
        assert len(ev_new) == len(ev_ref)
        assert_ledgers_equal(ca, cb)


class TestFaultTolerantRunner:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crashy_cloud(self, seed):
        plan, wl = make_plan(deadline=200.0), pos_workload()
        fm = FailureModel(mtbf_hours=0.05)
        pol = FaultPolicy(batch_units=10)
        ca = Cloud(seed=seed, failure_model=fm)
        cb = Cloud(seed=seed, failure_model=fm)
        new, ev_new = execute_fault_tolerant(ca, wl, plan, policy=pol)
        ref, ev_ref = execute_fault_tolerant_reference(cb, wl, plan, policy=pol)
        assert ev_new, "scenario too calm — no crashes exercised"
        assert_reports_equal(new, ref)
        assert [(e.bin_index, e.instance_id, e.at_elapsed, e.lost_batch_units)
                for e in ev_new] == \
               [(e.bin_index, e.instance_id, e.at_elapsed, e.lost_batch_units)
                for e in ev_ref]
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exhaustion_fail_bin(self, seed):
        plan, wl = make_plan(deadline=200.0), pos_workload()
        fm = FailureModel(mtbf_hours=0.002)
        pol = FaultPolicy(batch_units=5, max_crashes_per_bin=2)
        ca = Cloud(seed=seed, failure_model=fm)
        cb = Cloud(seed=seed, failure_model=fm)
        new, _ = execute_fault_tolerant(ca, wl, plan, policy=pol)
        ref, _ = execute_fault_tolerant_reference(cb, wl, plan, policy=pol)
        assert new.failures, "scenario too calm — no bin exhausted"
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    def test_exhaustion_raise_matches_legacy(self):
        plan, wl = make_plan(deadline=200.0), pos_workload()
        fm = FailureModel(mtbf_hours=0.002)
        pol = FaultPolicy(batch_units=5, max_crashes_per_bin=2,
                          on_exhaustion="raise")
        with pytest.raises(RuntimeError, match="the cloud is unusable"):
            execute_fault_tolerant(Cloud(seed=1, failure_model=fm), wl, plan,
                                   policy=pol)
        with pytest.raises(RuntimeError, match="the cloud is unusable"):
            execute_fault_tolerant_reference(
                Cloud(seed=1, failure_model=fm), wl, plan, policy=pol)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", CHAOS)
    def test_chaos_resilient(self, seed, scenario):
        plan, wl = make_plan(deadline=200.0), pos_workload()
        fm = FailureModel(mtbf_hours=0.05)
        pol = FaultPolicy(batch_units=10)
        ca = chaos_cloud(seed, scenario, failure_model=fm)
        cb = chaos_cloud(seed, scenario, failure_model=fm)
        new, ev_new = execute_fault_tolerant(
            ca, wl, plan, policy=pol, launcher=ResilientLauncher(ca))
        ref, ev_ref = execute_fault_tolerant_reference(
            cb, wl, plan, policy=pol, launcher=ResilientLauncher(cb))
        assert_reports_equal(new, ref)
        assert len(ev_new) == len(ev_ref)
        assert_ledgers_equal(ca, cb)


class TestFleetRunner:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_consecutive_campaigns_reuse_warm_hours(self, seed):
        """Two back-to-back campaigns: warm-pool hits must match exactly."""
        wl = pos_workload()
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        ma, mb = LeaseManager(ca), LeaseManager(cb)
        for strategy in ("uniform", "first-fit"):
            plan_a = make_plan(strategy=strategy)
            plan_b = make_plan(strategy=strategy)
            new = run_leased(ma, wl, plan_a, tenant="t")
            ref = execute_on_fleet_reference(mb, wl, plan_b, tenant="t")
            assert_reports_equal(new, ref)
            assert plan_a.lease_sources == plan_b.lease_sources
        assert ma.stats() == mb.stats()
        assert ma.hit_rate() == mb.hit_rate()
        ma.shutdown(), mb.shutdown()
        assert_ledgers_equal(ca, cb)


class TestCoreInvariants:
    def test_timeline_produced_for_every_runner(self):
        """The core's event loop feeds a timeline even for legacy paths."""
        from repro.runner import (
            ExecutionCore,
            FleetLaunchAcquisition,
            FleetCompletion,
            RunToCompletion,
        )

        plan, wl = make_plan(), pos_workload()
        core = ExecutionCore(Cloud(seed=3), wl, plan,
                             acquisition=FleetLaunchAcquisition(),
                             progress=RunToCompletion(),
                             completion=FleetCompletion())
        result = core.run()
        assert len(result.timeline.points) == len(result.report.runs)
        completed = [c for _, _, c in result.timeline.points]
        assert completed == sorted(completed)

    def test_engine_clock_matches_arithmetic_runner(self):
        plan, wl = make_plan(), pos_workload()
        ca, cb = Cloud(seed=11), Cloud(seed=11)
        execute_plan(ca, wl, plan)
        execute_plan_reference(cb, wl, plan)
        assert ca.engine.now == cb.engine.now
        assert ca.engine.events_fired >= len(plan.assignments)

    @pytest.mark.parametrize("runner", [execute_with_monitoring,
                                        execute_fault_tolerant])
    def test_wind_down_spares_instances_it_did_not_launch(self, runner):
        """A later run on the same cloud must not retire another manager's
        pooled instance: it stays RUNNING and its owner bills it."""
        from repro.cloud.instance import InstanceState

        cloud, wl = Cloud(seed=7), pos_workload()
        other = LeaseManager(cloud)
        run_leased(other, wl, make_plan(), tenant="a")
        pooled = [i for i in cloud.running_instances()
                  if other.owns(i.instance_id)]
        assert pooled
        runner(cloud, wl, make_plan())
        assert all(i.state is InstanceState.RUNNING for i in pooled)
        n_before = len(cloud.ledger.records)
        other.shutdown()
        billed = {r.instance_id for r in cloud.ledger.records[n_before:]}
        assert {i.instance_id for i in pooled} <= billed
        assert other.stats()["pool_evicted"] == 0
