"""Differential bit-equality: broker stacks vs the frozen acquisition policies.

The :mod:`repro.capacity` layer rewrote ``FleetLaunchAcquisition``,
``LeaseAcquisition`` and ``SpotAcquisition`` as thin broker
configurations of one :class:`~repro.capacity.BrokerAcquisition`.  These
tests wire the frozen pre-broker policies
(``tests/reference_acquisitions.py``) into the same
:class:`~repro.runner.core.ExecutionCore` and assert *bit* equality —
reports, cloud ledgers, lease statistics, spot statistics, engine clocks
— against the broker-routed public entry points, across seeds ×
scenarios (clean, capacity-crunch chaos, spot interruption regimes).
No tolerance anywhere: ``==`` on floats is the point.
"""

import pytest

from tests.reference_acquisitions import (
    ReferenceFleetLaunchAcquisition,
    ReferenceLeaseAcquisition,
    execute_plan_spot_reference,
)
from tests.test_runner_core_differential import (
    assert_ledgers_equal,
    assert_reports_equal,
    chaos_cloud,
    make_plan,
    pos_workload,
)
from repro.capacity import (
    BrokerAcquisition,
    LadderBroker,
    OnDemandBroker,
    SpotBroker,
)
from repro.chaos import FaultInjector, get_spot_regime
from repro.cloud import Cloud, FailureModel
from repro.cloud.spot import SpotMarketBoard
from repro.experiments.exp_chaos import _campaign
from repro.fleet import LeaseManager
from repro.resilience import ResilientLauncher, SpotFallbackPolicy, SpotLadder
from repro.runner import (
    FaultPolicy,
    execute_fault_tolerant,
    execute_on_fleet,
    execute_plan,
    execute_plan_spot,
)
from repro.runner.core import (
    CrashProgress,
    ExecutionCore,
    FleetCompletion,
    RunToCompletion,
)
from repro.runner.spot import SpotCompletion, SpotProgress, SpotRunStats

SEEDS = [1, 7, 42]
REGIMES = [None, "calm", "choppy", "eviction-storm"]


def spot_cloud(seed, regime):
    """A cloud with one spot-regime scenario replayed (or clean)."""
    if regime is None:
        return Cloud(seed=seed)
    scenario = get_spot_regime(regime).scenario(seed)
    return Cloud(seed=seed, chaos=FaultInjector([scenario], seed=seed))


def assert_spot_equal(a, b):
    """Bit-equality of two SpotRunResults: report, stats, timeline."""
    assert_reports_equal(a.report, b.report)
    assert a.stats.summary() == b.stats.summary()
    assert a.stats.total_cost == b.stats.total_cost
    assert a.timeline.points == b.timeline.points


class TestFleetBrokerDifferential:
    """execute_plan's broker stack vs the frozen fleet acquisition."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", [None, "capacity-crunch"])
    def test_plain(self, seed, scenario):
        plan, wl = make_plan(), pos_workload()
        ca = Cloud(seed=seed) if scenario is None else chaos_cloud(seed,
                                                                   scenario)
        cb = Cloud(seed=seed) if scenario is None else chaos_cloud(seed,
                                                                   scenario)
        new = execute_plan(ca, wl, plan)
        ref = ExecutionCore(
            cb, wl, plan,
            acquisition=ReferenceFleetLaunchAcquisition(),
            progress=RunToCompletion(),
            completion=FleetCompletion(),
            label="execute_plan").run().report
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_resilient(self, seed):
        plan, wl = make_plan(), pos_workload()
        ca = chaos_cloud(seed, "capacity-crunch")
        cb = chaos_cloud(seed, "capacity-crunch")
        new = execute_plan(ca, wl, plan, launcher=ResilientLauncher(ca))
        ref = ExecutionCore(
            cb, wl, plan,
            acquisition=ReferenceFleetLaunchAcquisition(
                launcher=ResilientLauncher(cb)),
            progress=RunToCompletion(),
            completion=FleetCompletion(),
            label="execute_plan").run().report
        assert_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_tolerant_replacements(self, seed):
        plan, wl = make_plan(deadline=200.0), pos_workload()
        fm = FailureModel(mtbf_hours=0.05)
        pol = FaultPolicy(batch_units=10)
        ca = Cloud(seed=seed, failure_model=fm)
        cb = Cloud(seed=seed, failure_model=fm)
        new_report, new_events = execute_fault_tolerant(ca, wl, plan,
                                                        policy=pol)
        core = ExecutionCore(
            cb, wl, plan,
            acquisition=ReferenceFleetLaunchAcquisition(
                replacement_tenant="fault-tolerant"),
            progress=CrashProgress(pol),
            completion=FleetCompletion(),
            strategy=f"{plan.strategy}+fault-tolerant",
            label="execute_fault_tolerant")
        result = core.run()
        assert new_events, "scenario too calm — no crashes exercised"
        assert_reports_equal(new_report, result.report)
        assert [(e.bin_index, e.instance_id, e.at_elapsed, e.lost_batch_units)
                for e in new_events] == \
               [(e.bin_index, e.instance_id, e.at_elapsed, e.lost_batch_units)
                for e in result.events]
        assert_ledgers_equal(ca, cb)


class TestLeaseBrokerDifferential:
    """execute_on_fleet's warm-lease broker vs the frozen lazy policy."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leased(self, seed):
        plan, wl = make_plan(), pos_workload()
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        ma, mb = LeaseManager(ca), LeaseManager(cb)
        new = execute_on_fleet(ma, wl, plan, tenant="t",
                               campaign="uniform-campaign")
        ref = ExecutionCore(
            cb, wl, plan,
            acquisition=ReferenceLeaseAcquisition(mb, tenant="t",
                                                  campaign="uniform-campaign"),
            progress=RunToCompletion(),
            completion=FleetCompletion(lease_manager=mb),
            strategy=f"{plan.strategy}+fleet",
            label="execute_on_fleet").run().report
        assert_reports_equal(new, ref)
        assert ma.stats() == mb.stats()
        ma.shutdown()
        mb.shutdown()
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leased_chaos_identical(self, seed):
        """Under capacity-crunch a cold boot can be refused with no pooled
        fallback; whether the campaign completes or dies with a LeaseError
        is seed-dependent, but the broker path and the frozen policy must
        land on the same outcome either way."""
        from repro.fleet.lease import LeaseError

        plan, wl = make_plan(), pos_workload()
        ca = chaos_cloud(seed, "capacity-crunch")
        cb = chaos_cloud(seed, "capacity-crunch")
        ma, mb = LeaseManager(ca), LeaseManager(cb)
        new = ref = err_new = err_ref = None
        try:
            new = execute_on_fleet(ma, wl, plan, tenant="t",
                                   campaign="uniform-campaign")
        except LeaseError as e:
            err_new = str(e)
        try:
            ref = ExecutionCore(
                cb, wl, plan,
                acquisition=ReferenceLeaseAcquisition(
                    mb, tenant="t", campaign="uniform-campaign"),
                progress=RunToCompletion(),
                completion=FleetCompletion(lease_manager=mb),
                strategy=f"{plan.strategy}+fleet",
                label="execute_on_fleet").run().report
        except LeaseError as e:
            err_ref = str(e)
        assert err_new == err_ref
        if new is not None:
            assert ref is not None
            assert_reports_equal(new, ref)
        assert ma.stats() == mb.stats()
        assert ca.now == cb.now


class TestSpotBrokerDifferential:
    """execute_plan_spot's SpotBroker stack vs the frozen spot policies.

    The campaign plan comes from the chaos experiment (real 400k-file
    scale), so the regimes actually land interruptions and walk the
    ladder's rungs — rebids, retypes, queues and mid-run escalations all
    happen inside these runs.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_regimes(self, seed, regime):
        wl, plan = _campaign(seed)
        ca, cb = spot_cloud(seed, regime), spot_cloud(seed, regime)
        new = execute_plan_spot(ca, wl, plan)
        ref = execute_plan_spot_reference(cb, wl, plan)
        assert_spot_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_launch_chaos(self, seed):
        """Acquisition-time escalation/refusal paths under launch chaos."""
        plan, wl = make_plan(deadline=7200.0), pos_workload()
        ca = chaos_cloud(seed, "capacity-crunch")
        cb = chaos_cloud(seed, "capacity-crunch")
        new = execute_plan_spot(ca, wl, plan)
        ref = execute_plan_spot_reference(cb, wl, plan)
        assert_spot_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_escalation_refusal_path(self, seed):
        """escalate=False: refused bins fail identically via the broker."""
        wl, plan = _campaign(seed)
        policy = SpotFallbackPolicy(escalate=False, checkpoint=False,
                                    ladder=False)
        ca = spot_cloud(seed, "eviction-storm")
        cb = spot_cloud(seed, "eviction-storm")
        new = execute_plan_spot(ca, wl, plan, policy=policy)
        ref = execute_plan_spot_reference(cb, wl, plan, policy=policy)
        assert_spot_equal(new, ref)
        assert_ledgers_equal(ca, cb)


class TestSharedUnitsAccounting:
    """Pin the deduplicated restart/billing helpers at both call sites.

    ``resume_time`` and ``ceil_hour_cost`` replaced hand-rolled copies in
    ``repro.runner.spot`` and ``repro.resilience.launch``; these checks
    fail if either module regrows a local variant or the shared formulas
    drift from the historical bit-exact arithmetic.
    """

    def test_call_sites_share_the_units_helpers(self):
        import repro.resilience.launch as launch
        import repro.runner.spot as spot
        import repro.units as units

        assert spot.resume_time is units.resume_time
        assert spot.ceil_hour_cost is units.ceil_hour_cost
        assert launch.resume_time is units.resume_time

    def test_resume_time_matches_historical_formulas(self):
        from repro.units import resume_time

        # runner.spot's old inline restart: max(resume_at, ready) + overhead
        for resume_at, ready, overhead in [(10.0, 3.0, 30.0),
                                           (3.0, 10.0, 30.0),
                                           (7.25, 7.25, 0.0)]:
            t = max(resume_at, ready)
            t += overhead
            assert resume_time(resume_at, ready, overhead) == t
        # resilience.launch's old inline mark_running: max(now, ready_at)
        for now, ready_at in [(100.0, 42.0), (42.0, 100.0), (5.5, 5.5)]:
            assert resume_time(now, ready_at) == max(now, ready_at)

    def test_ceil_hour_cost_matches_historical_formula(self):
        import math

        from repro.units import HOUR, billed_hours, ceil_hour_cost

        rate = 0.085
        for seconds in [1.0, HOUR, HOUR + 1e-9, 3.7 * HOUR, 0.0]:
            assert ceil_hour_cost(seconds, rate) == billed_hours(seconds) * rate
            if seconds > 0:
                assert billed_hours(seconds) == math.ceil(seconds / HOUR)


def assert_dag_reports_equal(a, b):
    """Bit-equality of two DagReports, stage by stage."""
    assert a.subdeadlines == b.subdeadlines
    assert (a.started_at, a.finished_at) == (b.started_at, b.finished_at)
    assert a.compute_cost_usd == b.compute_cost_usd
    assert a.transfer_cost == b.transfer_cost
    assert sorted(a.stages) == sorted(b.stages)
    for name, sa in a.stages.items():
        sb = b.stages[name]
        assert (sa.ready_at, sa.work_start, sa.stage_end,
                sa.available_at) == \
               (sb.ready_at, sb.work_start, sb.stage_end, sb.available_at)
        assert_reports_equal(sa.report, sb.report)


class TestDagBrokerDifferential:
    """DAG stage policies built from frozen acquisitions vs the broker path.

    Every stage of the graph gets an explicit StagePolicy wired from the
    frozen pre-broker policy classes; the scheduler run must be
    bit-identical to the plain ``policy="fleet"`` / ``policy="leased"``
    run whose stages go through BrokerAcquisition.
    """

    DEADLINE = 6 * 3600.0
    SCALE = 2e-4

    def _catalogue(self, seed):
        from repro.corpus import html_18mil_like
        return html_18mil_like(scale=self.SCALE, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", ["linear", "fanout"])
    def test_fleet_policy(self, seed, shape):
        from repro.dag import S3Backend
        from repro.dag.scheduler import DagScheduler
        from repro.experiments.exp_dag import _graph
        from repro.runner.core import StagePolicy

        ga, gb = _graph(shape), _graph(shape)
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        new = DagScheduler(ca, ga, self._catalogue(seed), self.DEADLINE,
                           backend=S3Backend(), policy="fleet").run()
        overrides = {
            s.name: StagePolicy(
                acquisition=ReferenceFleetLaunchAcquisition(),
                progress=RunToCompletion(),
                completion=FleetCompletion())
            for s in gb.stages()}
        ref = DagScheduler(cb, gb, self._catalogue(seed), self.DEADLINE,
                           backend=S3Backend(), policy="fleet",
                           stage_policies=overrides).run()
        assert_dag_reports_equal(new, ref)
        assert_ledgers_equal(ca, cb)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leased_policy(self, seed):
        from repro.dag import S3Backend
        from repro.dag.scheduler import DagScheduler
        from repro.experiments.exp_dag import _graph
        from repro.runner.core import StagePolicy

        ga, gb = _graph("fanout"), _graph("fanout")
        ca, cb = Cloud(seed=seed), Cloud(seed=seed)
        ma, mb = LeaseManager(ca, tag="dag"), LeaseManager(cb, tag="dag")
        new = DagScheduler(ca, ga, self._catalogue(seed), self.DEADLINE,
                           backend=S3Backend(), policy="leased",
                           lease_manager=ma).run()
        overrides = {
            s.name: StagePolicy(
                acquisition=ReferenceLeaseAcquisition(
                    mb, tenant=s.name, campaign=f"stage:{s.name}"),
                progress=RunToCompletion(),
                completion=FleetCompletion(lease_manager=mb))
            for s in gb.stages()}
        ref = DagScheduler(cb, gb, self._catalogue(seed), self.DEADLINE,
                           backend=S3Backend(), policy="leased",
                           lease_manager=mb, stage_policies=overrides).run()
        assert_dag_reports_equal(new, ref)
        assert ma.stats() == mb.stats()
        ma.shutdown()
        mb.shutdown()
        assert_ledgers_equal(ca, cb)


class TestLadderBrokerEquivalence:
    """LadderBroker([spot, on-demand]) ≡ execute_plan_spot bit-for-bit.

    When the spot rung never refuses outright (no launch chaos), the
    on-demand rung of the ladder is dead code — so chaining it must
    change nothing: same report, same bill, same clock.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("regime", [None, "eviction-storm"])
    def test_single_stage_billing(self, seed, regime):
        wl, plan = _campaign(seed)
        ca, cb = spot_cloud(seed, regime), spot_cloud(seed, regime)

        new = execute_plan_spot(ca, wl, plan)

        board = SpotMarketBoard.for_cloud(cb)
        ladder = SpotLadder(board, policy=SpotFallbackPolicy(),
                            chaos=cb.chaos)
        stats = SpotRunStats()
        broker = LadderBroker([SpotBroker(board, ladder, stats=stats),
                               OnDemandBroker()])
        acq = BrokerAcquisition(broker, replacement_tenant="spot")
        core = ExecutionCore(
            cb, wl, plan,
            acquisition=acq,
            progress=SpotProgress(board, ladder, acquisition=acq,
                                  chaos=cb.chaos, stats=stats),
            completion=SpotCompletion(stats=stats),
            label="execute_plan_spot",
            record_kind="spot")
        result = core.run()

        assert_reports_equal(new.report, result.report)
        assert new.stats.summary() == stats.summary()
        assert_ledgers_equal(ca, cb)
