"""Tests for the fault injector and the resilience policy layer."""

import pytest

from repro.chaos import (
    AzOutage,
    ChaosError,
    Degradation,
    FaultInjector,
    FaultScenario,
    LaunchRejected,
    SCENARIOS,
    get_scenario,
)
from repro.cloud import Cloud, FailureModel
from repro.cloud.instance import InstanceState
from repro.cloud.spot import SpotMarket
from repro.fleet import LeaseManager
from repro.resilience import (
    BreakerState,
    CapacityError,
    CircuitBreaker,
    DegradationPlanner,
    ResilientLauncher,
    RetryPolicy,
    hedged_transfer_time,
)
from repro.sim.random import RngStream
from repro.units import HOUR


class TestScenarios:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultScenario(name="")
        with pytest.raises(ValueError):
            FaultScenario(name="x", launch_reject_rates=(("*", 1.5),))
        with pytest.raises(ValueError):
            FaultScenario(name="x", boot_hang_prob=-0.1)
        with pytest.raises(ValueError):
            AzOutage("z", 10.0, 5.0)
        with pytest.raises(ValueError):
            Degradation(0.0, 10.0, factor=0.5)

    def test_reject_rate_composes_selectors_as_independent_events(self):
        s = FaultScenario(name="x", launch_reject_rates=(
            ("*", 0.5), ("us-east-1a", 0.5)))
        assert s.reject_rate("us-east-1a") == pytest.approx(0.75)
        assert s.reject_rate("us-east-1b") == pytest.approx(0.5)

    def test_get_scenario_unknown_raises_with_menu(self):
        with pytest.raises(KeyError, match="shipped:"):
            get_scenario("nope")

    def test_shipped_library_covers_every_fault_class(self):
        assert any(s.launch_reject_rates for s in SCENARIOS.values())
        assert any(s.boot_hang_prob for s in SCENARIOS.values())
        assert any(s.az_outages for s in SCENARIOS.values())
        assert any(s.ebs_degradations for s in SCENARIOS.values())
        assert any(s.s3_degradations for s in SCENARIOS.values())


class TestInjectorDeterminism:
    def _decisions(self, seed, n=200):
        inj = FaultInjector([get_scenario("capacity-crunch"),
                             get_scenario("flaky-boots")], seed=seed)
        return [inj.launch_decision("us-east-1a", 0.0, i).kind
                for i in range(n)]

    def test_same_seed_same_decisions(self):
        assert self._decisions(5) == self._decisions(5)

    def test_different_seed_different_decisions(self):
        assert self._decisions(5) != self._decisions(6)

    def test_composed_rates_are_roughly_honoured(self):
        kinds = self._decisions(3, n=500)
        rejects = kinds.count("reject") / 500
        # capacity-crunch rejects at 0.45; flaky-boots hangs 0.30 of grants
        assert 0.35 < rejects < 0.55
        hangs = kinds.count("hang") / max(1, 500 - kinds.count("reject"))
        assert 0.2 < hangs < 0.4

    def test_degradation_factors_compose_multiplicatively(self):
        s1 = FaultScenario(name="a", ebs_degradations=(
            Degradation(0.0, 100.0, factor=2.0),))
        s2 = FaultScenario(name="b", ebs_degradations=(
            Degradation(0.0, 100.0, factor=3.0),))
        inj = FaultInjector([s1, s2], seed=0)
        assert inj.ebs_factor(50.0, "us-east-1a") == pytest.approx(6.0)
        assert inj.ebs_factor(150.0, "us-east-1a") == pytest.approx(1.0)

    def test_outage_window_and_zone_down(self):
        inj = FaultInjector([get_scenario("az-blackout")], seed=0)
        assert inj.zone_down("us-east-1a", 0.0)
        assert inj.zone_down("us-east-1a", HOUR)
        assert not inj.zone_down("us-east-1a", 2 * HOUR)
        assert not inj.zone_down("us-east-1b", HOUR)


class TestChaosCloudIntegration:
    def test_rejected_launch_raises_and_is_logged(self):
        inj = FaultInjector([get_scenario("az-blackout")], seed=1)
        cloud = Cloud(seed=1, chaos=inj)
        with pytest.raises(LaunchRejected):
            cloud.launch_instance()
        assert inj.fault_counts().get("az-outage") == 1

    def test_granted_instances_identical_with_and_without_chaos(self):
        # Installing an injector must not perturb the hidden state of
        # instances the cloud does grant (RNG stream isolation).
        def factors(chaos):
            cloud = Cloud(seed=9, chaos=chaos)
            inst = cloud.launch_instance()
            return (inst.cpu_factor, inst.io_factor, inst.boot_delay)

        # flaky-boots grants this launch without a hang under seed 9
        inj = FaultInjector([FaultScenario(name="calm")], seed=9)
        assert factors(None) == factors(inj)

    def test_az_outage_kills_running_instances_on_advance(self):
        scenario = FaultScenario(name="later-outage", az_outages=(
            AzOutage("us-east-1a", 600.0, 1200.0),))
        cloud = Cloud(seed=2, chaos=FaultInjector([scenario], seed=2))
        inst = cloud.launch_instance()
        cloud.advance(900.0)
        assert inst.state is InstanceState.FAILED
        assert cloud.ledger.total_instance_hours >= 1

    def test_ebs_degradation_slows_service_io(self):
        from repro.apps import GrepApplication, GrepCostProfile
        from repro.cloud import ExecutionService, Workload
        from repro.core import reshape
        from repro.corpus import text_400k_like
        from repro.units import KB

        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        units = reshape(text_400k_like(scale=2e-3), 100 * KB).units

        def duration(chaos):
            cloud = Cloud(seed=4, chaos=chaos)
            inst = cloud.launch_instance()
            return ExecutionService(cloud).run(inst, units, wl,
                                               advance_clock=False)

        slow = FaultInjector([get_scenario("slow-ebs")], seed=4)
        assert duration(slow) > 1.5 * duration(None)


class TestSeedDeterminismUnderChaos:
    """Satellite: failures.py / spot.py draws vs scenario composition."""

    def test_failure_draws_unchanged_by_chaos_installation(self):
        def crash_times(chaos):
            cloud = Cloud(seed=6, chaos=chaos,
                          failure_model=FailureModel(mtbf_hours=1.0))
            return [cloud.launch_instance().time_to_failure for _ in range(5)]

        inj = FaultInjector([FaultScenario(name="calm"),
                             get_scenario("slow-ebs")], seed=6)
        assert crash_times(None) == crash_times(inj)

    def test_failure_draws_repeat_under_composed_scenarios(self):
        def run(seed):
            inj = FaultInjector([get_scenario("kitchen-sink")], seed=seed)
            cloud = Cloud(seed=seed, chaos=inj,
                          failure_model=FailureModel(mtbf_hours=0.5))
            out = []
            for _ in range(12):
                try:
                    out.append(round(cloud.launch_instance().time_to_failure, 6))
                except ChaosError as e:
                    out.append(type(e).__name__)
            return out

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_spot_prices_independent_of_chaos(self):
        # Spot draws come from their own named stream; a chaos injector
        # seeded from the same campaign seed must not perturb them.
        p1 = SpotMarket(rng=RngStream(3, "spot")).prices(24)
        FaultInjector([get_scenario("kitchen-sink")], seed=3)  # same seed
        inj = FaultInjector([get_scenario("capacity-crunch")], seed=3)
        for i in range(50):
            inj.launch_decision("us-east-1a", 0.0, i)
        p2 = SpotMarket(rng=RngStream(3, "spot")).prices(24)
        assert p1 == p2


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter="chaotic")
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_delays_deterministic_and_budget_capped(self):
        pol = RetryPolicy(max_attempts=10, budget_seconds=50.0)
        d1 = list(pol.delays(RngStream(1, "t")))
        d2 = list(pol.delays(RngStream(1, "t")))
        assert d1 == d2
        assert sum(d1) <= 50.0 + 1e-9
        assert len(d1) <= 9

    def test_no_jitter_is_pure_exponential(self):
        pol = RetryPolicy(jitter="none", base_delay=1.0, multiplier=2.0,
                          max_delay=8.0, max_attempts=6,
                          budget_seconds=1e9)
        assert list(pol.delays(RngStream(0))) == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_hedged_transfer_calm_weather_costs_nothing_extra(self):
        cloud = Cloud(seed=5)
        rng = RngStream(5, "h")
        plain = [cloud.s3.transfer_time(10_000,
                                        rng.fork(str(i)).fork("hedge.0"))
                 for i in range(200)]
        hedged = [hedged_transfer_time(cloud.s3, 10_000, rng.fork(str(i)))
                  for i in range(200)]
        # deferred hedge: the backup only fires past nominal p95, so each
        # draw is capped but never inflated relative to the unhedged draw
        assert all(h <= p + 1e-12 for h, p in zip(hedged, plain))
        assert sum(hedged) <= sum(plain)

    def test_hedged_transfer_beats_brownout_tail(self):
        inj = FaultInjector([get_scenario("s3-brownout")], seed=5)
        cloud = Cloud(seed=5, chaos=inj)
        rng = RngStream(5, "h")
        plain = sum(cloud.s3.transfer_time(10_000,
                                           rng.fork(str(i)).fork("hedge.0"))
                    for i in range(300))
        hedged = sum(hedged_transfer_time(cloud.s3, 10_000, rng.fork(str(i)))
                     for i in range(300))
        assert hedged < 0.8 * plain


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        b = CircuitBreaker("z", failure_threshold=3, cooldown=100.0)
        for t in (1.0, 2.0):
            b.record_failure(t)
            assert b.allows(t)
        b.record_failure(3.0)
        assert b.state is BreakerState.OPEN
        assert not b.allows(50.0)
        assert b.allows(103.0)                  # cooldown elapsed
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(104.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker("z", failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        assert b.allows(11.0)
        b.record_failure(12.0)
        assert b.state is BreakerState.OPEN
        assert not b.allows(13.0)

    def test_transitions_are_recorded(self):
        b = CircuitBreaker("z", failure_threshold=1, cooldown=10.0)
        b.record_failure(5.0)
        assert b.transitions == [(5.0, BreakerState.OPEN)]


class TestResilientLauncher:
    def test_steers_around_dead_zone(self):
        inj = FaultInjector([get_scenario("az-blackout")], seed=3)
        cloud = Cloud(seed=3, chaos=inj)
        launcher = ResilientLauncher(cloud)
        acq = launcher.launch()
        assert acq.zone != "us-east-1a"
        assert acq.attempts > 1
        assert any("az-outage" in f for f in acq.faults)
        # the dead zone's breaker opened, so the next launch goes
        # elsewhere on the first try
        acq2 = launcher.launch()
        assert acq2.zone != "us-east-1a"

    def test_hedges_hung_boots(self):
        scenario = FaultScenario(name="hangs", boot_hang_prob=0.95,
                                 boot_hang_seconds=2 * HOUR)
        cloud = Cloud(seed=3, chaos=FaultInjector([scenario], seed=3))
        launcher = ResilientLauncher(
            cloud, max_hedges=50,
            retry=RetryPolicy(max_attempts=60, budget_seconds=1e9))
        acq = launcher.launch()
        assert acq.hedges >= 1
        assert acq.instance.boot_delay <= launcher.boot_timeout
        assert acq.wait_seconds >= launcher.boot_timeout

    def test_exhaustion_raises_capacity_error(self):
        scenario = FaultScenario(name="wall",
                                 launch_reject_rates=(("*", 0.999),))
        cloud = Cloud(seed=1, chaos=FaultInjector([scenario], seed=1))
        launcher = ResilientLauncher(
            cloud, retry=RetryPolicy(max_attempts=3, budget_seconds=30.0))
        with pytest.raises(CapacityError):
            launcher.launch()
        assert launcher.stats()["absorbed_faults"] >= 3

    def test_deterministic_under_seed(self):
        def run():
            inj = FaultInjector([get_scenario("capacity-crunch")], seed=4)
            cloud = Cloud(seed=4, chaos=inj)
            launcher = ResilientLauncher(cloud)
            acq = launcher.launch()
            return (acq.zone, acq.attempts, round(acq.wait_seconds, 6),
                    acq.faults)

        assert run() == run()


class TestDegradationPlanner:
    def _units(self, sizes):
        from tests.catalogues import make_catalogue

        return make_catalogue(sizes, pattern="u%d")

    def test_orphans_go_to_least_loaded_bins(self):
        planner = DegradationPlanner()
        survivors = [self._units([100]), self._units([500])]
        orphans = self._units([300, 200])
        res = planner.replan(survivors, orphans)
        assert res.moved_units == 2
        assert res.moved_volume == 500
        merged_volumes = [sum(u.size for u in b) for b in res.assignments]
        assert max(merged_volumes) - min(merged_volumes) <= 300

    def test_no_survivors_raises(self):
        with pytest.raises(ValueError):
            DegradationPlanner().replan([], self._units([1]))

    def test_advisory_deadline_uses_predictor(self):
        class Model:
            def predict(self, v):
                return v / 10.0

        planner = DegradationPlanner(Model())
        res = planner.replan([self._units([1000])], self._units([500]))
        assert res.advisory_deadline is not None
        assert res.advisory_deadline >= 150.0  # predict(1500)=150, a >= 0
        assert planner.replans == [res]


class TestLeaseFaultSurfacing:
    def test_release_of_failed_instance_sets_outcome_and_skips_pool(self):
        cloud = Cloud(seed=2)
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=100.0, at=0.0)
        cloud.advance(lease.ready_at + 50.0 - cloud.now)
        cloud.fail_instance(lease.instance)
        mgr.release(lease, cloud.now)
        assert lease.outcome == "instance-failed"
        assert len(mgr.pool) == 0

    def test_evict_dead_zones_drops_outage_zone_instances(self):
        scenario = FaultScenario(name="later-outage", az_outages=(
            AzOutage("us-east-1a", 600.0, 7200.0),))
        cloud = Cloud(seed=2, chaos=FaultInjector([scenario], seed=2))
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=100.0, at=0.0)
        cloud.engine.run(until=500.0)
        mgr.release(lease, 500.0)
        assert len(mgr.pool) == 1
        assert mgr.evict_dead_zones(700.0) == 1
        assert len(mgr.pool) == 0
        assert mgr.pool_evicted == 1
        assert lease.instance.state is InstanceState.FAILED

    def test_cold_boot_fault_falls_back_to_pooled_extension(self):
        cloud = Cloud(seed=2)
        mgr = LeaseManager(cloud, max_instances=2)
        l1 = mgr.acquire("t", est_seconds=50.0, at=0.0)
        cloud.advance(l1.ready_at + 10.0 - cloud.now)
        mgr.release(l1, cloud.now)
        # every further cold boot is refused
        cloud.chaos = FaultInjector(
            [FaultScenario(name="wall", launch_reject_rates=(("*", 0.999),))],
            seed=2)
        l2 = mgr.acquire("t", est_seconds=9 * HOUR, at=cloud.now)
        assert l2.outcome == "launch-fault-absorbed"
        assert l2.extension
        assert mgr.launch_faults == 1
        assert mgr.stats()["launch_faults"] == 1


class TestRunnersUnderChaos:
    def _plan(self):
        import numpy as np

        from repro.core import StaticProvisioner, reshape
        from repro.corpus import text_400k_like
        from repro.perfmodel.regression import fit_affine

        x = np.array([1e5, 1e6, 5e6])
        model = fit_affine(x, 0.327 + 0.865e-4 * x)
        units = reshape(text_400k_like(scale=2e-3), None).units
        # deadline tight enough to spread the work over several bins, so
        # degradation replans have survivors to re-home orphans onto
        return StaticProvisioner(model).plan(units, 30.0, strategy="uniform")

    def _workload(self):
        from repro.apps import PosCostProfile, PosTaggerApplication
        from repro.cloud import Workload

        return Workload("postag", PosTaggerApplication(), PosCostProfile())

    def test_execute_plan_reports_failed_bins_without_launcher(self):
        from repro.runner import execute_plan

        inj = FaultInjector([get_scenario("az-blackout")], seed=5)
        cloud = Cloud(seed=5, chaos=inj)
        report = execute_plan(cloud, self._workload(), self._plan())
        assert report.runs == []
        assert report.n_failed == len(report.failures) > 0
        assert not report.met_deadline

    def test_execute_plan_with_launcher_absorbs_faults(self):
        from repro.runner import execute_plan

        inj = FaultInjector([get_scenario("az-blackout")], seed=5)
        cloud = Cloud(seed=5, chaos=inj)
        launcher = ResilientLauncher(cloud)
        report = execute_plan(cloud, self._workload(), self._plan(),
                              launcher=launcher)
        assert report.n_failed == 0
        assert len(report.runs) > 0
        assert launcher.stats()["absorbed_faults"] >= 1

    @pytest.mark.parametrize("seed", [7, 3])
    @pytest.mark.parametrize("runner", ["execute_plan",
                                        "execute_with_monitoring",
                                        "execute_fault_tolerant"])
    def test_degradation_replan_absorbs_orphaned_bins(self, runner, seed):
        import repro.runner

        # roughly half of all launches refused, no retries left to absorb;
        # seeds 7 and 3 deterministically yield a partial failure (some
        # bins granted, some refused) so the replan has survivors to use
        scenario = FaultScenario(name="half",
                                 launch_reject_rates=(("*", 0.6),))
        inj = FaultInjector([scenario], seed=seed)
        cloud = Cloud(seed=seed, chaos=inj)
        launcher = ResilientLauncher(
            cloud, retry=RetryPolicy(max_attempts=1),
            degradation=DegradationPlanner())
        plan = self._plan()
        report = getattr(repro.runner, runner)(
            cloud, self._workload(), plan, launcher=launcher)
        if isinstance(report, tuple):   # (report, replacement/crash events)
            report = report[0]
        assert report.failures and report.runs
        assert all(f.absorbed for f in report.failures)
        assert report.n_failed == 0
        # absorbed work really runs: total volume is conserved
        plan_volume = sum(u.size for b in plan.assignments for u in b)
        assert sum(r.volume for r in report.runs) == plan_volume

    def test_dynamic_runner_keeps_straggler_when_no_replacement(self):
        from repro.runner import DynamicPolicy, execute_with_monitoring

        scenario = FaultScenario(name="wall-after",
                                 launch_reject_rates=(("*", 0.999),))
        cloud = Cloud(seed=5)
        report_clean, _ = execute_with_monitoring(
            cloud, self._workload(), self._plan(),
            policy=DynamicPolicy(slow_threshold=0.99,
                                 replacement_penalty=30.0))
        # same run, but every replacement launch is refused
        cloud2 = Cloud(seed=5, chaos=FaultInjector([scenario], seed=5))
        # initial launches must survive: disable chaos during fleet boot
        cloud2.chaos = None
        from repro.resilience.launch import launch_fleet  # noqa: F401

        report, events = execute_with_monitoring(
            cloud2, self._workload(), self._plan(),
            policy=DynamicPolicy(slow_threshold=0.99,
                                 replacement_penalty=30.0))
        assert sum(r.volume for r in report.runs) == \
            sum(r.volume for r in report_clean.runs)
