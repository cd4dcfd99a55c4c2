"""Tests for ``repro.fleet`` — leases, warm pool, admission, scheduling.

Covers the control plane's contracts: warm-pool best-fit on the packing
index, lease lifecycle errors, explicit (never silent) admission
decisions, exact per-tenant cost attribution, and the headline economics
— a shared fleet bills less than isolated runs of the same campaigns.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_runner_core_differential import run_leased
from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.fleet import (
    ADMITTED,
    DEFERRED,
    REJECTED,
    AdmissionController,
    FleetRequest,
    FleetScheduler,
    LeaseError,
    LeaseManager,
    Tenant,
    TenantRegistry,
    WarmPool,
)
from repro.perfmodel.regression import fit_affine
from repro.runner import execute_plan
from repro.units import HOUR, KB, MB


def grep_workload():
    return Workload("grep", GrepApplication(), GrepCostProfile())


def make_plan(deadline=3600.0, scale=0.02, chunk=100 * KB, strategy="uniform"):
    model = fit_affine(np.array([1 * MB, 5 * MB, 10 * MB]),
                       np.array([35.0, 160.0, 310.0]))
    cat = text_400k_like(scale=scale)
    units = list(reshape(cat, chunk).units)
    return StaticProvisioner(model).plan(units, deadline, strategy=strategy)


class FixedBoot:
    """Deterministic quality factor so throughput never varies."""

    def draw_factor(self, rng):
        return 1.0


def make_cloud(seed=7):
    return Cloud(seed=seed, heterogeneity=FixedBoot())


# ---------------------------------------------------------------------------
# WarmPool


class TestWarmPool:
    def mk_inst(self, cloud):
        inst = cloud.launch_instance(wait=False)
        inst.mark_running(inst.ready_at)
        return inst

    def test_best_fit_prefers_smallest_remainder(self):
        cloud = make_cloud()
        pool = WarmPool()
        small = self.mk_inst(cloud)
        big = self.mk_inst(cloud)
        pool.put(small, available_at=0.0, boundary=600.0)    # 600 s left
        pool.put(big, available_at=0.0, boundary=3600.0)     # 3600 s left
        entry, eff = pool.take(need_seconds=500.0, at=0.0)
        assert entry.instance is small
        assert eff == 0.0
        assert len(pool) == 1

    def test_take_returns_none_when_nothing_fits(self):
        pool = WarmPool()
        cloud = make_cloud()
        pool.put(self.mk_inst(cloud), available_at=0.0, boundary=100.0)
        assert pool.take(need_seconds=500.0, at=0.0) is None
        assert len(pool) == 1  # unfit entries stay pooled

    def test_stale_keys_are_rekeyed_lazily(self):
        """An entry released long before ``at`` has a shrunken usable
        window; take() must re-key it rather than hand out expired time."""
        pool = WarmPool()
        cloud = make_cloud()
        inst = self.mk_inst(cloud)
        pool.put(inst, available_at=0.0, boundary=3600.0)
        # At t=3400 only 200 s remain although the key says 3600.
        assert pool.take(need_seconds=1000.0, at=3400.0) is None
        taken = pool.take(need_seconds=100.0, at=3400.0)
        assert taken is not None and taken[0].instance is inst
        assert taken[1] == 3400.0

    def test_take_earliest_ignores_remainder(self):
        pool = WarmPool()
        cloud = make_cloud()
        first = self.mk_inst(cloud)
        later = self.mk_inst(cloud)
        pool.put(later, available_at=50.0, boundary=3600.0)
        pool.put(first, available_at=10.0, boundary=600.0)
        entry, eff = pool.take_earliest(at=0.0)
        assert entry.instance is first
        assert eff == 10.0


# ---------------------------------------------------------------------------
# LeaseManager


class TestLeaseManager:
    def test_cold_lease_pays_boot_delay(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=100.0, at=0.0)
        assert lease.source == "cold"
        assert lease.ready_at == pytest.approx(lease.instance.boot_delay)
        assert mgr.stats()["pool_misses"] == 1

    def test_warm_reuse_skips_boot_and_extra_hour(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        a = mgr.acquire("t", est_seconds=100.0, at=0.0)
        mgr.release(a, a.ready_at + 100.0)
        b = mgr.acquire("t", est_seconds=100.0, at=a.ready_at + 100.0)
        assert b.source == "warm"
        assert b.instance is a.instance
        assert b.ready_at == a.ready_at + 100.0   # no boot delay
        mgr.release(b, b.ready_at + 100.0)
        cloud.advance(HOUR + 600.0)
        mgr.shutdown()
        # Both leases fit in the instance's first paid hour.
        assert sum(r.hours for r in mgr.records) == 1

    def test_release_before_ready_and_double_release_raise(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=10.0, at=0.0)
        with pytest.raises(LeaseError):
            mgr.release(lease, lease.ready_at - 1.0)
        mgr.release(lease, lease.ready_at + 1.0)
        with pytest.raises(LeaseError):
            mgr.release(lease, lease.ready_at + 2.0)

    def test_shutdown_refuses_active_leases(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        mgr.acquire("t", est_seconds=10.0, at=0.0)
        with pytest.raises(LeaseError):
            mgr.shutdown()

    def test_capacity_cap_falls_back_to_extension(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud, max_instances=1)
        a = mgr.acquire("t", est_seconds=100.0, at=0.0)
        mgr.release(a, a.ready_at + 100.0)
        # Ask for more than the remaining paid hour: pool can't fit it,
        # no boot slot left → extension into a new paid hour.
        b = mgr.acquire("t", est_seconds=2 * HOUR, at=a.ready_at + 100.0)
        assert b.source == "extension"
        assert b.instance is a.instance
        assert mgr.stats()["pool_extensions"] == 1

    def test_capacity_cap_without_pool_raises(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud, max_instances=1)
        mgr.acquire("t", est_seconds=10.0, at=0.0)
        with pytest.raises(LeaseError):
            mgr.acquire("t", est_seconds=10.0, at=0.0)

    def test_idle_tail_is_never_billed(self):
        """Retirement is retroactive at last use: pooling an instance for
        hours after its final lease must not add billed hours."""
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=100.0, at=0.0)
        end = lease.ready_at + 100.0
        mgr.release(lease, end)
        cloud.advance(10 * HOUR)   # fleet sits idle for 10 hours
        mgr.shutdown()
        assert len(mgr.records) == 1
        assert mgr.records[0].hours == 1
        assert mgr.records[0].duration == pytest.approx(100.0)  # run→last use

    def test_reap_retires_expired_remainders(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=100.0, at=0.0)
        mgr.release(lease, lease.ready_at + 100.0)
        cloud.advance(2 * HOUR)
        assert mgr.reap(cloud.now) == 1
        assert mgr.stats()["reaped"] == 1
        assert len(mgr.pool) == 0

    def test_owns_tracks_every_granted_instance(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        lease = mgr.acquire("t", est_seconds=10.0, at=0.0)
        outsider = cloud.launch_instance(wait=False)
        assert mgr.owns(lease.instance.instance_id)
        assert not mgr.owns(outsider.instance_id)


# ---------------------------------------------------------------------------
# Admission control — decisions are explicit, never silent


class TestAdmission:
    def setup_method(self):
        self.registry = TenantRegistry()
        self.registry.register(Tenant("acme", max_concurrent_instances=8))
        self.registry.register(Tenant("tiny", budget_usd=0.01))
        self.ctrl = AdmissionController(self.registry, max_queue_depth=2)
        self.plan = make_plan()

    def req(self, tenant, name="c"):
        return FleetRequest(tenant, grep_workload(), self.plan, name)

    def test_unknown_tenant_rejected_with_reason(self):
        d = self.ctrl.review(self.req("ghost"), queue_depth=0)
        assert d.rejected and "unknown tenant" in d.reason

    def test_budget_exhaustion_rejected_with_reason(self):
        d = self.ctrl.review(self.req("tiny"), queue_depth=0)
        assert d.rejected and d.reason.startswith("budget")
        assert d.est_cost_usd > 0.01

    def test_backpressure_bounds_the_queue(self):
        d = self.ctrl.review(self.req("acme"), queue_depth=2)
        assert d.rejected and d.reason.startswith("backpressure")

    def test_second_campaign_same_tenant_deferred(self):
        a = self.ctrl.review(self.req("acme", "c1"), queue_depth=0)
        b = self.ctrl.review(self.req("acme", "c2"), queue_depth=1,
                             tenant_active_campaigns=1)
        assert a.admitted
        assert b.deferred and b.enqueued

    def test_every_submission_gets_a_decision(self):
        """Scheduler-level observability: no submission is dropped
        silently — each lands in ``decisions`` with kind and reason."""
        cloud = make_cloud()
        sched = FleetScheduler(cloud, LeaseManager(cloud),
                               AdmissionController(self.registry,
                                                   max_queue_depth=1))
        kinds = [sched.submit(self.req(t, n)).kind
                 for t, n in [("acme", "a"), ("ghost", "x"), ("acme", "b")]]
        assert kinds == [ADMITTED, REJECTED, REJECTED]
        assert len(sched.decisions) == 3
        assert all(d.reason for _, d in sched.decisions)
        report = sched.run()
        assert len(report.rejected) == 2
        assert {r.name for r, _ in report.rejected} == {"x", "b"}

    def test_admission_metrics_are_emitted(self):
        from repro.obs import Obs
        cloud = Cloud(seed=1, heterogeneity=FixedBoot(),
                      obs=Obs.on(trace=False))
        sched = FleetScheduler(cloud, LeaseManager(cloud),
                               AdmissionController(self.registry))
        sched.submit(self.req("acme"))
        sched.submit(self.req("ghost"))
        metrics = cloud.obs.metrics
        assert metrics.value("fleet.admission.decisions", kind="admitted") == 1
        assert metrics.value("fleet.admission.decisions", kind="rejected") == 1


# ---------------------------------------------------------------------------
# Scheduler end-to-end


def run_fleet(n_campaigns=4, tenants=("acme", "globex"), max_instances=4,
              seed=11, deadline=2 * HOUR):
    cloud = make_cloud(seed=seed)
    registry = TenantRegistry()
    for t in tenants:
        registry.register(Tenant(t, max_concurrent_instances=4))
    leases = LeaseManager(cloud, max_instances=max_instances)
    sched = FleetScheduler(cloud, leases, AdmissionController(registry))
    wl = grep_workload()
    for i in range(n_campaigns):
        plan = make_plan(deadline=deadline)
        sched.submit(FleetRequest(tenants[i % len(tenants)], wl, plan,
                                  f"campaign-{i}"))
    return cloud, sched.run()


class TestFleetScheduler:
    def test_all_enqueued_campaigns_complete(self):
        _, report = run_fleet()
        assert len(report.outcomes) == 4
        assert all(o.runs for o in report.outcomes)

    def test_fleet_shares_instances_across_campaigns(self):
        cloud, report = run_fleet()
        assert report.warm_hit_rate > 0
        assert len(report.records) < report.n_bins

    def test_ledger_matches_report(self):
        cloud, report = run_fleet()
        assert report.total_cost == pytest.approx(cloud.ledger.total_cost)
        assert report.total_billed_hours == cloud.ledger.total_instance_hours

    def test_attribution_sums_exactly_to_total(self):
        _, report = run_fleet()
        per_tenant = report.per_tenant_cost()
        assert sum(per_tenant.values()) == report.total_cost  # exact, not approx
        per_campaign = report.per_campaign_cost()
        assert sum(per_campaign.values()) == report.total_cost

    def test_quota_throttles_concurrency(self):
        """A tenant with quota 1 never has two bins running at once."""
        cloud = make_cloud()
        registry = TenantRegistry()
        registry.register(Tenant("solo", max_concurrent_instances=1))
        leases = LeaseManager(cloud, max_instances=4)
        sched = FleetScheduler(cloud, leases, AdmissionController(registry))
        wl = grep_workload()
        for i in range(2):
            sched.submit(FleetRequest("solo", wl, make_plan(), f"c{i}"))
        report = sched.run()
        spans = sorted((r.start, r.end)
                       for o in report.outcomes for r in o.runs)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9

    def test_weighted_fair_share_orders_service(self):
        """With equal demand, the heavier tenant gets earlier slots."""
        cloud = make_cloud()
        registry = TenantRegistry()
        registry.register(Tenant("gold", weight=4.0,
                                 max_concurrent_instances=8))
        registry.register(Tenant("econ", weight=1.0,
                                 max_concurrent_instances=8))
        leases = LeaseManager(cloud, max_instances=4)
        sched = FleetScheduler(cloud, leases, AdmissionController(registry))
        wl = grep_workload()
        sched.submit(FleetRequest("econ", wl, make_plan(deadline=120.0), "e"))
        sched.submit(FleetRequest("gold", wl, make_plan(deadline=120.0), "g"))
        report = sched.run()
        # Starts are virtual (boot delays), so assert on *placement* order:
        # lease IDs are sequential, and the 4× weight means gold's bins are
        # placed earlier on average despite econ submitting first.
        order = {o.request.tenant: sorted(r.lease_id for r in o.runs)
                 for o in report.outcomes}
        mean_pos = {t: sum(int(l.split("-")[1]) for l in ids) / len(ids)
                    for t, ids in order.items()}
        assert mean_pos["gold"] < mean_pos["econ"]


# ---------------------------------------------------------------------------
# Property: attribution is exact under arbitrary slice layouts


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3),            # instance
              st.sampled_from(["a", "b", "c"]),   # tenant
              st.floats(0.0, 3600.0),       # start offset
              st.floats(1.0, 3600.0)),      # duration
    min_size=1, max_size=24))
def test_attribution_property_sums_exactly(raw):
    from repro.cloud.billing import UsageRecord
    from repro.fleet.lease import UsageSlice
    from repro.fleet.report import FleetReport

    slices, latest = [], {}
    for i, (inst, tenant, t0, dur) in enumerate(raw):
        iid = f"i-{inst}"
        slices.append(UsageSlice(iid, f"l-{i}", tenant, None, t0, t0 + dur))
        latest[iid] = max(latest.get(iid, 0.0), t0 + dur)
    records = [
        UsageRecord(iid, "m1.small", 0.0, end, 0.085)
        for iid, end in latest.items()
    ]
    report = FleetReport(outcomes=[], rejected=[], records=records,
                         slices=slices)
    for attribution in (report.per_tenant_cost(), report.per_campaign_cost()):
        assert sum(attribution.values()) == report.total_cost


# ---------------------------------------------------------------------------
# The headline economics: shared fleet < isolated runs


class TestSharedVsIsolated:
    def test_shared_fleet_is_cheaper_than_isolated(self):
        n = 4
        shared_cloud, report = run_fleet(n_campaigns=n, seed=23)
        iso_cost = 0.0
        for i in range(n):
            cloud = make_cloud(seed=23)
            rep = execute_plan(cloud, grep_workload(), make_plan())
            iso_cost += cloud.ledger.total_cost
        assert report.total_cost < iso_cost
        assert report.warm_hit_rate > 0
        assert report.miss_rate == 0.0


# ---------------------------------------------------------------------------
# Dynamic runner: replacement prefers a warm-pool lease over a fresh boot


class Sequenced:
    """Quality factors drawn from an explicit script, then a default."""

    def __init__(self, factors, default=1.0):
        self.factors = list(factors)
        self.default = default

    def draw_factor(self, rng):
        return self.factors.pop(0) if self.factors else self.default


class TestDynamicLeaseReplacement:
    def dyn_plan(self):
        from repro.apps import PosCostProfile, PosTaggerApplication
        x = np.array([1e5, 1e6, 5e6])
        model = fit_affine(x, 0.327 + 0.865e-4 * x)
        cat = text_400k_like(scale=5e-2)
        plan = StaticProvisioner(model).plan(
            list(reshape(cat, None).units), 500.0, strategy="uniform")
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        return plan, wl

    def run_dynamic(self, prewarm):
        from repro.runner import DynamicPolicy, execute_with_monitoring
        plan, wl = self.dyn_plan()
        n = plan.n_instances
        # Warmup instances (if any) boot first and must be fast; the
        # campaign's own instances are slow so every bin needs a
        # replacement; replacements drawn later default to fast.  Each
        # launch consumes two draws (cpu + io factors).
        script = ([1.0] * 2 * n + [0.35] * 2 * n if prewarm
                  else [0.35] * 2 * n)
        cloud = Cloud(seed=3, heterogeneity=Sequenced(script))
        mgr = LeaseManager(cloud)
        if prewarm:
            # Boot n distinct fast instances before the campaign starts
            # (hold every lease until all are granted — releasing early
            # would let later acquires warm-hit instead of booting), then
            # pool them with nearly a full paid hour left each.
            held = [mgr.acquire("warmup", est_seconds=1.0, at=cloud.now)
                    for _ in range(n)]
            for lease in held:
                mgr.release(lease, lease.ready_at + 1.0)
        report, events = execute_with_monitoring(
            cloud, wl, plan, policy=DynamicPolicy(slow_threshold=0.7),
            lease_manager=mgr)
        cloud.advance(HOUR)
        mgr.shutdown()
        return cloud, mgr, report, events

    def test_replacement_draws_warm_lease_when_pool_has_one(self):
        cloud, mgr, report, events = self.run_dynamic(prewarm=True)
        assert events
        replaced = {e.new_instance for e in events}
        warm_ids = {lease.instance.instance_id for lease in mgr.leases
                    if lease.tenant == "warmup"}
        assert replaced & warm_ids       # warmed instances got reused
        assert mgr.stats()["pool_hits"] >= 1

    def test_replacement_cold_boots_on_empty_pool(self):
        cloud, mgr, report, events = self.run_dynamic(prewarm=False)
        assert events
        dyn_leases = [l for l in mgr.leases if l.tenant == "dynamic"]
        # The first replacement has nothing to reuse: it must cold boot.
        # (Later bins may warm-hit the pool it seeds — that's the point.)
        first = min(dyn_leases, key=lambda l: l.lease_id)
        assert first.source == "cold"

    def test_warm_replacement_is_faster_than_cold(self):
        """A pooled replacement skips the boot: for every replaced bin the
        warm run's wall time is shorter than the cold run's."""
        _, _, warm_rep, warm_ev = self.run_dynamic(prewarm=True)
        _, _, cold_rep, cold_ev = self.run_dynamic(prewarm=False)
        warm_bins = {e.bin_index for e in warm_ev}
        cold_bins = {e.bin_index for e in cold_ev}
        assert warm_bins == cold_bins
        for wr, cr in zip(warm_rep.runs, cold_rep.runs):
            assert wr.duration <= cr.duration + 1e-6

    def test_no_double_billing_with_lease_manager(self):
        """Every instance appears in the ledger exactly once."""
        cloud, mgr, report, events = self.run_dynamic(prewarm=True)
        ids = [r.instance_id for r in cloud.ledger.records]
        assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# one plan on warm leases (the StagePolicy.leased triple)


class TestExecuteOnFleet:
    def test_consecutive_campaigns_share_paid_hours(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud, max_instances=4)
        wl = grep_workload()
        p1, p2 = make_plan(), make_plan()
        r1 = run_leased(mgr, wl, p1, tenant="acme", campaign="c1")
        r2 = run_leased(mgr, wl, p2, tenant="acme", campaign="c2")
        assert r1.strategy.endswith("+fleet")
        assert p2.reused_bins > 0
        assert any(v.startswith(("warm:", "extension:"))
                   for v in p2.lease_sources.values())
        mgr.shutdown()
        # Strictly cheaper than two isolated ceil-hour campaigns.
        assert (cloud.ledger.total_instance_hours
                < p1.n_instances + p2.n_instances)

    def test_boot_delay_reflects_wait(self):
        cloud = make_cloud()
        mgr = LeaseManager(cloud)
        plan = make_plan()
        rep = run_leased(mgr, grep_workload(), plan)
        for run in rep.runs:
            assert run.boot_delay > 0   # cold boots on an empty pool
        for lease in mgr.leases:
            mgr_release = lease.state.value
            assert mgr_release == "released"


# ---------------------------------------------------------------------------
# CLI


class TestFleetCli:
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_campaigns_below_one_rejected(self, n, capsys, caplog):
        from repro.cli import main as cli_main

        assert cli_main(["fleet", "--campaigns", n, "--no-ledger"]) == 2
        assert capsys.readouterr().out == ""
        assert any(r.name == "repro.cli"
                   and "--campaigns must be at least 1" in r.getMessage()
                   for r in caplog.records)
