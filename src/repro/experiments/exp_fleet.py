"""Fleet-sharing experiment: concurrent campaigns on one multi-tenant fleet.

The paper prices every campaign in isolation — each provisioning plan
boots its own instances and pays its own ``⌈P⌉`` hours (§5).  §7's "new
or existing instances" remark points at the money left on the table: with
short bins, most of every billed hour is idle remainder.  This experiment
runs N concurrent grep+POS campaigns twice —

* **shared**: one :class:`~repro.fleet.scheduler.FleetScheduler` over one
  :class:`~repro.fleet.lease.LeaseManager`, campaigns recycling each
  other's paid-hour remainders through the warm pool;
* **isolated**: the same plans, each executed by
  :func:`~repro.runner.execute.execute_plan` on its own private cloud —
  the paper's §5 regime;

and compares total billed cost at equal-or-better deadline-miss rate.
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.fleet import (
    AdmissionController,
    FleetRequest,
    FleetScheduler,
    LeaseManager,
    Tenant,
    TenantRegistry,
)
from repro.obs import get_logger
from repro.obs.ledger import record_experiment
from repro.perfmodel.regression import fit_affine
from repro.report.figures import FigureResult
from repro.runner import execute_plan
from repro.units import HOUR, KB, MB

__all__ = ["run_shared_fleet", "shared_vs_isolated"]

_log = get_logger("experiments.fleet")

#: (tenant, workload key) cycle for the concurrent campaigns.
_TENANTS = ("acme", "globex", "initech", "umbrella")


def _workloads() -> dict[str, tuple[Workload, object]]:
    """The two §5 applications with perf models fit to their §5 scales."""
    grep_model = fit_affine(np.array([1 * MB, 5 * MB, 10 * MB]),
                            np.array([35.0, 160.0, 310.0]))
    x = np.array([1e5, 1e6, 5e6])
    pos_model = fit_affine(x, 0.327 + 0.865e-4 * x)
    return {
        "grep": (Workload("grep", GrepApplication(), GrepCostProfile()),
                 grep_model),
        "postag": (Workload("postag", PosTaggerApplication(),
                            PosCostProfile()), pos_model),
    }


def _campaign_builder(seed: float, scale: float, deadline: float):
    """One shared corpus; campaign ``i`` alternates grep and POS plans."""
    wls = _workloads()
    cat = text_400k_like(scale=scale, seed=seed)
    units = reshape(cat, 100 * KB).units

    def build_plan(i: int):
        key = "grep" if i % 2 == 0 else "postag"
        wl, model = wls[key]
        plan = StaticProvisioner(model).plan(units, deadline,
                                             strategy="uniform")
        return key, wl, plan

    return build_plan


def run_shared_fleet(
    n_campaigns: int = 8,
    *,
    seed: int = 17,
    scale: float = 0.02,
    deadline: float = 2 * HOUR,
    max_instances: int = 8,
):
    """Run N concurrent campaigns on one shared fleet.

    Returns ``(cloud, FleetReport)`` — the cloud's ledger is the billing
    truth, the report carries outcomes and attribution.
    """
    build_plan = _campaign_builder(seed, scale, deadline)
    cloud = Cloud(seed=seed)
    registry = TenantRegistry()
    for name in _TENANTS:
        registry.register(Tenant(name, max_concurrent_instances=4))
    leases = LeaseManager(cloud, max_instances=max_instances)
    sched = FleetScheduler(cloud, leases, AdmissionController(registry))
    for i in range(n_campaigns):
        key, wl, plan = build_plan(i)
        tenant = _TENANTS[i % len(_TENANTS)]
        sched.submit(FleetRequest(tenant, wl, plan, f"{key}-{i}"))
    return cloud, sched.run()


def shared_vs_isolated(
    n_campaigns: int = 8,
    *,
    seed: int = 17,
    scale: float = 0.02,
    deadline: float = 2 * HOUR,
    max_instances: int = 8,
) -> tuple[FigureResult, dict]:
    """N concurrent grep+POS campaigns: one shared fleet vs N private ones.

    Returns the comparison figure plus a stats dict with both bills, the
    saving, warm-pool hit rate, miss rates, and the per-tenant
    attribution (which sums exactly to the shared ledger total).
    """
    build_plan = _campaign_builder(seed, scale, deadline)

    # -- shared fleet ------------------------------------------------------
    shared_cloud, fleet_report = run_shared_fleet(
        n_campaigns, seed=seed, scale=scale, deadline=deadline,
        max_instances=max_instances)
    shared_cost = shared_cloud.ledger.total_cost
    shared_hours = shared_cloud.ledger.total_instance_hours
    _log.info("shared fleet: %d campaigns, %d bins, %d instance-hours, $%.3f",
              n_campaigns, fleet_report.n_bins, shared_hours, shared_cost)

    # -- isolated baselines ------------------------------------------------
    iso_cost = 0.0
    iso_hours = 0
    iso_bins = 0
    iso_missed = 0
    for i in range(n_campaigns):
        key, wl, plan = build_plan(i)
        cloud = Cloud(seed=seed + i)
        report = execute_plan(cloud, wl, plan)
        iso_cost += cloud.ledger.total_cost
        iso_hours += cloud.ledger.total_instance_hours
        iso_bins += len(report.runs)
        iso_missed += report.n_missed
    iso_miss_rate = iso_missed / iso_bins if iso_bins else 0.0
    _log.info("isolated: %d instance-hours, $%.3f, miss rate %.3f",
              iso_hours, iso_cost, iso_miss_rate)

    stats = {
        "n_campaigns": n_campaigns,
        "shared_cost_usd": round(shared_cost, 4),
        "isolated_cost_usd": round(iso_cost, 4),
        "saving_usd": round(iso_cost - shared_cost, 4),
        "saving_pct": round(100.0 * (1 - shared_cost / iso_cost), 2)
        if iso_cost else 0.0,
        "shared_instance_hours": shared_hours,
        "isolated_instance_hours": iso_hours,
        "warm_hit_rate": fleet_report.warm_hit_rate,
        "shared_miss_rate": round(fleet_report.miss_rate, 4),
        "isolated_miss_rate": round(iso_miss_rate, 4),
        "shared_wasted_seconds": round(fleet_report.total_wasted_seconds, 1),
        "per_tenant_cost": {t: round(c, 4) for t, c in
                            fleet_report.per_tenant_cost().items()},
        "admission": fleet_report.summary(),
    }

    fig = FigureResult(
        "FleetShare",
        f"{n_campaigns} concurrent grep+POS campaigns: shared fleet vs isolated")
    fig.add("cost (USD)", ["shared", "isolated"], [shared_cost, iso_cost])
    fig.add("instance-hours", ["shared", "isolated"],
            [float(shared_hours), float(iso_hours)])
    fig.note(f"warm-pool hit rate {stats['warm_hit_rate']:.2f}; "
             f"saving {stats['saving_pct']:.1f}% at miss rate "
             f"{stats['shared_miss_rate']:.3f} (isolated "
             f"{stats['isolated_miss_rate']:.3f})")
    record_experiment("exp_fleet.shared_vs_isolated",
                      config={"n_campaigns": n_campaigns}, extra=stats)
    return fig, stats
