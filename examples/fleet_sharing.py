#!/usr/bin/env python
"""Multi-tenant fleet sharing: several campaigns riding the same paid hours.

Four tenants submit six campaigns to one shared fleet.  The admission
controller answers every submission out loud (admitted / deferred /
rejected), the scheduler places bins in weighted fair-share order, and
released instances park in a warm pool keyed by their remaining paid-hour
seconds — so a later campaign's bin can start instantly on an hour
somebody already bought.  The per-tenant bill splits every ceil-hour
charge across the campaigns that actually used it, summing exactly to
the ledger total.

Run:  python examples/fleet_sharing.py
"""

from repro.apps import GrepApplication, GrepCostProfile
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
from repro.perfmodel.regression import fit_affine
from repro.units import KB, MB


def main() -> None:
    cloud = Cloud(seed=42)
    workload = Workload("grep", GrepApplication(), GrepCostProfile())

    # Tenants with different quotas and one hard budget.
    registry = TenantRegistry()
    registry.register(Tenant("acme", weight=2.0, max_concurrent_instances=4))
    registry.register(Tenant("globex", max_concurrent_instances=2))
    registry.register(Tenant("initech", budget_usd=0.05))

    leases = LeaseManager(cloud, max_instances=4)
    scheduler = FleetScheduler(cloud, leases, AdmissionController(registry))

    # The same corpus, planned independently per campaign.
    catalogue = text_400k_like(scale=0.02)
    units = reshape(catalogue, 100 * KB).units
    model = fit_affine([1 * MB, 5 * MB, 10 * MB], [35.0, 160.0, 310.0])
    provisioner = StaticProvisioner(model)

    submissions = [
        ("acme", "nightly-grep"),
        ("acme", "adhoc-grep"),
        ("globex", "batch-1"),
        ("globex", "batch-2"),
        ("initech", "audit"),         # rejected: plan exceeds its budget
        ("hooli", "freeloader"),      # rejected: unknown tenant
    ]
    for tenant, name in submissions:
        plan = provisioner.plan(units, deadline=3600.0, strategy="uniform")
        decision = scheduler.submit(FleetRequest(tenant, workload, plan, name))
        print(f"submit {tenant}/{name}: {decision.kind} ({decision.reason})")

    report = scheduler.run()
    s = report.summary()
    print()
    print(f"ran {s['bins']} bins on {s['instances']} instance(s), "
          f"{s['instance_hours']} billed hour(s), ${s['cost_usd']:.4f} total, "
          f"warm-pool hit rate {s['warm_hit_rate']:.2f}")
    print()
    print("per-tenant bill (sums exactly to the ledger):")
    print(report.render_attribution())


if __name__ == "__main__":
    main()
