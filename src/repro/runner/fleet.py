"""Execute a provisioning plan on a shared fleet instead of private boots.

``execute_on_fleet`` is the drop-in counterpart of
:func:`~repro.runner.execute.execute_plan` for callers that hold a
:class:`~repro.fleet.lease.LeaseManager`: every bin draws a lease — a
warm-pool hit starts on an already-paid hour with no boot delay — and
releases it when done, so consecutive campaigns (static, dynamic, or
fault-tolerant alike) recycle each other's remainders.

This runner and ``execute_plan`` settle bins through the one
:class:`~repro.runner.core.FleetCompletion`: a bin that finishes on a
lease releases it to the manager instead of billing it, so leased
instances are only billed when the manager retires them.  Read campaign
costs from the fleet's :class:`~repro.fleet.report.FleetReport` /
:class:`~repro.cloud.billing.BillingLedger`, not from the returned
report's per-run ceil estimate.
"""

from __future__ import annotations

from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.fleet.lease import LeaseManager
from repro.runner.execute import ExecutionReport

__all__ = ["execute_on_fleet"]


def execute_on_fleet(
    leases: LeaseManager,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    tenant: str = "default",
    campaign: str | None = None,
    service: ExecutionService | None = None,
) -> ExecutionReport:
    """Run every occupied bin of ``plan`` on a leased fleet instance.

    Bins execute in parallel from the current simulated time; each
    acquires its own lease (best-fit warm remainder first, cold boot
    otherwise), and the plan is annotated with every bin's lease source.
    The returned report's ``boot_delay`` per run is the full
    submission-to-work latency — zero-ish for warm leases, the boot delay
    for cold ones — so ``missed(deadline, include_boot=True)`` reflects
    what the fleet's user actually waited.  The lease manager keeps the
    instances (pooled) afterwards; call its ``shutdown()`` to settle the
    bill.
    """
    from repro.runner.core import (
        ExecutionCore,
        FleetCompletion,
        LeaseAcquisition,
        RunToCompletion,
    )

    core = ExecutionCore(
        leases.cloud, workload, plan,
        acquisition=LeaseAcquisition(
            leases, tenant=tenant,
            campaign=campaign or f"{plan.strategy}-campaign"),
        progress=RunToCompletion(),
        completion=FleetCompletion(lease_manager=leases),
        service=service,
        strategy=f"{plan.strategy}+fleet",
        label="execute_on_fleet",
    )
    return core.run().report
