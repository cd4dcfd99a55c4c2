"""Fault-tolerant plan execution: crash detection and work reassignment.

Implements the §7 recovery loop against injected hardware failures
(:mod:`repro.cloud.failures`): each instance processes its bin in unit
batches; a crash mid-batch loses that batch's progress, the monitor
notices after a detection timeout, and a replacement instance (EBS
re-attach, no data copy) redoes the lost batch and continues.  Every
instance that ran — including crashed ones — bills its ceil-hours.

The recovery loop itself is :class:`~repro.runner.core.CrashProgress`
inside the shared :class:`~repro.runner.core.ExecutionCore`, settled by
the one :class:`~repro.runner.core.FleetCompletion` (the survivor bills
the whole bin span); this module owns the policy knobs and the
entry-point signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.runner.core import CrashEvent  # noqa: F401  (re-export)
from repro.runner.execute import ExecutionReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.lease import LeaseManager
    from repro.resilience.launch import ResilientLauncher

__all__ = ["FaultPolicy", "CrashEvent", "execute_fault_tolerant"]


@dataclass(frozen=True)
class FaultPolicy:
    """Recovery parameters.

    ``batch_units`` bounds how much progress one crash can destroy;
    ``detection_timeout`` is how long an unresponsive instance sits before
    the monitor "force[s] their termination" (§7); ``replacement_penalty``
    covers the fresh boot + EBS attach (§3.1's ~3 minutes);
    ``max_crashes_per_bin`` guards against a pathological cloud:
    ``on_exhaustion`` decides whether hitting it reports the bin as
    failed — hours already billed, completed units counted — and moves
    on (``"fail-bin"``, the default), or raises as the legacy behaviour
    did (``"raise"``).  Failing one bin loudly beats folding the whole
    campaign: the other bins' work and bills are still real.
    """

    batch_units: int = 25
    detection_timeout: float = 60.0
    replacement_penalty: float = 180.0
    max_crashes_per_bin: int = 8
    on_exhaustion: str = "fail-bin"
    #: EBS re-attach seconds when the replacement comes from a warm-pool
    #: lease (see ``execute_fault_tolerant``'s ``lease_manager``): the
    #: instance is already booted inside a paid hour, so only the volume
    #: move is paid (vs ``replacement_penalty`` ≈ boot + attach).
    attach_penalty: float = 30.0

    def __post_init__(self) -> None:
        if self.batch_units < 1:
            raise ValueError("batch_units must be >= 1")
        if self.detection_timeout < 0 or self.replacement_penalty < 0:
            raise ValueError("timeouts must be non-negative")
        if self.max_crashes_per_bin < 1:
            raise ValueError("max_crashes_per_bin must be >= 1")
        if self.on_exhaustion not in ("fail-bin", "raise"):
            raise ValueError("on_exhaustion must be 'fail-bin' or 'raise'")
        if self.attach_penalty < 0:
            raise ValueError("attach penalty must be non-negative")


def execute_fault_tolerant(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    policy: FaultPolicy | None = None,
    service: ExecutionService | None = None,
    launcher: "ResilientLauncher | None" = None,
    lease_manager: "LeaseManager | None" = None,
) -> tuple[ExecutionReport, list[CrashEvent]]:
    """Run a plan to completion despite instance crashes.

    Guarantees: every unit is processed exactly once by a surviving
    instance (lost batches are redone in full), and the report's durations
    include crash detection and replacement penalties.  A bin that cannot
    be completed (crashes exhausted, or no instance obtainable under
    chaos) is reported in ``report.failures`` with its billed hours and
    completed-unit count rather than aborting the whole campaign.

    With a ``lease_manager``, replacements draw from the shared fleet:
    a warm-pool lease pays only ``policy.attach_penalty`` (no fresh boot)
    and is billed by the manager at retirement rather than by this
    runner.  Without one, replacements boot privately at
    ``policy.replacement_penalty`` exactly as before.

    A ``launcher`` carrying a
    :class:`~repro.resilience.degrade.DegradationPlanner` re-homes the
    units of bins whose launch was refused onto the survivors.
    Wind-down terminates only instances this run launched.
    """
    from repro.runner.core import (
        CrashProgress,
        ExecutionCore,
        FleetCompletion,
        FleetLaunchAcquisition,
    )

    core = ExecutionCore(
        cloud, workload, plan,
        acquisition=FleetLaunchAcquisition(
            launcher=launcher, lease_manager=lease_manager,
            replacement_tenant="fault-tolerant"),
        progress=CrashProgress(policy or FaultPolicy()),
        completion=FleetCompletion(lease_manager=lease_manager),
        service=service,
        strategy=f"{plan.strategy}+fault-tolerant",
        label="execute_fault_tolerant",
    )
    result = core.run()
    return result.report, result.events
