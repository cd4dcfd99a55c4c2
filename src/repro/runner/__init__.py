"""Plan execution on the simulated cloud.

One event-driven loop — :class:`~repro.runner.core.ExecutionCore` — runs
every :class:`~repro.core.planner.ProvisioningPlan`, delegating each
decision to a policy triple (acquisition / progress / completion); there
is no second plan executor.  The public entry points are thin
configurations of it:

* :func:`~repro.runner.execute.execute_plan` — fresh instances, per-
  instance misses against the user deadline (Figs. 8–9), ceil-hour bill;
* :func:`~repro.runner.dynamic.execute_with_monitoring` — the paper's §7
  loop: monitor throughput, retire stragglers, re-attach their EBS
  volume to a replacement;
* :func:`~repro.runner.fault_tolerant.execute_fault_tolerant` — §7 crash
  recovery in unit batches;
* :func:`~repro.runner.spot.execute_plan_spot` — spot-market capacity
  with interruption absorption, the fallback ladder, and deadline-aware
  on-demand escalation.

Every entry point but the spot one settles its bins through
:class:`~repro.runner.core.FleetCompletion`; ``ExecutionCore(...).run()``
also returns the :class:`~repro.runner.core.FleetTimeline` of completion
events.  Warm leases from a shared fleet are a policy triple, not an
entry point: :meth:`~repro.runner.core.StagePolicy.leased` builds it
(``DagScheduler(policy="leased")`` runs it per stage), and multi-tenant
campaigns go through :class:`~repro.fleet.scheduler.FleetScheduler`.
"""

from repro.runner.core import (
    AcquisitionPolicy,
    BinGrant,
    BinOutcome,
    CompletionPolicy,
    CoreResult,
    CrashProgress,
    ExecutionCore,
    FleetCompletion,
    FleetLaunchAcquisition,
    FleetTimeline,
    LeaseAcquisition,
    ProgressPolicy,
    RunToCompletion,
    StragglerProgress,
)
from repro.runner.dynamic import DynamicPolicy, ReplacementEvent, execute_with_monitoring
from repro.runner.execute import ExecutionReport, FailedBin, InstanceRun, execute_plan
from repro.runner.fault_tolerant import CrashEvent, FaultPolicy, execute_fault_tolerant
from repro.runner.quality import execute_quality_aware
from repro.runner.spot import (
    SpotAcquisition,
    SpotCompletion,
    SpotProgress,
    SpotRunResult,
    SpotRunStats,
    execute_plan_spot,
)

__all__ = [
    "ExecutionReport",
    "FailedBin",
    "InstanceRun",
    "execute_plan",
    "DynamicPolicy",
    "ReplacementEvent",
    "execute_with_monitoring",
    "CrashEvent",
    "FaultPolicy",
    "execute_fault_tolerant",
    "execute_quality_aware",
    "FleetTimeline",
    "SpotAcquisition",
    "SpotCompletion",
    "SpotProgress",
    "SpotRunResult",
    "SpotRunStats",
    "execute_plan_spot",
    # the core and its policies
    "ExecutionCore",
    "CoreResult",
    "AcquisitionPolicy",
    "ProgressPolicy",
    "CompletionPolicy",
    "BinGrant",
    "BinOutcome",
    "FleetLaunchAcquisition",
    "LeaseAcquisition",
    "RunToCompletion",
    "StragglerProgress",
    "CrashProgress",
    "FleetCompletion",
]
