"""Plan execution on the simulated cloud.

One event-driven loop — :class:`~repro.runner.core.ExecutionCore` — runs
every :class:`~repro.core.planner.ProvisioningPlan`, delegating each
decision to a policy triple (acquisition / progress / completion).  The
public entry points are thin configurations of it:

* :func:`~repro.runner.execute.execute_plan` — fresh instances, per-
  instance misses against the user deadline (Figs. 8–9), ceil-hour bill;
* :func:`~repro.runner.dynamic.execute_with_monitoring` — the paper's §7
  loop: monitor throughput, retire stragglers, re-attach their EBS
  volume to a replacement;
* :func:`~repro.runner.fault_tolerant.execute_fault_tolerant` — §7 crash
  recovery in unit batches;
* :func:`~repro.runner.fleet.execute_on_fleet` — warm leases from a
  shared fleet instead of private boots;
* :func:`~repro.runner.spot.execute_plan_spot` — spot-market capacity
  with interruption absorption, the fallback ladder, and deadline-aware
  on-demand escalation.

Every entry point but the spot one settles its bins through
:class:`~repro.runner.core.FleetCompletion`; ``ExecutionCore(...).run()``
also returns the :class:`~repro.runner.core.FleetTimeline` of completion
events.
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
from repro.runner.columnar import (
    ColumnarReport,
    execute_plan_columnar,
    execute_uniform_fleet,
)
from repro.runner.dynamic import DynamicPolicy, ReplacementEvent, execute_with_monitoring
from repro.runner.ebs_plan import DeviceAssignment, execute_ebs_plan
from repro.runner.execute import ExecutionReport, FailedBin, InstanceRun, execute_plan
from repro.runner.fault_tolerant import CrashEvent, FaultPolicy, execute_fault_tolerant
from repro.runner.fleet import execute_on_fleet
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
    "execute_on_fleet",
    "DynamicPolicy",
    "ReplacementEvent",
    "execute_with_monitoring",
    "CrashEvent",
    "FaultPolicy",
    "execute_fault_tolerant",
    "execute_quality_aware",
    "FleetTimeline",
    "ColumnarReport",
    "execute_plan_columnar",
    "execute_uniform_fleet",
    "DeviceAssignment",
    "execute_ebs_plan",
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
