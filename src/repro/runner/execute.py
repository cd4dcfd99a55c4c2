"""Execute a provisioning plan: parallel instances, per-instance timing.

Instances work independently; the report gives per-instance execution
times (what Figs. 8–9 plot against the deadline line), the makespan, and
the ceil-hour instance bill.  Instance launches and per-run measurement
noise come from the cloud's deterministic streams.

This module owns the result shapes every runner shares
(:class:`InstanceRun`, :class:`FailedBin`, :class:`ExecutionReport`); the
execution loop itself lives in :mod:`repro.runner.core`, and
:func:`execute_plan` is one policy configuration of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.units import billed_hours

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.launch import ResilientLauncher

__all__ = ["InstanceRun", "FailedBin", "ExecutionReport", "execute_plan"]


@dataclass(frozen=True)
class InstanceRun:
    """One instance's share of the plan."""

    instance_id: str
    n_units: int
    volume: int
    boot_delay: float
    duration: float               # measured processing seconds
    predicted: float              # what the model expected

    @property
    def billed_hours(self) -> int:
        return billed_hours(self.duration)

    def missed(self, deadline: float, *, include_boot: bool = False) -> bool:
        """Did this instance exceed the deadline?"""
        t = self.duration + (self.boot_delay if include_boot else 0.0)
        return t > deadline


@dataclass(frozen=True)
class FailedBin:
    """A bin whose work did not complete — reported, never silently lost.

    ``absorbed`` marks bins whose units were re-homed onto surviving
    instances by a degradation replan; their failure cost shows up in the
    survivors' durations instead of as missing work.
    """

    bin_index: int
    reason: str
    n_units: int = 0
    volume: int = 0
    completed_units: int = 0
    elapsed: float = 0.0
    billed_hours: int = 0
    absorbed: bool = False


@dataclass
class ExecutionReport:
    """Outcome of running a plan."""

    deadline: float
    strategy: str
    runs: list[InstanceRun] = field(default_factory=list)
    rate: float = 0.085
    #: seconds to fetch all result objects from S3 (None = not measured);
    #: the §1 claim is that reshaping shrinks this by merging outputs.
    retrieval_seconds: float | None = None
    #: bins whose work failed outright (launch refused, crashes
    #: exhausted); empty on any healthy run, so legacy callers see the
    #: exact report they always did.
    failures: list[FailedBin] = field(default_factory=list)

    @property
    def n_instances(self) -> int:
        return len(self.runs)

    @property
    def makespan(self) -> float:
        return max((r.duration for r in self.runs), default=0.0)

    @property
    def instance_hours(self) -> int:
        return sum(r.billed_hours for r in self.runs)

    @property
    def cost(self) -> float:
        return self.instance_hours * self.rate

    @property
    def n_missed(self) -> int:
        return sum(1 for r in self.runs if r.missed(self.deadline))

    @property
    def n_failed(self) -> int:
        """Bins whose work never completed (and was not absorbed)."""
        return sum(1 for f in self.failures if not f.absorbed)

    @property
    def met_deadline(self) -> bool:
        return self.n_missed == 0 and self.n_failed == 0

    def summary(self) -> dict:
        """Headline execution facts in one flat dict."""
        out = {
            "strategy": self.strategy,
            "instances": self.n_instances,
            "makespan_s": round(self.makespan, 1),
            "deadline_s": self.deadline,
            "missed": self.n_missed,
            "instance_hours": self.instance_hours,
            "cost_usd": round(self.cost, 4),
        }
        if self.failures:
            out["failed_bins"] = self.n_failed
            out["absorbed_bins"] = len(self.failures) - self.n_failed
        return out


def execute_plan(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    service: ExecutionService | None = None,
    bill: bool = True,
    measure_retrieval: bool = False,
    launcher: "ResilientLauncher | None" = None,
) -> ExecutionReport:
    """Run every assignment of ``plan`` on its own fresh instance.

    Instances execute in parallel, so per-instance durations are measured
    against a common start (``advance_clock=False``); the global clock and
    ledger are updated once at the end.  "We assume all instances are
    uniform and performing well" is §5's *planner* assumption — the cloud
    underneath still deals heterogeneous instances, which is exactly how
    the paper comes to miss its 100 GB prediction by ~30 % (Fig. 6).

    With chaos installed on the cloud, launches may fail; a ``launcher``
    absorbs those faults (retry/steer/hedge).  Bins that still cannot get
    an instance are reported in ``report.failures`` — and, when the
    launcher carries a :class:`~repro.resilience.degrade.DegradationPlanner`,
    their units are re-packed onto the surviving bins instead of dropped.
    """
    from repro.runner.core import (
        ExecutionCore,
        FleetCompletion,
        FleetLaunchAcquisition,
        RunToCompletion,
    )

    core = ExecutionCore(
        cloud, workload, plan,
        acquisition=FleetLaunchAcquisition(launcher=launcher),
        progress=RunToCompletion(),
        completion=FleetCompletion(measure_retrieval=measure_retrieval),
        service=service,
        bill=bill,
        label="execute_plan",
    )
    return core.run().report
