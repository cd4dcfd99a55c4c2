"""Dynamic rescheduling — the paper's §7 future work, implemented.

"We can also monitor application performance during execution and make
dynamic scheduling decisions. … If we find that the application
performance is not satisfactory … we can decide to terminate poor
instances right away or to let them run up to close to a full hour and
then reassign the remaining work to new or existing instances.  Relying on
the persistent nature of EBS storage volumes … replacing poorly performing
instances can be done easily without explicit data transfers."

The §3.1 arithmetic this implements: a slow instance reading 60 MB/s could
process ≈210 GB in its next hour; swapping to a likely-fast instance costs
a ≈3 min boot+attach penalty yet still gains ≈57 GB of extra progress.

The monitoring loop itself is :class:`~repro.runner.core.StragglerProgress`
inside the shared :class:`~repro.runner.core.ExecutionCore`, settled by
the one :class:`~repro.runner.core.FleetCompletion`; this module owns the
policy knobs and the entry-point signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.runner.core import ReplacementEvent, _split_point  # noqa: F401  (re-export)
from repro.runner.execute import ExecutionReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.lease import LeaseManager
    from repro.resilience.launch import ResilientLauncher

__all__ = ["DynamicPolicy", "ReplacementEvent", "execute_with_monitoring"]


@dataclass(frozen=True)
class DynamicPolicy:
    """When and how to replace stragglers.

    After ``probe_fraction`` of an instance's bin has been processed, its
    observed throughput is compared to the plan's implied throughput; below
    ``slow_threshold`` the instance is marked for replacement.  The
    replacement pays ``replacement_penalty`` seconds (new instance startup
    plus EBS volume attachment — the paper's ≈3 minutes).
    """

    probe_fraction: float = 0.2
    slow_threshold: float = 0.7
    replacement_penalty: float = 180.0
    max_replacements_per_bin: int = 1
    #: EBS re-attach seconds when the replacement comes from a warm-pool
    #: lease: the instance is already booted, so only the volume move is
    #: paid (vs ``replacement_penalty`` ≈ boot + attach for a fresh one).
    attach_penalty: float = 30.0
    #: Fixed per-run overhead (process/JVM start) netted out of the probe
    #: chunk before computing throughput — a tiny chunk would otherwise
    #: look slow on every instance.
    setup_allowance: float = 5.0
    #: When to retire a detected straggler: ``"immediately"`` (minimum
    #: wall-clock), or ``"hour-boundary"`` (§7: "let them run up to close
    #: to a full hour and then reassign the remaining work" — the already-
    #: paid hour keeps producing, so the replacement does less).
    replace_at: str = "immediately"

    def __post_init__(self) -> None:
        if not 0 < self.probe_fraction < 1:
            raise ValueError("probe_fraction must be in (0, 1)")
        if not 0 < self.slow_threshold < 1:
            raise ValueError("slow_threshold must be in (0, 1)")
        if self.replacement_penalty < 0:
            raise ValueError("replacement penalty must be non-negative")
        if self.setup_allowance < 0:
            raise ValueError("setup allowance must be non-negative")
        if self.attach_penalty < 0:
            raise ValueError("attach penalty must be non-negative")
        if self.replace_at not in ("immediately", "hour-boundary"):
            raise ValueError("replace_at must be 'immediately' or 'hour-boundary'")


def execute_with_monitoring(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    policy: DynamicPolicy | None = None,
    service: ExecutionService | None = None,
    lease_manager: "LeaseManager | None" = None,
    launcher: "ResilientLauncher | None" = None,
) -> tuple[ExecutionReport, list[ReplacementEvent]]:
    """Execute a plan with straggler replacement.

    Each bin runs a probe chunk first; if the instance's observed time for
    that chunk exceeds the prediction-derived bound, the rest of the bin
    moves to a fresh instance (EBS re-attach penalty applies, no data
    copy).  Billing covers every instance that ran, including retired
    stragglers (their partial hour is still a full billed hour).

    With a ``lease_manager``, replacements draw from the fleet instead of
    booting privately: a warm-pool lease is already running inside a paid
    hour, so only ``policy.attach_penalty`` is paid and no new boot or
    ``⌈·⌉`` charge is incurred; on a pool miss the manager cold-boots and
    the usual boot + attach penalty applies.  Leased replacements are
    billed by the manager at retirement (call its ``shutdown()``), not by
    this runner.

    With a ``launcher``, launches (initial and replacement) ride the
    resilience layer: faults are retried with backoff, breakers steer
    around refusing zones, and a replacement that still cannot be
    acquired keeps the straggler instead of failing the bin.  The
    launcher is also fed ``note_slow_zone`` on each replacement, so
    measured-slow zones are deprioritised for later acquisitions, and its
    :class:`~repro.resilience.degrade.DegradationPlanner` (if any)
    re-homes the units of bins whose launch was refused onto the
    survivors.  Wind-down terminates only instances this run launched:
    another manager's pooled instances on the same cloud are left alone.
    """
    from repro.runner.core import (
        ExecutionCore,
        FleetCompletion,
        FleetLaunchAcquisition,
        StragglerProgress,
    )

    core = ExecutionCore(
        cloud, workload, plan,
        acquisition=FleetLaunchAcquisition(
            launcher=launcher, lease_manager=lease_manager,
            replacement_tenant="dynamic"),
        progress=StragglerProgress(policy or DynamicPolicy()),
        completion=FleetCompletion(lease_manager=lease_manager),
        service=service,
        strategy=f"{plan.strategy}+dynamic",
        label="execute_with_monitoring",
    )
    result = core.run()
    return result.report, result.events
