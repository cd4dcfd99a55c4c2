"""One event-driven execution kernel behind every runner entry point.

The public runners — :func:`~repro.runner.execute.execute_plan`,
:func:`~repro.runner.dynamic.execute_with_monitoring`,
:func:`~repro.runner.fault_tolerant.execute_fault_tolerant` and
:func:`~repro.runner.spot.execute_plan_spot`, and the leased stages of
:class:`~repro.dag.scheduler.DagScheduler` — share one launch →
boot-barrier → process → bill → terminate loop.  :class:`ExecutionCore` is
that loop, on the cloud's :class:`~repro.sim.engine.SimulationEngine`:
fleet start is an engine event at the boot barrier, every bin completion is
an engine event (feeding the :class:`FleetTimeline` of every run), and
every decision is delegated to three policy protocols:

* :class:`AcquisitionPolicy` — how instances are obtained: a plain or
  resilient fleet launch (:class:`FleetLaunchAcquisition`) or per-bin warm
  leases from a :class:`~repro.fleet.lease.LeaseManager`
  (:class:`LeaseAcquisition`).  The same policy also answers *replacement*
  acquisition, so straggler and crash recovery share one penalty-timing
  implementation (:func:`~repro.resilience.launch.acquire_replacement`)
  instead of hand-rolling it per runner.
* :class:`ProgressPolicy` — how one bin's units become a duration: run to
  completion (:class:`RunToCompletion`), probe-and-replace stragglers
  (:class:`StragglerProgress`), or batch with crash recovery
  (:class:`CrashProgress`).
* :class:`CompletionPolicy` — how outcomes are settled and the run wound
  down.  :class:`FleetCompletion` is the one settle rule: the instance
  that finished a bin pays its ceil-hour bill from the second the
  progress policy names (:attr:`BinOutcome.billed_from`), or goes back to
  its lease manager.  Spot capacity bills itself per segment
  (:class:`~repro.runner.spot.SpotCompletion`).

Each entry point is a ~ten-line policy configuration over this core and
reproduces its seed implementation bit-for-bit — durations, makespans,
misses, bills, ledger records, lease and fault counters
(``tests/test_runner_core_differential.py`` proves it against the frozen
copies in ``tests/reference_runners.py``).

Span/metric taxonomy (one vocabulary for all runners, ``cat="runner"``):

========================================  =====================================
``runner.task.run`` (span)                a bin (or bin remainder) processing
``runner.probe.chunk`` (span)             straggler-probe head of a bin
``runner.batch.run`` (span)               one crash-recovery batch
``runner.replacement.penalty`` (span)     boot/attach gap before a replacement
``runner.crash.recovery`` (span)          detection + replacement window
``runner.straggler.replaced`` (instant)   a slow instance was retired
``runner.replacement.unavailable``        replacement denied under faults
``runner.crash.detected`` (instant)       a crash was noticed
``runner.bin.failed`` (instant)           a bin gave up (exhausted/faulted)
``runner.tasks.completed`` (counter)      completed bins, by strategy
``runner.batches.completed`` (counter)    completed crash-recovery batches
``runner.crashes.detected`` (counter)     crashes noticed
``runner.units.requeued`` (counter)       units redone after a lost batch
``runner.replacements`` (counter)         straggler replacements, by source
``runner.replacements.unavailable``       replacements denied
``runner.bins.failed`` (counter)          failed bins, by reason
``runner.launches.failed`` (counter)      fleet launches refused outright
``runner.task.seconds`` (histogram)       completed-bin durations
``runner.probe.ratio`` (histogram)        expected/observed probe throughput
``runner.deadline.margin`` (gauge)        deadline − makespan, by strategy
``runner.deadline.misses`` (counter)      per-instance deadline misses
========================================  =====================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

import numpy as np

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.obs.ledger import (
    RunRecord,
    encode_metrics_dump,
    get_run_ledger,
    span_rollup,
)
from repro.runner.execute import ExecutionReport, FailedBin, InstanceRun
from repro.units import HOUR, billed_hours
from repro.vfs.files import Catalogue, volume_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.instance import Instance
    from repro.fleet.lease import Lease, LeaseManager
    from repro.resilience.launch import ResilientLauncher

__all__ = [
    "AcquisitionPolicy",
    "BinGrant",
    "BinOutcome",
    "CompletionPolicy",
    "CoreResult",
    "CrashEvent",
    "CrashProgress",
    "ExecutionCore",
    "FleetCompletion",
    "FleetLaunchAcquisition",
    "FleetTimeline",
    "LeaseAcquisition",
    "ProgressPolicy",
    "ReplacementEvent",
    "RunToCompletion",
    "StagePolicy",
    "StragglerProgress",
]


# --------------------------------------------------------------------------
# shared result shapes
# --------------------------------------------------------------------------


@dataclass
class FleetTimeline:
    """Progress snapshots collected as completion events fire."""

    points: list[tuple[float, int, int]] = field(default_factory=list)
    # (simulated time, instances still working, instances completed)

    def record(self, t: float, working: int, completed: int) -> None:
        """Append one snapshot."""
        self.points.append((t, working, completed))


@dataclass
class ReplacementEvent:
    """A straggler was retired in favour of a fresh/leased instance."""

    bin_index: int
    old_instance: str
    new_instance: str
    at_progress: float
    observed_ratio: float


@dataclass(frozen=True)
class CrashEvent:
    """One detected crash (progress of the in-flight batch was lost)."""

    bin_index: int
    instance_id: str
    at_elapsed: float          # seconds into the bin's work
    lost_batch_units: int


@dataclass
class BinGrant:
    """One bin's acquired capacity, ready to process.

    ``launch_wait`` is resilience-absorbed latency (backoff, hung boots)
    before the final boot; ``boot_delay`` is the full submission-to-work
    latency the report carries; ``work_start`` is the absolute simulated
    time processing begins.
    """

    index: int
    units: Sequence
    instance: "Instance"
    launch_wait: float = 0.0
    boot_delay: float = 0.0
    work_start: float = 0.0
    predicted: float = 0.0
    lease: "Lease | None" = None
    span_extra: dict = field(default_factory=dict)


@dataclass
class BinOutcome:
    """What processing one bin produced.

    Exactly one of ``run`` / ``failure`` is set.  ``active`` is the
    instance that finished the bin (a replacement after straggler or
    crash recovery), ``active_lease`` its lease when a manager owns it,
    ``billed_from`` the bin-relative second its bill starts, and ``end``
    the absolute completion time the engine event fires at.
    """

    run: InstanceRun | None = None
    failure: FailedBin | None = None
    active: "Instance | None" = None
    active_lease: "Lease | None" = None
    billed_from: float = 0.0
    duration: float = 0.0
    end: float = 0.0


@dataclass
class CoreResult:
    """Everything one core run produced."""

    report: ExecutionReport
    timeline: FleetTimeline
    events: list


@dataclass
class CoreContext:
    """Mutable state shared by the core and its policies during one run."""

    cloud: Cloud
    svc: ExecutionService
    plan: ProvisioningPlan
    workload: Workload
    acquisition: "AcquisitionPolicy"
    report: ExecutionReport
    bill: bool = True
    timeline: FleetTimeline = field(default_factory=FleetTimeline)
    events: list = field(default_factory=list)
    occupied: list[tuple[int, Sequence]] = field(default_factory=list)
    by_index: dict[int, Sequence] = field(default_factory=dict)
    predicted: dict[int, float] = field(default_factory=dict)
    grants: list[BinGrant] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    work_start: float = 0.0
    working: int = 0
    completed: int = 0

    @property
    def engine(self):
        return self.cloud.engine

    @property
    def obs(self):
        return self.cloud.obs


# --------------------------------------------------------------------------
# policy protocols
# --------------------------------------------------------------------------


class AcquisitionPolicy(Protocol):
    """How instances are obtained — for the fleet and for replacements."""

    def acquire_fleet(self, ctx: CoreContext) -> None:
        """Obtain up-front capacity; record launch failures on the report."""

    def work_start_time(self, ctx: CoreContext) -> float | None:
        """Absolute time work begins, or ``None`` if there is nothing to run."""

    def on_work_start(self, ctx: CoreContext) -> None:
        """Fleet-ready hook: transition instances to RUNNING, set the rate."""

    def grants(self, ctx: CoreContext) -> Iterable[BinGrant]:
        """Yield one grant per occupied bin, in bin order."""

    def replacement(self, ctx: CoreContext, *, at: float,
                    est_seconds: float = 0.0, bin_index: int | None = None,
                    boot_attach_penalty: float = 180.0,
                    warm_attach_penalty: float = 30.0):
        """Acquire a replacement instance; returns (instance, lease, penalty)."""


class ProgressPolicy(Protocol):
    """How one granted bin's units become a duration (and maybe events)."""

    def execute(self, ctx: CoreContext, grant: BinGrant) -> BinOutcome:
        """Process one bin; return its run-or-failure outcome."""
        ...


class CompletionPolicy:
    """How outcomes are settled: billing truth, replans, wind-down.

    The base records each outcome on the report and does nothing else;
    :class:`FleetCompletion` adds the one ceil-hour settle rule and
    wind-down, and :class:`~repro.runner.spot.SpotCompletion` the spot
    variant whose segments bill themselves.
    """

    def after_acquisition(self, ctx: CoreContext) -> None:
        """Between launch and boot barrier (degradation replans live here)."""

    def settle_bin(self, ctx: CoreContext, grant: BinGrant,
                   outcome: BinOutcome) -> None:
        """Record the outcome on the report (subclasses add billing)."""
        if outcome.failure is not None:
            ctx.report.failures.append(outcome.failure)
        else:
            ctx.report.runs.append(outcome.run)

    def finalize(self, ctx: CoreContext) -> None:
        """Advance to the horizon, terminate, emit fleet-level metrics."""


# --------------------------------------------------------------------------
# acquisition policies
# --------------------------------------------------------------------------


def FleetLaunchAcquisition(*, launcher: "ResilientLauncher | None" = None,
                           lease_manager: "LeaseManager | None" = None,
                           replacement_tenant: str = "runner"):
    """Private fleet: one (possibly resilient) launch per occupied bin.

    A factory over :class:`~repro.capacity.BrokerAcquisition`: with a
    ``launcher`` the stack is a
    :class:`~repro.capacity.ResilientBroker`, otherwise a plain
    :class:`~repro.capacity.OnDemandBroker`.  Refused launches are
    recorded as :class:`~repro.runner.execute.FailedBin` entries.
    Replacements route through
    :func:`~repro.resilience.launch.acquire_replacement` with this
    policy's launcher and (optional) lease manager, so warm re-attach vs
    fresh-boot penalty timing is decided in exactly one place.
    """
    from repro.capacity import BrokerAcquisition, OnDemandBroker, ResilientBroker

    broker = OnDemandBroker() if launcher is None else ResilientBroker(launcher)
    return BrokerAcquisition(
        broker, launcher=launcher, lease_manager=lease_manager,
        replacement_tenant=replacement_tenant)


def LeaseAcquisition(manager: "LeaseManager", *, tenant: str = "default",
                     campaign: str | None = None):
    """Shared fleet: every bin draws (and returns) a lease from a manager.

    A factory over a lazy :class:`~repro.capacity.BrokerAcquisition`
    stacked on one :class:`~repro.capacity.WarmLeaseBroker`: grants are
    requested one bin at a time, because releasing bin *n*'s lease back
    to the warm pool is what lets bin *n+1* warm-hit it — the
    acquire/run/release interleaving is part of the fleet's economics
    and is preserved exactly.
    """
    from repro.capacity import BrokerAcquisition, WarmLeaseBroker

    return BrokerAcquisition(
        WarmLeaseBroker(manager, tenant=tenant, campaign=campaign),
        lazy=True, lease_manager=manager, replacement_tenant=tenant,
        campaign=campaign)


# --------------------------------------------------------------------------
# progress policies
# --------------------------------------------------------------------------


class RunToCompletion:
    """The null progress policy: one measured run per bin, no monitoring."""

    def execute(self, ctx: CoreContext, grant: BinGrant) -> BinOutcome:
        """Measure the whole bin in one run; emit the task span."""
        duration = ctx.svc.run(grant.instance, grant.units, ctx.workload,
                               advance_clock=False)
        run = InstanceRun(
            instance_id=grant.instance.instance_id,
            n_units=len(grant.units),
            volume=volume_of(grant.units),
            boot_delay=grant.boot_delay,
            duration=duration,
            predicted=grant.predicted,
        )
        end = grant.work_start + duration
        obs = ctx.obs
        if obs.enabled:
            # Instances work in parallel off a common start, so the span is
            # recorded retrospectively on the instance's own track.
            obs.tracer.add_span("runner.task.run", grant.work_start, end,
                                cat="runner", track=grant.instance.instance_id,
                                bin=grant.index, n_units=len(grant.units),
                                predicted=grant.predicted,
                                strategy=ctx.report.strategy,
                                **grant.span_extra)
            obs.metrics.counter("runner.tasks.completed",
                                strategy=ctx.report.strategy).inc()
            obs.metrics.histogram("runner.task.seconds").observe(duration)
        return BinOutcome(run=run, active=grant.instance,
                          active_lease=grant.lease, duration=duration, end=end)


def _running_sizes(units) -> np.ndarray:
    """Running byte totals along a bin: from a catalogue's column, else its units."""
    if isinstance(units, Catalogue):
        return np.cumsum(units.sizes())
    return np.cumsum(np.array([u.size for u in units], dtype=np.int64))


def _split_point(units: list, fraction: float) -> int:
    """Index splitting ``units`` so the head holds ≈``fraction`` of bytes:
    just past the first running total that reaches that share."""
    total = volume_of(units)
    if total == 0:
        return len(units)
    first = int(np.searchsorted(_running_sizes(units), fraction * total))
    return min(first + 1, len(units))


def _cut(units, a: int, b: int):
    """Units ``a:b`` of a bin: a run of a catalogue bin, else a list slice."""
    if isinstance(units, Catalogue):
        b = min(b, len(units))
        return units._take(range(a, b), f"{units.name}[{a}:{b}]")
    return units[a:b]


class StragglerProgress:
    """Probe each bin, retire measured-slow instances to a replacement.

    Implements the §7 monitor-and-reschedule loop: the probe chunk's
    observed throughput is compared to the plan's implied throughput;
    below the policy threshold the bin's remainder moves to a replacement
    drawn through the acquisition policy (warm lease re-attach or fresh
    boot — one shared penalty-timing path).  The retired straggler's
    partial hours are billed at retirement.
    """

    def __init__(self, policy) -> None:
        self.policy = policy

    def execute(self, ctx: CoreContext, grant: BinGrant) -> BinOutcome:
        """Probe the bin; retire the instance if measured slow."""
        from repro.chaos import ChaosError
        from repro.resilience.launch import CapacityError

        policy = self.policy
        obs = ctx.obs
        inst, idx, units = grant.instance, grant.index, grant.units
        work_start, predicted = grant.work_start, grant.predicted

        split = _split_point(units, policy.probe_fraction)
        probe, rest = _cut(units, 0, split), _cut(units, split, len(units))
        probe_volume = volume_of(probe)
        volume = volume_of(units)

        t_probe = ctx.svc.run(inst, probe, ctx.workload, advance_clock=False)
        expected_probe = predicted * (probe_volume / volume) if volume else t_probe
        effective = max(t_probe - policy.setup_allowance, 1e-9)
        ratio = expected_probe / effective
        if obs.enabled:
            obs.tracer.add_span("runner.probe.chunk", work_start,
                                work_start + t_probe, cat="runner",
                                track=inst.instance_id, bin=idx,
                                observed_ratio=round(ratio, 4))
            obs.metrics.histogram("runner.probe.ratio",
                                  buckets=(0.25, 0.5, 0.7, 0.9, 1.0, 1.2, 2.0)
                                  ).observe(ratio)

        duration = t_probe
        active = inst
        active_lease = None   # set when the replacement is a fleet lease
        billed_from = 0.0  # elapsed time from which `active` is billed
        replacements = 0
        if (
            rest
            and ratio < policy.slow_threshold
            and replacements < policy.max_replacements_per_bin
        ):
            if policy.replace_at == "hour-boundary":
                # §7's cheaper variant: the straggler's hour is already
                # paid, so let it keep chewing through the bin until just
                # before the boundary, then hand over only what remains.
                boundary = HOUR * billed_hours(max(duration, 1.0))
                window = boundary - duration
                straggler_rate = probe_volume / max(t_probe, 1e-9)
                budget = straggler_rate * window
                # The leading units whose running total fits the budget.
                done = int(np.searchsorted(_running_sizes(rest), budget,
                                           side="right"))
                if done:
                    duration += ctx.svc.run(active, _cut(rest, 0, done),
                                            ctx.workload, advance_clock=False)
                    rest = _cut(rest, done, len(rest))
            rest_volume = volume_of(rest)
            est_rest = (predicted * (rest_volume / volume)
                        if volume else t_probe)
            launcher = getattr(ctx.acquisition, "launcher", None)
            if launcher is not None:
                # Observable feedback: this zone produced a straggler, so
                # later acquisitions deprioritise it.
                launcher.note_slow_zone(active.zone.name)
            replacement = None
            try:
                # Warm lease: already booted inside a paid hour — only
                # the EBS move is paid.  Cold/fresh: boot plus attach.
                replacement, lease, penalty = ctx.acquisition.replacement(
                    ctx, at=work_start + duration, est_seconds=est_rest,
                    bin_index=idx,
                    boot_attach_penalty=policy.replacement_penalty,
                    warm_attach_penalty=policy.attach_penalty)
            except (ChaosError, CapacityError):
                # No replacement to be had under the installed faults:
                # keep the straggler working (§7's "let them run"
                # fallback) rather than fail the bin outright.
                if obs.enabled:
                    obs.tracer.instant("runner.replacement.unavailable",
                                       cat="runner",
                                       track=active.instance_id, bin=idx)
                    obs.metrics.counter(
                        "runner.replacements.unavailable").inc()
            if replacement is not None:
                # Retire the straggler; its (partial) hours are billed
                # anyway.
                ctx.cloud.ledger.record(active.instance_id, active.itype.name,
                                        work_start, work_start + duration,
                                        active.itype.hourly_rate)
                ctx.events.append(ReplacementEvent(
                    bin_index=idx,
                    old_instance=active.instance_id,
                    new_instance=replacement.instance_id,
                    at_progress=(volume - volume_of(rest)) / volume
                    if volume else 1.0,
                    observed_ratio=ratio,
                ))
                if obs.enabled:
                    obs.tracer.instant("runner.straggler.replaced",
                                       cat="runner",
                                       track=active.instance_id, bin=idx,
                                       replacement=replacement.instance_id,
                                       source=lease.source if lease else "boot",
                                       observed_ratio=round(ratio, 4))
                    obs.tracer.add_span(
                        "runner.replacement.penalty", work_start + duration,
                        work_start + duration + penalty,
                        cat="runner", track=replacement.instance_id, bin=idx)
                    obs.metrics.counter("runner.replacements",
                                        mode=policy.replace_at,
                                        source=lease.source if lease else "boot",
                                        ).inc()
                active.terminate(max(ctx.cloud.now, work_start + duration))
                duration += penalty
                active = replacement
                active_lease = lease
                billed_from = duration
                replacements += 1

        if rest:
            t_rest_start = duration
            duration += ctx.svc.run(active, rest, ctx.workload,
                                    advance_clock=False)
            if obs.enabled:
                obs.tracer.add_span("runner.task.run",
                                    work_start + t_rest_start,
                                    work_start + duration, cat="runner",
                                    track=active.instance_id, bin=idx,
                                    n_units=len(rest))

        run = InstanceRun(
            instance_id=active.instance_id,
            n_units=len(units),
            volume=volume,
            boot_delay=grant.launch_wait + active.boot_delay,
            duration=duration,
            predicted=predicted,
        )
        return BinOutcome(run=run, active=active, active_lease=active_lease,
                          billed_from=billed_from, duration=duration,
                          end=work_start + duration)


class CrashProgress:
    """Batch each bin and redo lost batches on replacement instances.

    Implements the §7 recovery loop: a crash mid-batch loses that batch's
    progress, the monitor notices after the detection timeout, and a
    replacement (drawn through the acquisition policy — fresh boot or
    warm lease, one shared penalty-timing path) redoes it.  Crashed
    instances bill their partial hours at the crash; exhausting the crash
    budget fails the bin (or raises, per policy).
    """

    def __init__(self, policy) -> None:
        self.policy = policy

    def execute(self, ctx: CoreContext, grant: BinGrant) -> BinOutcome:
        """Run the bin in batches, redoing any batch lost to a crash."""
        from repro.chaos import ChaosError
        from repro.fleet.lease import LeaseError
        from repro.resilience.launch import CapacityError

        policy = self.policy
        obs = ctx.obs
        inst, idx, units = grant.instance, grant.index, grant.units
        work_start = grant.work_start

        elapsed = 0.0
        crashes = 0
        active = inst
        active_lease = None
        active_started = 0.0  # elapsed at which `active` began working
        bin_billed_hours = 0  # hours already billed to crashed instances
        failed_bin: FailedBin | None = None
        batches = [_cut(units, i, i + policy.batch_units)
                   for i in range(0, len(units), policy.batch_units)]
        b = 0
        while b < len(batches):
            batch = batches[b]
            t_batch = ctx.svc.run(active, batch, ctx.workload,
                                  advance_clock=False)
            ttf = active.time_to_failure
            survives = (ttf is None
                        or elapsed - active_started + t_batch <= ttf)
            if survives:
                if obs.enabled:
                    obs.tracer.add_span(
                        "runner.batch.run", work_start + elapsed,
                        work_start + elapsed + t_batch, cat="runner",
                        track=active.instance_id, bin=idx, batch=b,
                        units=len(batch))
                    obs.metrics.counter("runner.batches.completed").inc()
                elapsed += t_batch
                b += 1
                continue
            # Crash mid-batch: progress of this batch is lost.
            crashes += 1
            crash_elapsed = active_started + (ttf or 0.0)
            if crashes > policy.max_crashes_per_bin:
                if policy.on_exhaustion == "raise":
                    raise RuntimeError(
                        f"bin {idx}: more than {policy.max_crashes_per_bin} "
                        "crashes; the cloud is unusable")
                # Report the bin as failed: the hours are billed, the
                # completed units counted, and the campaign continues.
                active.fail(ctx.cloud.now)
                rec = ctx.cloud.ledger.record(active.instance_id,
                                              active.itype.name,
                                              work_start + active_started,
                                              work_start + crash_elapsed,
                                              active.itype.hourly_rate)
                bin_billed_hours += rec.hours
                completed = sum(len(batches[i]) for i in range(b))
                failed_bin = FailedBin(
                    bin_index=idx, reason="crash-exhausted",
                    n_units=len(units),
                    volume=volume_of(units),
                    completed_units=completed,
                    elapsed=crash_elapsed + policy.detection_timeout,
                    billed_hours=bin_billed_hours)
                if obs.enabled:
                    obs.tracer.instant("runner.bin.failed", cat="runner",
                                       track=active.instance_id, bin=idx,
                                       crashes=crashes,
                                       completed_units=completed)
                    obs.metrics.counter("runner.bins.failed",
                                        reason="crash-exhausted").inc()
                break
            ctx.events.append(CrashEvent(
                bin_index=idx,
                instance_id=active.instance_id,
                at_elapsed=crash_elapsed,
                lost_batch_units=len(batch),
            ))
            if obs.enabled:
                obs.tracer.instant("runner.crash.detected", cat="runner",
                                   track=active.instance_id, bin=idx,
                                   lost_units=len(batch))
                obs.tracer.add_span(
                    "runner.crash.recovery", work_start + crash_elapsed,
                    work_start + crash_elapsed + policy.detection_timeout
                    + policy.replacement_penalty, cat="runner",
                    track=active.instance_id, bin=idx)
                obs.metrics.counter("runner.crashes.detected").inc()
                obs.metrics.counter("runner.units.requeued").inc(len(batch))
            elapsed = crash_elapsed + policy.detection_timeout
            # Bill the crashed instance for the hours it actually ran (the
            # runner tracks per-bin wall time off the global clock, so the
            # ledger entry is written explicitly rather than via
            # ``cloud.fail_instance``).
            active.fail(ctx.cloud.now)
            rec = ctx.cloud.ledger.record(active.instance_id,
                                          active.itype.name,
                                          work_start + active_started,
                                          work_start + crash_elapsed,
                                          active.itype.hourly_rate)
            bin_billed_hours += rec.hours
            try:
                active, active_lease, penalty = ctx.acquisition.replacement(
                    ctx, at=work_start + elapsed, bin_index=idx,
                    boot_attach_penalty=policy.replacement_penalty,
                    warm_attach_penalty=policy.attach_penalty)
            except (ChaosError, CapacityError, LeaseError) as e:
                completed = sum(len(batches[i]) for i in range(b))
                failed_bin = FailedBin(
                    bin_index=idx,
                    reason=f"replacement-failed: {e}",
                    n_units=len(units),
                    volume=volume_of(units),
                    completed_units=completed,
                    elapsed=elapsed,
                    billed_hours=bin_billed_hours)
                if obs.enabled:
                    obs.metrics.counter("runner.bins.failed",
                                        reason="replacement-failed").inc()
                break
            elapsed += penalty
            active_started = elapsed
            # loop re-runs batch ``b`` on the replacement

        if failed_bin is not None:
            return BinOutcome(failure=failed_bin, active=active,
                              duration=failed_bin.elapsed)
        run = InstanceRun(
            instance_id=active.instance_id,
            n_units=len(units),
            volume=volume_of(units),
            boot_delay=grant.launch_wait + inst.boot_delay,
            duration=elapsed,
            predicted=grant.predicted,
        )
        # The survivor bills the whole bin span (``billed_from=0``), crash
        # detection and replacement penalties included, on top of the
        # partial hours its crashed predecessors already billed.
        return BinOutcome(run=run, active=active, active_lease=active_lease,
                          duration=elapsed, end=work_start + elapsed)


# --------------------------------------------------------------------------
# completion policies
# --------------------------------------------------------------------------


class FleetCompletion(CompletionPolicy):
    """The one settle rule and wind-down for every non-spot runner.

    The instance that finished a bin pays its ceil-hour bill over
    ``[grant.work_start + outcome.billed_from, outcome.end]``: the whole
    bin for plain and crash-recovered runs, the replacement's span after
    a straggler hand-over (the retired straggler billed itself at
    retirement).  A finisher on a lease is released to ``lease_manager``
    instead, which bills it when it retires the instance.  Wind-down
    advances the cloud clock to the last bin's end and terminates the
    RUNNING instances this run launched, leaving the manager's own.
    """

    def __init__(self, *, lease_manager: "LeaseManager | None" = None,
                 measure_retrieval: bool = False) -> None:
        self.lease_manager = lease_manager
        self.measure_retrieval = measure_retrieval

    def after_acquisition(self, ctx: CoreContext) -> None:
        """Re-pack orphaned units onto survivors (degradation replan)."""
        launcher = getattr(ctx.acquisition, "launcher", None)
        if not (ctx.report.failures and ctx.grants and launcher is not None
                and launcher.degradation is not None):
            return
        # Graceful degradation: spread the orphaned units over the bins
        # that did get instances, scaling their predicted times so the
        # probe/miss logic still has a meaningful baseline.
        orphans = [u for f in ctx.report.failures
                   for u in ctx.by_index[f.bin_index]]
        replan = launcher.degradation.replan(
            [g.units for g in ctx.grants], orphans,
            predicted_times=[g.predicted for g in ctx.grants])
        for g, merged, t in zip(ctx.grants, replan.assignments,
                                replan.predicted_times):
            g.units = list(merged)
            ctx.by_index[g.index] = g.units
            g.predicted = t
            ctx.predicted[g.index] = t
        ctx.report.failures = [
            FailedBin(f.bin_index, f.reason, f.n_units, f.volume,
                      absorbed=True)
            for f in ctx.report.failures
        ]
        if ctx.obs.enabled:
            ctx.obs.tracer.instant("resilience.degradation.replan",
                                   cat="resilience", moved=replan.moved_units,
                                   survivors=len(ctx.grants))
            ctx.obs.metrics.counter("resilience.replans").inc()

    def settle_bin(self, ctx: CoreContext, grant: BinGrant,
                   outcome: BinOutcome) -> None:
        """Record the outcome; bill (or release) the finishing instance."""
        super().settle_bin(ctx, grant, outcome)
        if outcome.run is None:
            return
        lease = grant.lease
        if lease is not None:
            ctx.plan.annotate_lease(grant.index, lease.source, lease.lease_id)
            ctx.report.rate = lease.instance.itype.hourly_rate
        if outcome.active_lease is not None:
            self.lease_manager.release(outcome.active_lease, outcome.end)
        elif ctx.bill:
            active = outcome.active
            ctx.cloud.ledger.record(active.instance_id, active.itype.name,
                                    grant.work_start + outcome.billed_from,
                                    outcome.end, active.itype.hourly_rate)

    def finalize(self, ctx: CoreContext) -> None:
        """Advance, terminate this run's instances, emit metrics, measure S3."""
        cloud = ctx.cloud
        if ctx.ends:
            horizon = max(ctx.ends)
            if horizon > cloud.now:
                cloud.advance(horizon - cloud.now)
        launched = {g.instance.instance_id for g in ctx.grants}
        launched.update(r.instance_id for r in ctx.report.runs)
        manager = self.lease_manager
        for inst in cloud.running_instances():
            if inst.instance_id in launched and not (
                    manager is not None and manager.owns(inst.instance_id)):
                inst.terminate(cloud.now)
        self._emit_fleet_metrics(ctx)
        if self.measure_retrieval and ctx.report.runs:
            # Each processed unit file yields one result object in S3; the
            # §1 retrieval advantage of reshaping comes from this object
            # count.
            plan = ctx.plan
            meta_by_run: list[tuple[str, int]] = []
            for g in ctx.grants:
                for j, unit in enumerate(g.units):
                    key = f"results/{plan.strategy}/{g.instance.instance_id}/{j}"
                    # result size ~ proportional to the unit's input size
                    cloud.s3.put(key, max(1, unit.size // 100))
                    meta_by_run.append((key, unit.size))
            rng = cloud.rng.fork(f"retrieval.{plan.strategy}.{len(meta_by_run)}")
            ctx.report.retrieval_seconds = cloud.s3.retrieval_time(
                [k for k, _ in meta_by_run], rng)

    def _emit_fleet_metrics(self, ctx: CoreContext) -> None:
        obs = ctx.obs
        if not obs.enabled:
            return
        report = ctx.report
        obs.metrics.gauge("runner.deadline.margin", strategy=report.strategy
                          ).set(report.deadline - report.makespan)
        if report.n_missed:
            obs.metrics.counter("runner.deadline.misses",
                                strategy=report.strategy).inc(report.n_missed)


# --------------------------------------------------------------------------
# stage policies (multi-stage / DAG execution)
# --------------------------------------------------------------------------


@dataclass
class StagePolicy:
    """One DAG stage's policy triple over the execution core.

    A multi-stage scheduler (:mod:`repro.dag`) runs every ready stage
    through the same three protocols a single-plan run uses; a
    ``StagePolicy`` names the triple one stage executes under.  When a
    stage completes the scheduler terminates its private (unleased)
    instances; leased capacity stays with its shared
    :class:`~repro.fleet.lease.LeaseManager`, which is what lets a later
    stage warm-hit the paid hours an earlier stage released.
    """

    acquisition: AcquisitionPolicy
    progress: ProgressPolicy
    completion: CompletionPolicy

    @classmethod
    def leased(cls, manager: "LeaseManager", *, tenant: str = "stage",
               campaign: str | None = None) -> "StagePolicy":
        """Shared-fleet stage: per-bin leases, manager-owned billing.

        Stages sharing one ``manager`` hand paid hours across stage
        boundaries — a bin released by stage *n* is a warm hit for stage
        *n+1* (or for a sibling running concurrently).
        """
        return cls(
            acquisition=LeaseAcquisition(manager, tenant=tenant,
                                         campaign=campaign),
            progress=RunToCompletion(),
            completion=FleetCompletion(lease_manager=manager),
        )

    @classmethod
    def fleet(cls) -> "StagePolicy":
        """Private-fleet stage: ``execute_plan`` semantics per stage."""
        return cls(
            acquisition=FleetLaunchAcquisition(),
            progress=RunToCompletion(),
            completion=FleetCompletion(),
        )

    @classmethod
    def spot(cls, board, ladder, *, stats=None, chaos=None,
             escalation=None) -> "StagePolicy":
        """Market-capacity stage: ``execute_plan_spot`` semantics per stage.

        Stages sharing one ``board``/``ladder``/``stats`` triple see one
        coherent spot market across the whole DAG.  ``escalation`` is the
        broker stack escalated segments draw from — ``None`` means plain
        on-demand; a :class:`~repro.capacity.LadderBroker` over a
        :class:`~repro.capacity.WarmLeaseBroker` lets escalated segments
        warm-hit hours a sibling stage already paid for.
        """
        from repro.runner.spot import (
            SpotAcquisition,
            SpotCompletion,
            SpotProgress,
            SpotRunStats,
        )

        stats = stats if stats is not None else SpotRunStats()
        acquisition = SpotAcquisition(board, ladder=ladder, stats=stats,
                                      escalation=escalation)
        return cls(
            acquisition=acquisition,
            progress=SpotProgress(board, ladder, acquisition=acquisition,
                                  chaos=chaos, stats=stats),
            completion=SpotCompletion(stats=stats),
        )


# --------------------------------------------------------------------------
# the core
# --------------------------------------------------------------------------


class ExecutionCore:
    """Run a :class:`ProvisioningPlan` under a policy triple.

    One event-driven loop: acquisition obtains capacity, the fleet-ready
    barrier is an engine event, every bin's processing schedules a
    completion event (feeding the :class:`FleetTimeline`), and the
    completion policy settles billing and winds the fleet down.
    """

    def __init__(
        self,
        cloud: Cloud,
        workload: Workload,
        plan: ProvisioningPlan,
        *,
        acquisition: AcquisitionPolicy,
        progress: ProgressPolicy,
        completion: CompletionPolicy,
        service: ExecutionService | None = None,
        strategy: str | None = None,
        bill: bool = True,
        label: str | None = None,
        record_kind: str = "runner",
    ) -> None:
        self.cloud = cloud
        self.workload = workload
        self.plan = plan
        self.acquisition = acquisition
        self.progress = progress
        self.completion = completion
        self.service = service
        self.strategy = strategy if strategy is not None else plan.strategy
        self.bill = bill
        self.label = label if label is not None else "core"
        self.record_kind = record_kind

    def run(self) -> CoreResult:
        """Execute the plan under the policy triple; return everything.

        When a run ledger is active (:func:`~repro.obs.ledger
        .get_run_ledger`), the run also emits one :class:`RunRecord` with
        the phase profile measured around the three stages below — this
        single hook point is what gives every entry point flight
        recording.
        """
        ctx = self.build_context()
        engine = self.cloud.engine
        fired0 = engine.events_fired
        walls = [time.perf_counter()]
        sims = [engine.now]
        self.acquisition.acquire_fleet(ctx)
        self.completion.after_acquisition(ctx)
        walls.append(time.perf_counter())
        sims.append(engine.now)
        start = self.acquisition.work_start_time(ctx)
        if start is not None:
            # Drive the *cloud* clock so chaos outage onsets step exactly
            # as a plain ``cloud.advance`` does; the event target uses the
            # cloud's own float arithmetic, so the callback fires at the
            # precise post-advance clock.
            now = self.cloud.now
            if start > now:
                seconds = start - now
                engine.schedule_at(now + seconds, lambda: self._process(ctx),
                                   label="fleet-ready")
                self.cloud.advance(seconds)
            else:
                engine.schedule_at(engine.now, lambda: self._process(ctx),
                                   label="fleet-ready")
                engine.run(until=engine.now)
        walls.append(time.perf_counter())
        sims.append(engine.now)
        self.completion.finalize(ctx)
        walls.append(time.perf_counter())
        sims.append(engine.now)
        ledger = get_run_ledger()
        if ledger is not None:
            self._emit_record(ledger, ctx, walls, sims,
                              engine.events_fired - fired0)
        return CoreResult(report=ctx.report, timeline=ctx.timeline,
                          events=ctx.events)

    def build_context(self) -> CoreContext:
        """The mutable per-run state, occupied bins resolved from the plan.

        :meth:`run` builds one implicitly; a multi-stage scheduler
        (:mod:`repro.dag`) builds one per stage and drives
        :meth:`process` from its own engine events instead of calling
        :meth:`run`, so several stages can be in flight on one engine.
        """
        plan = self.plan
        ctx = CoreContext(
            cloud=self.cloud,
            svc=self.service or ExecutionService(self.cloud),
            plan=plan,
            workload=self.workload,
            acquisition=self.acquisition,
            report=ExecutionReport(deadline=plan.deadline,
                                   strategy=self.strategy),
            bill=self.bill,
        )
        # Bins are kept as the plan holds them: a catalogue plan's bins are
        # index slices, so pricing reads their columns and builds no file.
        ctx.occupied = [(i, units)
                        for i, units in enumerate(plan.assignments) if units]
        ctx.by_index = dict(ctx.occupied)
        ctx.predicted = {
            idx: (plan.predicted_times[idx] if idx < len(plan.predicted_times)
                  else 0.0)
            for idx, _ in ctx.occupied
        }
        return ctx

    def process(self, ctx: CoreContext) -> None:
        """Public alias for the fleet-ready processing loop.

        Call at the stage's work-start time (the engine clock must sit at
        the barrier) after ``acquisition.acquire_fleet`` and
        ``completion.after_acquisition`` have run on ``ctx``.
        """
        self._process(ctx)

    def _emit_record(self, ledger, ctx: CoreContext, walls: list[float],
                     sims: list[float], events_fired: int) -> None:
        """Build this run's flight-recorder entry and append it."""
        report, obs = ctx.report, ctx.obs
        wall_s = walls[3] - walls[0]
        n_bins = len(ctx.by_index)
        phase_names = ("acquire", "execute", "finalize")
        ledger.append(RunRecord(
            kind=self.record_kind,
            label=self.label,
            config={
                "strategy": self.strategy,
                "seed": getattr(ctx.cloud.rng, "seed", None),
                "bins": n_bins,
                "units": sum(len(u) for u in ctx.by_index.values()),
                "bill": self.bill,
                "policies": {
                    "acquisition": type(self.acquisition).__name__,
                    "progress": type(self.progress).__name__,
                    "completion": type(self.completion).__name__,
                },
            },
            metrics=(encode_metrics_dump(obs.metrics.dump())
                     if obs.metrics.enabled else []),
            spans=span_rollup(obs.tracer) if obs.tracer.enabled else {},
            billing=ctx.cloud.ledger.summary(),
            deadline={
                "deadline_s": ctx.plan.deadline,
                "makespan_s": report.makespan,
                "margin_s": ctx.plan.deadline - report.makespan,
                "missed": report.n_missed,
                "failed": report.n_failed,
                "bins": n_bins,
                "miss_rate": (report.n_missed / n_bins) if n_bins else 0.0,
            },
            profile={
                "wall_s": wall_s,
                "sim_start": sims[0],
                "sim_end": sims[3],
                "sim_s": sims[3] - sims[0],
                "events_fired": events_fired,
                "events_per_s": events_fired / wall_s if wall_s > 0 else 0.0,
                "phases": {
                    name: {"wall_s": walls[i + 1] - walls[i],
                           "sim_s": sims[i + 1] - sims[i]}
                    for i, name in enumerate(phase_names)
                },
            },
        ))

    # -- the one processing loop ------------------------------------------

    def _process(self, ctx: CoreContext) -> None:
        """Fleet-ready event: process every bin, then batch-schedule the
        completion events.

        Completions are collected during the loop and scheduled in one
        :meth:`~repro.sim.engine.SimulationEngine.schedule_batch` call —
        nothing inside ``execute``/``settle_bin`` advances the engine
        clock, so deferring the scheduling to after the loop leaves the
        firing order (and therefore every report, ledger and timeline)
        bit-identical to per-grant ``schedule_at`` calls while amortising
        the per-event scheduling overhead across the fleet.
        """
        ctx.work_start = ctx.engine.now
        self.acquisition.on_work_start(ctx)
        done: list[BinOutcome] = []
        for grant in self.acquisition.grants(ctx):
            outcome = self.progress.execute(ctx, grant)
            self.completion.settle_bin(ctx, grant, outcome)
            if outcome.run is not None:
                ctx.working += 1
                ctx.ends.append(outcome.end)
                done.append(outcome)
        if done:
            def complete() -> None:
                ctx.working -= 1
                ctx.completed += 1
                ctx.timeline.record(ctx.engine.now, ctx.working,
                                    ctx.completed)

            ctx.engine.schedule_batch(
                [outcome.end for outcome in done], complete,
                [f"complete:{outcome.run.instance_id}" for outcome in done])
