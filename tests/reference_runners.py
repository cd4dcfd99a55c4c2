"""Seed runner implementations, frozen as differential oracles.

These are the four execution loops exactly as they existed before the
policy-driven :mod:`repro.runner.core` unified them — verbatim copies,
only the imports adjusted (dataclasses come from :mod:`repro.runner`, the
shared launch/replacement helpers from :mod:`repro.resilience.launch`).
``tests/test_runner_core_differential.py`` runs each oracle and its
unified counterpart on identically-seeded clouds and asserts bit-equality
of every report field, ledger record, lease counter and fault outcome.

The loops keep each bin as a list of unit views.  The pricing service
and the degradation planner take catalogues, so each list reaches them
through ``as_catalogue``: a catalogue of the same sizes and stats, which
is all that either reads.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

import math

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.fleet.lease import LeaseManager
from repro.runner import (
    CrashEvent,
    DynamicPolicy,
    ExecutionReport,
    FailedBin,
    FaultPolicy,
    InstanceRun,
    ReplacementEvent,
)
from repro.units import HOUR
from tests.catalogues import as_catalogue

__all__ = [
    "execute_plan_reference",
    "execute_with_monitoring_reference",
    "execute_fault_tolerant_reference",
    "execute_on_fleet_reference",
]


def execute_plan_reference(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    service: ExecutionService | None = None,
    bill: bool = True,
    measure_retrieval: bool = False,
    launcher=None,
) -> ExecutionReport:
    """Seed ``execute_plan`` (arithmetic form), verbatim."""
    from repro.resilience.launch import launch_fleet

    svc = service or ExecutionService(cloud)
    obs = cloud.obs
    report = ExecutionReport(deadline=plan.deadline, strategy=plan.strategy)
    occupied = [(i, list(units)) for i, units in enumerate(plan.assignments) if units]
    by_index = dict(occupied)

    granted, failed = launch_fleet(cloud, [i for i, _ in occupied],
                                   launcher=launcher)
    for idx, reason in failed:
        units = by_index[idx]
        report.failures.append(FailedBin(
            bin_index=idx, reason=reason, n_units=len(units),
            volume=sum(u.size for u in units)))

    predicted_by_index = {
        idx: (plan.predicted_times[idx] if idx < len(plan.predicted_times)
              else 0.0)
        for idx, _ in occupied
    }
    if (failed and granted and launcher is not None
            and launcher.degradation is not None):
        orphans = [u for idx, _ in failed for u in by_index[idx]]
        replan = launcher.degradation.replan(
            [as_catalogue(by_index[idx]) for idx, _, _ in granted],
            as_catalogue(orphans),
            predicted_times=[predicted_by_index[idx] for idx, _, _ in granted])
        for (idx, _, _), merged, t in zip(granted, replan.assignments,
                                          replan.predicted_times):
            by_index[idx] = list(merged)
            predicted_by_index[idx] = t
        report.failures = [
            FailedBin(f.bin_index, f.reason, f.n_units, f.volume,
                      absorbed=True)
            for f in report.failures
        ]
        if obs.enabled:
            obs.tracer.instant("resilience.degradation.replan",
                               cat="resilience", moved=replan.moved_units,
                               survivors=len(granted))
            obs.metrics.counter("resilience.replans").inc()

    instances = [inst for _, inst, _ in granted]
    waits = {inst.instance_id: w for _, inst, w in granted}
    if instances:
        latest_ready = max(i.ready_at + waits[i.instance_id]
                           for i in instances)
        if latest_ready > cloud.now:
            cloud.advance(latest_ready - cloud.now)
        for inst in instances:
            inst.mark_running(cloud.now)
        report.rate = instances[0].itype.hourly_rate

    runs: list[InstanceRun] = []
    work_start = cloud.now
    for idx, inst, wait in granted:
        units = by_index[idx]
        duration = svc.run(inst, as_catalogue(units), workload, advance_clock=False)
        predicted = predicted_by_index[idx]
        runs.append(InstanceRun(
            instance_id=inst.instance_id,
            n_units=len(units),
            volume=sum(u.size for u in units),
            boot_delay=wait + inst.boot_delay,
            duration=duration,
            predicted=predicted,
        ))
        if obs.enabled:
            obs.tracer.add_span("runner.task.run", work_start,
                                work_start + duration, cat="runner",
                                track=inst.instance_id, bin=idx,
                                n_units=len(units), predicted=predicted,
                                strategy=plan.strategy)
            obs.metrics.counter("runner.tasks.completed",
                                strategy=plan.strategy).inc()
            obs.metrics.histogram("runner.task.seconds").observe(duration)
        if bill:
            cloud.ledger.record(inst.instance_id, inst.itype.name,
                                work_start, work_start + duration,
                                inst.itype.hourly_rate)
    report.runs = runs
    if runs:
        cloud.advance(max(r.duration for r in runs))
    for inst in instances:
        inst.terminate(cloud.now)
    if obs.enabled:
        obs.metrics.gauge("runner.deadline.margin", strategy=plan.strategy
                          ).set(report.deadline - report.makespan)
        if report.n_missed:
            obs.metrics.counter("runner.deadline.misses",
                                strategy=plan.strategy).inc(report.n_missed)

    if measure_retrieval and runs:
        meta_by_run: list[tuple[str, int]] = []
        for idx, inst, _ in granted:
            for j, unit in enumerate(by_index[idx]):
                key = f"results/{plan.strategy}/{inst.instance_id}/{j}"
                cloud.s3.put(key, max(1, unit.size // 100))
                meta_by_run.append((key, unit.size))
        rng = cloud.rng.fork(f"retrieval.{plan.strategy}.{len(meta_by_run)}")
        report.retrieval_seconds = cloud.s3.retrieval_time(
            [k for k, _ in meta_by_run], rng)
    return report


def _split_point(units: list, fraction: float) -> int:
    total = sum(u.size for u in units)
    if total == 0:
        return len(units)
    acc = 0
    for i, u in enumerate(units):
        acc += u.size
        if acc >= fraction * total:
            return i + 1
    return len(units)


def execute_with_monitoring_reference(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    policy: DynamicPolicy | None = None,
    service: ExecutionService | None = None,
    lease_manager: "LeaseManager | None" = None,
    launcher=None,
) -> tuple[ExecutionReport, list[ReplacementEvent]]:
    """Seed ``execute_with_monitoring``, verbatim."""
    from repro.chaos import ChaosError
    from repro.resilience.launch import CapacityError, acquire_replacement, launch_fleet

    policy = policy or DynamicPolicy()
    svc = service or ExecutionService(cloud)
    obs = cloud.obs
    report = ExecutionReport(deadline=plan.deadline, strategy=f"{plan.strategy}+dynamic")
    events: list[ReplacementEvent] = []

    occupied = [(i, list(units)) for i, units in enumerate(plan.assignments) if units]
    by_index = dict(occupied)
    granted, failed_launches = launch_fleet(cloud, [i for i, _ in occupied],
                                            launcher=launcher)
    for idx, reason in failed_launches:
        units = by_index[idx]
        report.failures.append(FailedBin(
            bin_index=idx, reason=reason, n_units=len(units),
            volume=sum(u.size for u in units)))
    instances = [inst for _, inst, _ in granted]
    if instances:
        latest = max(inst.ready_at + wait for _, inst, wait in granted)
        if latest > cloud.now:
            cloud.advance(latest - cloud.now)
        for inst in instances:
            inst.mark_running(cloud.now)
        report.rate = instances[0].itype.hourly_rate

    work_start = cloud.now
    runs: list[InstanceRun] = []
    for idx, inst, launch_wait in granted:
        units = by_index[idx]
        predicted = plan.predicted_times[idx] if idx < len(plan.predicted_times) else 0.0
        split = _split_point(units, policy.probe_fraction)
        probe, rest = units[:split], units[split:]
        probe_volume = sum(u.size for u in probe)
        volume = sum(u.size for u in units)

        t_probe = svc.run(inst, as_catalogue(probe), workload, advance_clock=False)
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
        active_lease = None
        active_since = 0.0
        replacements = 0
        if (
            rest
            and ratio < policy.slow_threshold
            and replacements < policy.max_replacements_per_bin
        ):
            if policy.replace_at == "hour-boundary":
                boundary = HOUR * math.ceil(max(duration, 1.0) / HOUR)
                window = boundary - duration
                straggler_rate = probe_volume / max(t_probe, 1e-9)
                budget = straggler_rate * window
                done = 0
                acc = 0
                for u in rest:
                    if acc + u.size > budget:
                        break
                    acc += u.size
                    done += 1
                if done:
                    duration += svc.run(active, as_catalogue(rest[:done]), workload,
                                        advance_clock=False)
                    rest = rest[done:]
            rest_volume = sum(u.size for u in rest)
            est_rest = (predicted * (rest_volume / volume)
                        if volume else t_probe)
            if launcher is not None:
                launcher.note_slow_zone(active.zone.name)
            replacement = None
            try:
                replacement, lease, penalty = acquire_replacement(
                    cloud, at=work_start + duration, est_seconds=est_rest,
                    lease_manager=lease_manager, launcher=launcher,
                    tenant="dynamic", campaign=f"bin-{idx}",
                    boot_attach_penalty=policy.replacement_penalty,
                    warm_attach_penalty=policy.attach_penalty)
            except (ChaosError, CapacityError):
                if obs.enabled:
                    obs.tracer.instant("runner.replacement.unavailable",
                                       cat="runner",
                                       track=active.instance_id, bin=idx)
                    obs.metrics.counter(
                        "runner.replacements.unavailable").inc()
            if replacement is not None:
                cloud.ledger.record(active.instance_id, active.itype.name,
                                    work_start, work_start + duration,
                                    active.itype.hourly_rate)
                events.append(ReplacementEvent(
                    bin_index=idx,
                    old_instance=active.instance_id,
                    new_instance=replacement.instance_id,
                    at_progress=(volume - sum(u.size for u in rest)) / volume
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
                active.terminate(max(cloud.now, work_start + duration))
                duration += penalty
                active = replacement
                active_lease = lease
                active_since = duration
                replacements += 1

        if rest:
            t_rest_start = duration
            duration += svc.run(active, as_catalogue(rest), workload, advance_clock=False)
            if obs.enabled:
                obs.tracer.add_span("runner.task.run",
                                    work_start + t_rest_start,
                                    work_start + duration, cat="runner",
                                    track=active.instance_id, bin=idx,
                                    n_units=len(rest))

        runs.append(InstanceRun(
            instance_id=active.instance_id,
            n_units=len(units),
            volume=volume,
            boot_delay=launch_wait + active.boot_delay,
            duration=duration,
            predicted=predicted,
        ))
        if active_lease is not None:
            lease_manager.release(active_lease, work_start + duration)
        else:
            cloud.ledger.record(active.instance_id, active.itype.name,
                                work_start + active_since,
                                work_start + duration,
                                active.itype.hourly_rate)

    report.runs = runs
    if runs:
        cloud.advance(max(r.duration for r in runs))
    for inst in cloud.running_instances():
        if lease_manager is not None and lease_manager.owns(inst.instance_id):
            continue
        inst.terminate(cloud.now)
    if obs.enabled:
        obs.metrics.gauge("runner.deadline.margin", strategy=report.strategy
                          ).set(report.deadline - report.makespan)
    return report, events


class _BinState:
    def __init__(self) -> None:
        self.elapsed = 0.0
        self.crashes = 0


def execute_fault_tolerant_reference(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    policy: FaultPolicy | None = None,
    service: ExecutionService | None = None,
    launcher=None,
) -> tuple[ExecutionReport, list[CrashEvent]]:
    """Seed ``execute_fault_tolerant``, verbatim."""
    from repro.chaos import ChaosError
    from repro.resilience.launch import CapacityError, acquire_replacement, launch_fleet

    policy = policy or FaultPolicy()
    svc = service or ExecutionService(cloud)
    obs = cloud.obs
    report = ExecutionReport(deadline=plan.deadline,
                             strategy=f"{plan.strategy}+fault-tolerant")
    events: list[CrashEvent] = []

    occupied = [(i, list(units)) for i, units in enumerate(plan.assignments) if units]
    by_index = dict(occupied)
    granted, failed_launches = launch_fleet(cloud, [i for i, _ in occupied],
                                            launcher=launcher)
    for idx, reason in failed_launches:
        units = by_index[idx]
        report.failures.append(FailedBin(
            bin_index=idx, reason=reason, n_units=len(units),
            volume=sum(u.size for u in units)))
    instances = [inst for _, inst, _ in granted]
    if instances:
        latest = max(inst.ready_at + wait for _, inst, wait in granted)
        if latest > cloud.now:
            cloud.advance(latest - cloud.now)
        for inst in instances:
            inst.mark_running(cloud.now)
        report.rate = instances[0].itype.hourly_rate
    work_start = cloud.now

    runs: list[InstanceRun] = []
    for idx, inst, launch_wait in granted:
        units = by_index[idx]
        state = _BinState()
        active = inst
        active_started = 0.0
        bin_billed_hours = 0
        failed_bin: FailedBin | None = None
        batches = [units[i:i + policy.batch_units]
                   for i in range(0, len(units), policy.batch_units)]
        b = 0
        while b < len(batches):
            batch = batches[b]
            t_batch = svc.run(active, as_catalogue(batch), workload, advance_clock=False)
            ttf = active.time_to_failure
            survives = (ttf is None
                        or state.elapsed - active_started + t_batch <= ttf)
            if survives:
                if obs.enabled:
                    obs.tracer.add_span(
                        "runner.batch.run", work_start + state.elapsed,
                        work_start + state.elapsed + t_batch, cat="runner",
                        track=active.instance_id, bin=idx, batch=b,
                        units=len(batch))
                    obs.metrics.counter("runner.batches.completed").inc()
                state.elapsed += t_batch
                b += 1
                continue
            state.crashes += 1
            crash_elapsed = active_started + (ttf or 0.0)
            if state.crashes > policy.max_crashes_per_bin:
                if policy.on_exhaustion == "raise":
                    raise RuntimeError(
                        f"bin {idx}: more than {policy.max_crashes_per_bin} "
                        "crashes; the cloud is unusable")
                active.fail(cloud.now)
                rec = cloud.ledger.record(active.instance_id,
                                          active.itype.name,
                                          work_start + active_started,
                                          work_start + crash_elapsed,
                                          active.itype.hourly_rate)
                bin_billed_hours += rec.hours
                completed = sum(len(batches[i]) for i in range(b))
                failed_bin = FailedBin(
                    bin_index=idx, reason="crash-exhausted",
                    n_units=len(units),
                    volume=sum(u.size for u in units),
                    completed_units=completed,
                    elapsed=crash_elapsed + policy.detection_timeout,
                    billed_hours=bin_billed_hours)
                if obs.enabled:
                    obs.tracer.instant("runner.bin.failed", cat="runner",
                                       track=active.instance_id, bin=idx,
                                       crashes=state.crashes,
                                       completed_units=completed)
                    obs.metrics.counter("runner.bins.failed",
                                        reason="crash-exhausted").inc()
                break
            events.append(CrashEvent(
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
            state.elapsed = crash_elapsed + policy.detection_timeout
            active.fail(cloud.now)
            rec = cloud.ledger.record(active.instance_id, active.itype.name,
                                      work_start + active_started,
                                      work_start + crash_elapsed,
                                      active.itype.hourly_rate)
            bin_billed_hours += rec.hours
            try:
                active, _, penalty = acquire_replacement(
                    cloud, at=work_start + state.elapsed, launcher=launcher,
                    boot_attach_penalty=policy.replacement_penalty)
            except (ChaosError, CapacityError) as e:
                completed = sum(len(batches[i]) for i in range(b))
                failed_bin = FailedBin(
                    bin_index=idx,
                    reason=f"replacement-failed: {e}",
                    n_units=len(units),
                    volume=sum(u.size for u in units),
                    completed_units=completed,
                    elapsed=state.elapsed,
                    billed_hours=bin_billed_hours)
                if obs.enabled:
                    obs.metrics.counter("runner.bins.failed",
                                        reason="replacement-failed").inc()
                break
            state.elapsed += penalty
            active_started = state.elapsed

        if failed_bin is not None:
            report.failures.append(failed_bin)
            continue
        runs.append(InstanceRun(
            instance_id=active.instance_id,
            n_units=len(units),
            volume=sum(u.size for u in units),
            boot_delay=launch_wait + inst.boot_delay,
            duration=state.elapsed,
            predicted=plan.predicted_times[idx]
            if idx < len(plan.predicted_times) else 0.0,
        ))
        cloud.ledger.record(active.instance_id, active.itype.name,
                            work_start, work_start + state.elapsed,
                            active.itype.hourly_rate)

    report.runs = runs
    if runs:
        cloud.advance(max(r.duration for r in runs))
    for inst in cloud.running_instances():
        inst.terminate(cloud.now)
    if obs.enabled:
        obs.metrics.gauge("runner.deadline.margin", strategy=report.strategy
                          ).set(report.deadline - report.makespan)
    return report, events


def execute_on_fleet_reference(
    leases: LeaseManager,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    tenant: str = "default",
    campaign: str | None = None,
    service: ExecutionService | None = None,
) -> ExecutionReport:
    """Seed ``execute_on_fleet``, verbatim."""
    cloud: Cloud = leases.cloud
    svc = service or ExecutionService(cloud)
    obs = cloud.obs
    label = campaign or f"{plan.strategy}-campaign"
    report = ExecutionReport(deadline=plan.deadline,
                             strategy=f"{plan.strategy}+fleet")
    t0 = cloud.now
    runs: list[InstanceRun] = []
    ends: list[float] = []
    for idx, units in enumerate(plan.assignments):
        if not units:
            continue
        predicted = (plan.predicted_times[idx]
                     if idx < len(plan.predicted_times) else 0.0)
        lease = leases.acquire(tenant, est_seconds=predicted, at=t0,
                               campaign=label)
        duration = svc.run(lease.instance, as_catalogue(units), workload,
                           advance_clock=False)
        end = lease.ready_at + duration
        leases.release(lease, end)
        plan.annotate_lease(idx, lease.source, lease.lease_id)
        report.rate = lease.instance.itype.hourly_rate
        runs.append(InstanceRun(
            instance_id=lease.instance.instance_id,
            n_units=len(units),
            volume=sum(u.size for u in units),
            boot_delay=lease.ready_at - t0,
            duration=duration,
            predicted=predicted,
        ))
        ends.append(end)
        if obs.enabled:
            obs.tracer.add_span("runner.task.run", lease.ready_at, end,
                                cat="runner", track=lease.instance.instance_id,
                                bin=idx, n_units=len(units),
                                predicted=predicted, tenant=tenant,
                                source=lease.source,
                                strategy=report.strategy)
            obs.metrics.counter("runner.tasks.completed",
                                strategy=report.strategy).inc()
    report.runs = runs
    if ends:
        horizon = max(ends)
        if horizon > cloud.now:
            cloud.advance(horizon - cloud.now)
    if obs.enabled:
        obs.metrics.gauge("runner.deadline.margin", strategy=report.strategy
                          ).set(report.deadline - report.makespan)
        if report.n_missed:
            obs.metrics.counter("runner.deadline.misses",
                                strategy=report.strategy).inc(report.n_missed)
    return report
