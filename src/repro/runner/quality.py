"""Quality-aware fleet execution (§7 future work).

Before assigning data, each fleet member is given a lightweight bonnie
probe; the tracker classifies it and the §7 "different predictors for each
instance quality level" logic decides how much data each instance
receives.  On a heterogeneous fleet this narrows the spread of per-instance
finish times compared to uniform shares — fewer marginal misses for the
same instance count (probing time itself is charged).
"""

from __future__ import annotations

from repro.cloud.bonnie import BONNIE_DURATION, bonnie_probe
from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.perfmodel.quality import QualityTracker
from repro.runner.execute import ExecutionReport, InstanceRun
from repro.vfs.files import Catalogue

__all__ = ["execute_quality_aware"]


def execute_quality_aware(
    cloud: Cloud,
    workload: Workload,
    catalogue: Catalogue,
    deadline: float,
    n_instances: int,
    tracker: QualityTracker,
    *,
    service: ExecutionService | None = None,
) -> tuple[ExecutionReport, list[str]]:
    """Run ``catalogue`` on ``n_instances``, shares sized by measured quality.

    The tracker must already hold per-band observations (from probing or
    prior campaigns) so it can answer ``volume_for(band, deadline)``.
    Returns the report plus each instance's quality label.
    """
    if n_instances < 1:
        raise ValueError("need at least one instance")
    svc = service or ExecutionService(cloud)

    instances = [cloud.launch_instance(wait=False) for _ in range(n_instances)]
    latest = max(i.ready_at for i in instances)
    if latest > cloud.now:
        cloud.advance(latest - cloud.now)
    for inst in instances:
        inst.mark_running(cloud.now)

    # Lightweight vetting pass: one bonnie run per instance.  The probes
    # run concurrently, so wall-clock accounting (``work_start``, the
    # BONNIE_DURATION added to each duration below) treats them as one
    # 120 s fleet-wide step even though the engine clock steps serially.
    work_start = cloud.now
    labels: list[str] = []
    for inst in instances:
        res = bonnie_probe(cloud, inst)
        labels.append(tracker.classify(res))

    shares = tracker.share_out(labels, catalogue.total_size, deadline)
    # carve the catalogue into contiguous runs of the prescribed sizes
    sizes = catalogue.sizes().tolist()
    bounds: list[list[int]] = []
    idx = 0
    for share in shares:
        start, acc = idx, 0
        while idx < len(sizes) and acc < share:
            acc += sizes[idx]
            idx += 1
        bounds.append([start, idx])
    bounds[-1][1] = len(sizes)  # rounding tail
    assignments = [catalogue._take(range(a, b), f"{catalogue.name}/share{i}")
                   for i, (a, b) in enumerate(bounds)]

    report = ExecutionReport(deadline=deadline, strategy="quality-aware")
    runs: list[InstanceRun] = []
    for inst, units, label in zip(instances, assignments, labels):
        if not units:
            duration = 0.0
        else:
            duration = svc.run(inst, units, workload, advance_clock=False)
        duration += BONNIE_DURATION  # the probe is part of the wall clock
        runs.append(InstanceRun(
            instance_id=inst.instance_id,
            n_units=len(units),
            volume=units.total_size,
            boot_delay=inst.boot_delay,
            duration=duration,
            predicted=float(tracker.predictor_for(label).predict(
                units.total_size)) if units else 0.0,
        ))
        cloud.ledger.record(inst.instance_id, inst.itype.name,
                            work_start, work_start + duration,
                            inst.itype.hourly_rate)
    report.runs = runs
    report.rate = instances[0].itype.hourly_rate
    cloud.advance(max(r.duration for r in runs))
    for inst in instances:
        inst.terminate(cloud.now)
    return report, labels
