#!/usr/bin/env python
"""Learning across campaigns: run history and instance-quality tracking (§7).

Day one, a fleet runs a grep campaign; every run lands in a persistent
history file and every instance's bonnie measurement trains a quality
tracker.  Day two, a new campaign skips probing entirely: the historical
predictor sizes the fleet, and quality-proportional shares flatten the
finish times on a rough neighbourhood of instances.

Run:  python examples/fleet_learning.py
"""

import tempfile

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, ExecutionService, Workload, bonnie_probe
from repro.cloud.instance import HeterogeneityModel
from repro.corpus import html_18mil_like
from repro.obs import RunLedger, RunRecord
from repro.perfmodel import HistoricalPredictor, QualityTracker
from repro.runner import execute_quality_aware
from repro.units import fmt_bytes, fmt_seconds


def main() -> None:
    rough = HeterogeneityModel(p_slow=0.4, p_very_slow=0.0,
                               slow_range=(0.5, 0.7))
    workload = Workload("grep", GrepApplication(), GrepCostProfile())

    # ---- day one: a campaign that records everything it sees -------------
    cloud = Cloud(seed=77, io_heterogeneity=rough)
    svc = ExecutionService(cloud)
    history: list[RunRecord] = []
    tracker = QualityTracker()
    day_one = html_18mil_like(scale=2e-3, seed=77)

    print("day one: running and recording")
    # Deliberately varied job sizes so every quality band's model spans a
    # range of volumes.
    fractions = (0.08, 0.12, 0.15, 0.18, 0.22, 0.25)
    remaining = day_one
    for frac in fractions:
        part = remaining.head_by_volume(int(day_one.total_size * frac))
        remaining = remaining.filter(
            lambda f, taken={g.path for g in part}: f.path not in taken)
        inst = cloud.launch_instance()
        label = tracker.classify(bonnie_probe(cloud, inst))
        t = svc.run(inst, part, workload)
        history.append(RunRecord(
            kind="history", label="grep",
            config={"instance_id": inst.instance_id, "n_units": len(part)},
            extra={"volume": part.total_size, "seconds": t}))
        tracker.record(label, part.total_size, t)
        cloud.terminate_instance(inst)
        print(f"  {inst.instance_id} [{label:>4}] {fmt_bytes(part.total_size)} "
              f"in {fmt_seconds(t)}")

    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(tmp, filename="grep_history.jsonl")
        for record in history:
            ledger.append(record)
        print(f"\nsaved {len(ledger)} run records to {ledger.path.name}")

        # ---- day two: plan from history, share by quality -----------------
        past = ledger.records(kind="history", label="grep")
        predictor = HistoricalPredictor.from_runs(
            [r.extra["volume"] for r in past],
            [r.extra["seconds"] for r in past])
        day_two = html_18mil_like(scale=4e-3, seed=78)
        processing_budget = 60.0               # per-instance processing target
        deadline = processing_budget + 120.0   # + the 2-minute bonnie probe
        capacity = predictor.inverse(processing_budget)
        n = max(1, round(day_two.total_size / capacity))
        print(f"\nday two: history predicts {fmt_bytes(capacity)} per instance "
              f"in {fmt_seconds(processing_budget)} of processing -> fleet of {n}")

        cloud2 = Cloud(seed=99, io_heterogeneity=rough)
        report, labels = execute_quality_aware(
            cloud2, workload, day_two, deadline, n, tracker)
        print(f"fleet quality labels: {labels}")
        for run, label in zip(report.runs, labels):
            print(f"  {run.instance_id} [{label:>4}] {fmt_bytes(run.volume):>9} "
                  f"in {fmt_seconds(run.duration)}")
        durs = [r.duration for r in report.runs if r.volume > 0]
        spread = (max(durs) - min(durs)) / (sum(durs) / len(durs))
        print(f"finish-time spread {spread:.0%} despite a "
              f"{min(labels) != max(labels) and 'mixed' or 'uniform'}-quality fleet; "
              f"bill ${cloud2.ledger.total_cost:.3f}")


if __name__ == "__main__":
    main()
