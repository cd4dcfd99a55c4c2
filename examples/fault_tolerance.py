#!/usr/bin/env python
"""Surviving instance crashes with batch-level recovery (§7 + §1.1).

The cloud is configured with an aggressive failure process (MTBF of a few
minutes — far worse than real EC2, to force crashes inside one job).  The
fault-tolerant runner processes each instance's bin in batches; a crash
loses at most one batch, the monitor times out, and a replacement instance
redoes the lost batch and continues.  EBS persistence is what makes this
cheap: no data is re-staged.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, FailureModel, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import FaultPolicy, execute_fault_tolerant
from repro.units import fmt_bytes, fmt_seconds


def main() -> None:
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.327 + 0.865e-4 * x)
    catalogue = text_400k_like(scale=0.01)
    plan = StaticProvisioner(model).plan(
        reshape(catalogue, None).units, deadline=400.0, strategy="uniform")
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    print(f"corpus {fmt_bytes(catalogue.total_size)} across "
          f"{plan.n_instances} instance(s)")

    for mtbf_hours in (None, 0.2, 0.08):
        cloud = Cloud(
            seed=7,
            failure_model=FailureModel(mtbf_hours=mtbf_hours) if mtbf_hours else None,
        )
        report, events = execute_fault_tolerant(
            cloud, workload, plan,
            policy=FaultPolicy(batch_units=25, detection_timeout=60.0,
                               replacement_penalty=180.0, max_crashes_per_bin=12),
        )
        label = "no failures" if mtbf_hours is None else f"MTBF {mtbf_hours * 60:.0f} min"
        print(f"\n[{label}]")
        print(f"  crashes: {len(events)}, makespan {fmt_seconds(report.makespan)}, "
              f"{report.instance_hours} instance-hour(s) billed "
              f"(${cloud.ledger.total_cost:.3f} incl. crashed instances)")
        for ev in events:
            print(f"    bin {ev.bin_index}: {ev.instance_id} died "
                  f"{fmt_seconds(ev.at_elapsed)} in, "
                  f"{ev.lost_batch_units} unit(s) of progress redone")
        total = sum(r.volume for r in report.runs)
        assert total == plan.total_volume
        print(f"  all {fmt_bytes(total)} processed exactly once")


if __name__ == "__main__":
    main()
