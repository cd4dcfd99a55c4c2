#!/usr/bin/env python
"""Straggler replacement with EBS re-attach — the paper's §7, implemented.

A fleet drawn from a degraded cloud contains consistently-slow instances.
The static plan just eats the slowdown; the monitored run detects each
straggler after a probe chunk, retires it (its partial hour is still
billed), re-attaches the work to a fresh instance for a ~3-minute penalty,
and finishes far sooner.

Run:  python examples/dynamic_rescheduling.py
"""

import numpy as np

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.cloud.instance import HeterogeneityModel
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import DynamicPolicy, execute_plan, execute_with_monitoring
from repro.units import fmt_bytes, fmt_seconds


def main() -> None:
    # A rough neighbourhood: a third of instances run at half speed.
    bad_cloud = HeterogeneityModel(p_slow=0.35, p_very_slow=0.05,
                                   slow_range=(0.45, 0.6))

    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.327 + 0.865e-4 * x)
    catalogue = text_400k_like(scale=0.05)
    plan = StaticProvisioner(model).plan(
        reshape(catalogue, None).units, deadline=600.0, strategy="uniform")
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    print(f"corpus {fmt_bytes(catalogue.total_size)} across "
          f"{plan.n_instances} instances, deadline {fmt_seconds(plan.deadline)}")

    static = execute_plan(Cloud(seed=42, heterogeneity=bad_cloud), workload, plan)
    print(f"\nstatic:  makespan {fmt_seconds(static.makespan)}, "
          f"{static.n_missed} missed, {static.instance_hours} inst-h")

    policy = DynamicPolicy(probe_fraction=0.2, slow_threshold=0.7,
                           replacement_penalty=180.0)
    dynamic, events = execute_with_monitoring(
        Cloud(seed=42, heterogeneity=bad_cloud), workload, plan, policy=policy)
    print(f"dynamic: makespan {fmt_seconds(dynamic.makespan)}, "
          f"{dynamic.n_missed} missed, {dynamic.instance_hours} inst-h")
    print(f"\n{len(events)} straggler(s) replaced:")
    for ev in events:
        print(f"  bin {ev.bin_index}: {ev.old_instance} -> {ev.new_instance} "
              f"at {ev.at_progress:.0%} progress "
              f"(observed {ev.observed_ratio:.2f}x expected throughput)")
    if dynamic.makespan < static.makespan:
        print(f"\nreplacement wins by "
              f"{fmt_seconds(static.makespan - dynamic.makespan)} despite the "
              f"{fmt_seconds(policy.replacement_penalty)} swap penalty (§3.1)")


if __name__ == "__main__":
    main()
