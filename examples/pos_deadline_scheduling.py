#!/usr/bin/env python
"""Deadline scheduling for POS tagging — the Fig. 8 comparison (§5.2).

Fits the paper's Eq.(3)-style model from probes, then contrasts three
provisioning strategies for a one-hour deadline: capacity-driven first-fit
bins, uniform bins at equal cost, and the residual-adjusted deadline that
targets a 10% miss probability.

Run:  python examples/pos_deadline_scheduling.py
"""

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance
from repro.core import StaticProvisioner
from repro.core.deadline import adjusted_deadline, adjustment_factor
from repro.corpus import text_400k_like
from repro.perfmodel import build_probe_set, fit_affine
from repro.perfmodel.probes import ProbeCampaign
from repro.runner import execute_plan
from repro.units import HOUR, KB, MB, fmt_bytes, fmt_seconds


def main() -> None:
    cloud = Cloud(seed=11)
    catalogue = text_400k_like(scale=0.25)   # ~100k files, ~240 MB
    deadline = HOUR / 4                       # scaled with the corpus
    print(f"corpus: {len(catalogue)} files, {fmt_bytes(catalogue.total_size)}; "
          f"deadline {fmt_seconds(deadline)}")

    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    instance, _ = acquire_good_instance(cloud)
    svc = ExecutionService(cloud)
    campaign = ProbeCampaign(svc, instance, workload, repeats=5)

    # Probe the head of the corpus in its original segmentation (Fig. 7
    # says merging does not help the memory-bound tagger).
    xs, ys = [], []
    for vol in (500 * KB, 2 * MB, 10 * MB, 40 * MB):
        ps = build_probe_set(catalogue, vol, [])
        m = campaign.measure(ps.variants["orig"], directory=f"probe/{vol}")
        actual = sum(u.size for u in ps.variants["orig"])
        for t in m.values:
            xs.append(float(actual))
            ys.append(t)
    model = fit_affine(xs, ys)
    print(f"model: f(x) = {model.a:.2f} + {model.b:.3e}·x  (R² = {model.r2:.4f})")
    print("  (paper Eq. (3): f(x) = 0.327 + 0.865e-4·x)")

    prov = StaticProvisioner(model)
    a = adjustment_factor(model, miss_probability=0.10)
    d_adj = adjusted_deadline(deadline, a)
    print(f"residual adjustment a = {a:.3f} -> plan against "
          f"{fmt_seconds(d_adj)} to miss {fmt_seconds(deadline)} "
          "only 10% of the time")

    plans = {
        "first-fit": prov.plan(catalogue, deadline, strategy="first-fit"),
        "uniform": prov.plan(catalogue, deadline, strategy="uniform"),
        "adjusted": prov.plan(catalogue, deadline, strategy="uniform",
                              planning_deadline=d_adj),
    }
    print(f"\n{'strategy':>10} {'inst':>5} {'missed':>7} {'inst-h':>7} "
          f"{'makespan':>10} {'cost':>8}")
    reports = {}
    for name, plan in plans.items():
        report = execute_plan(cloud, workload, plan)
        reports[name] = report
        print(f"{name:>10} {report.n_instances:>5} {report.n_missed:>7} "
              f"{report.instance_hours:>7} {fmt_seconds(report.makespan):>10} "
              f"${report.cost:>6.3f}")

    from repro.report import render_gantt

    print("\nper-instance timeline of the adjusted plan:")
    print(render_gantt(reports["adjusted"]))

    cloud.finalize_billing()
    print(f"\ntotal session bill: ${cloud.ledger.total_cost:.3f}")


if __name__ == "__main__":
    main()
