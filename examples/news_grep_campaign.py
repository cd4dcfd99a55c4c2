#!/usr/bin/env python
"""Grep over a news crawl: reshaping pays for itself (§5.1).

Reproduces the Fig. 4/Fig. 6 story on a scaled-down NewsLab-like HTML
corpus: small files are several-fold slower to scan than 100 MB unit
files, and a model fitted on a vetted instance underestimates the real
fleet.

Run:  python examples/news_grep_campaign.py
"""

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance
from repro.core import reshape
from repro.corpus import html_18mil_like
from repro.perfmodel import build_probe_set, fit_affine
from repro.perfmodel.probes import ProbeCampaign
from repro.units import GB, MB, fmt_bytes, fmt_seconds


def main() -> None:
    cloud = Cloud(seed=7)
    catalogue = html_18mil_like(scale=2e-3)   # ~36k files, ~1.8 GB
    print(f"corpus: {len(catalogue)} HTML files, {fmt_bytes(catalogue.total_size)}")

    workload = Workload("grep", GrepApplication(), GrepCostProfile())
    instance, attempts = acquire_good_instance(cloud)
    print(f"vetted instance {instance.instance_id} after {attempts} attempt(s)")

    volume = cloud.create_volume(size_gb=500, zone=instance.zone)
    volume.attach(instance)
    svc = ExecutionService(cloud)
    campaign = ProbeCampaign(svc, instance, workload, storage=volume, repeats=5)

    # Sweep unit file sizes at a 1 GB probe volume.
    sizes = [1 * MB, 10 * MB, 100 * MB, 500 * MB]
    ps = build_probe_set(catalogue, 1 * GB, sizes)
    print("\nunit-size sweep at 1 GB probe volume:")
    results = {}
    for label in ps.labels():
        m = campaign.measure(ps.variants[label], directory=f"sweep/{label}")
        results[label] = m
        pretty = "orig" if label == "orig" else fmt_bytes(label)
        print(f"  {pretty:>8}: {m.mean:7.1f}s ± {m.std:.1f}")
    best = min((l for l in results if l != "orig"), key=lambda l: results[l].mean)
    print(f"original files are {results['orig'].mean / results[best].mean:.1f}x "
          f"slower than {fmt_bytes(best)} units")

    # Fit the runtime model at the chosen unit size and extrapolate.
    xs, ys = [], []
    for vol in (500 * MB, 1 * GB, int(1.7 * GB)):
        psv = build_probe_set(catalogue, vol, [100 * MB])
        m = campaign.measure(psv.variants[100 * MB], directory=f"fit/{vol}")
        for t in m.values:
            xs.append(float(vol))
            ys.append(t)
    model = fit_affine(xs, ys)
    print(f"\nmodel: f(x) = {model.a:.2f} + {model.b:.3e}·x  (R² = {model.r2:.4f})")
    print("  (paper Eq. (1): f(x) = -0.974 + 1.324e-8·x)")

    # Reshape everything and run it on a fresh, unvetted instance.
    plan = reshape(catalogue, 100 * MB)
    print(f"\nreshaped {plan.n_input_files} files -> {plan.n_units} unit files "
          f"(mean fill {plan.fill_stats()['mean_fill']:.0%})")
    runner = cloud.launch_instance()
    run_vol = cloud.create_volume(size_gb=500, zone=runner.zone)
    run_vol.attach(runner)
    run_vol.store("data")
    actual = svc.run(runner, plan.units, workload,
                     storage=run_vol, directory="data")
    predicted = float(model.predict(catalogue.total_size))
    print(f"predicted {fmt_seconds(predicted)}, actual {fmt_seconds(actual)} "
          f"({actual / predicted - 1:+.0%}; the paper missed by ~30%)")

    cloud.finalize_billing()
    print(f"\ntotal bill: ${cloud.ledger.total_cost:.3f} "
          f"({cloud.ledger.total_instance_hours} instance-hours)")


if __name__ == "__main__":
    main()
