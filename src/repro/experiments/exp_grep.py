"""Grep experiments: Figs. 3–6 and Eqs. (1)–(2) (§5.1).

All volumes are scaled 10× down from the paper (10 GB standing in for the
100 GB production run); every shape under test is a ratio and survives the
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance
from repro.cloud.ebs import EbsVolume
from repro.cloud.instance import Instance
from repro.corpus import html_18mil_like
from repro.packing import PackingCache
from repro.perfmodel import ProbeCampaign, ProbeSet, build_probe_set, fit_affine
from repro.perfmodel.sampling import collect_sample_points, refit_with_samples
from repro.report.figures import FigureResult
from repro.obs.ledger import record_experiment
from repro.units import GB, KB, MB
from repro.vfs.files import Catalogue

__all__ = ["GrepTestbed", "make_testbed", "fig3", "fig4", "fig5", "fig6"]


@dataclass
class GrepTestbed:
    """A vetted instance with an attached EBS volume, ready for probes."""

    cloud: Cloud
    instance: Instance
    volume: EbsVolume
    service: ExecutionService
    workload: Workload
    catalogue: Catalogue
    campaign: ProbeCampaign


def make_testbed(seed: int = 7, scale: float = 1.1e-2, repeats: int = 5) -> GrepTestbed:
    """Vet an instance (§4) and stage the HTML catalogue for probing."""
    cloud = Cloud(seed=seed)
    catalogue = html_18mil_like(scale=scale)
    instance, _ = acquire_good_instance(cloud)
    volume = cloud.create_volume(size_gb=1000, zone=instance.zone)
    volume.attach(instance)
    service = ExecutionService(cloud)
    workload = Workload("grep", GrepApplication(), GrepCostProfile())
    campaign = ProbeCampaign(service, instance, workload, storage=volume,
                             repeats=repeats)
    return GrepTestbed(cloud, instance, volume, service, workload, catalogue, campaign)


def _measure_sweep(tb: GrepTestbed, ps: ProbeSet, labels: list) -> dict:
    """Measure the ``labels`` of one probe set; returns {label: Measurement}."""
    return {label: tb.campaign.measure(ps.variants[label],
                                       directory=f"probes/v{ps.volume}/{label}")
            for label in labels}


def _nested_probe_sets(catalogue: Catalogue, sizes_by_volume: dict) -> dict:
    """Probe sets of nested catalogue heads, ``{volume: ProbeSet}``.

    They are built largest first from one cache, so every smaller head's
    packs are cut from the largest head's (§4: "we perform the bin packing
    once").  Building touches no clock or random stream, so callers still
    measure in their own order.
    """
    cache = PackingCache()
    return {vol: build_probe_set(catalogue, vol, sizes_by_volume[vol], cache=cache)
            for vol in sorted(sizes_by_volume, reverse=True)}


def fig3(tb: GrepTestbed | None = None) -> tuple[FigureResult, dict]:
    """Fig. 3: grep on a 1 MB probe — values tiny, deviations huge."""
    tb = tb or make_testbed(scale=2e-4)
    sizes = [100 * KB, 250 * KB, 500 * KB, 1 * MB]
    res = _measure_sweep(tb, build_probe_set(tb.catalogue, 1 * MB, sizes),
                         ["orig"] + sizes)
    fig = FigureResult("Fig3", "grep on 1 MB volume: unstable small probes")
    labels = list(res)
    fig.add("mean seconds (unit size)", [str(l) for l in labels],
            [res[l].mean for l in labels], yerr=[res[l].std for l in labels])
    max_cv = max(m.cv for m in res.values())
    fig.note(f"max coefficient of variation {max_cv:.2f} — discarded as too "
             "unstable, per the §4 protocol")
    record_experiment("exp_grep.fig3", extra={"max_cv": max_cv})
    return fig, {"max_cv": max_cv, "means": {l: m.mean for l, m in res.items()}}


def fig4(tb: GrepTestbed | None = None) -> tuple[FigureResult, dict]:
    """Fig. 4: grep on 5 GB — plateau from the 10 MB unit size up to 2 GB."""
    tb = tb or make_testbed()
    sizes = [1 * MB, 10 * MB, 100 * MB, 500 * MB, 1 * GB, 2 * GB]
    res = _measure_sweep(tb, build_probe_set(tb.catalogue, 5 * GB, sizes),
                         ["orig"] + sizes)
    fig = FigureResult("Fig4", "grep on 5 GB volume vs unit file size")
    fig.add("mean seconds", ["orig"] + [s // MB for s in sizes],
            [res["orig"].mean] + [res[s].mean for s in sizes],
            yerr=[res["orig"].std] + [res[s].std for s in sizes])
    plateau = [res[s].mean for s in sizes if s >= 10 * MB]
    out = {
        "orig_over_plateau": res["orig"].mean / min(plateau),
        "plateau_spread": (max(plateau) - min(plateau)) / min(plateau),
        "small_unit_penalty": res[1 * MB].mean / min(plateau),
        "means": {("orig" if l == "orig" else l): m.mean for l, m in res.items()},
    }
    fig.note(f"original files {out['orig_over_plateau']:.1f}x slower than the plateau; "
             f"plateau spread {out['plateau_spread']:.1%} across 10 MB–2 GB")
    record_experiment("exp_grep.fig4", extra=out)
    return fig, out


def fig5(tb: GrepTestbed | None = None) -> tuple[FigureResult, dict]:
    """Fig. 5: fine unit-size sampling at 1/2/10 GB — repeatable spikes."""
    tb = tb or make_testbed()
    sizes = [10 * MB, 20 * MB, 40 * MB, 60 * MB, 80 * MB, 100 * MB,
             150 * MB, 200 * MB, 300 * MB, 400 * MB, 500 * MB]
    fig = FigureResult("Fig5", "grep on 1, 2 and 10 GB: EBS placement spikes")
    spikes: list[tuple[int, int, float]] = []
    repeat_checks: list[float] = []
    usable_by_volume = {vol: [s for s in sizes if s <= vol]
                        for vol in (1 * GB, 2 * GB, 10 * GB)}
    probe_sets = _nested_probe_sets(tb.catalogue, usable_by_volume)
    for vol, usable in usable_by_volume.items():
        res = _measure_sweep(tb, probe_sets[vol], usable)
        means = np.array([res[s].mean for s in usable])
        med = float(np.median(means))
        fig.add(f"{vol // GB} GB volume", [s // MB for s in usable], means)
        for s, m in zip(usable, means):
            if m > 1.25 * med:
                spikes.append((vol, s, float(m / med)))
                # repeatability: measure the same directory again, on a
                # direct pack at s
                ps = build_probe_set(tb.catalogue, vol, [s])
                again = tb.campaign.measure(ps.variants[s],
                                            directory=f"probes/v{vol}/{s}")
                repeat_checks.append(again.mean / m)
    out = {"spikes": spikes, "repeat_ratios": repeat_checks}
    fig.note(f"{len(spikes)} spike(s) above 1.25x the volume median; "
             f"re-measured ratios {['%.2f' % r for r in repeat_checks]} "
             "(repeatable, ruling out transient contention — §5.1)")
    record_experiment("exp_grep.fig5", extra=out)
    return fig, out


def fig6(tb: GrepTestbed | None = None, *, n_devices: int = 10) -> tuple[FigureResult, dict]:
    """Fig. 6 + Eqs. (1)–(2): model fit, full-run prediction, reshaping gain.

    10 GB stands in for the paper's 100 GB; the run executes on a fresh
    *unvetted* instance with data across ``n_devices`` EBS devices — the
    sources of the paper's ~30 % underestimate (instance heterogeneity and
    placement variability the clean-instance model never saw).
    """
    tb = tb or make_testbed()
    unit = 100 * MB

    # -- Eq. (1): fit on the vetted instance at the chosen 100 MB unit size.
    xs: list[float] = []
    ys: list[float] = []
    volumes = (500 * MB, 1 * GB, 2 * GB, 5 * GB)
    probe_sets = _nested_probe_sets(tb.catalogue, {vol: [unit] for vol in volumes})
    for vol in volumes:
        m = tb.campaign.measure(probe_sets[vol].variants[unit],
                                directory=f"probes/v{vol}/{unit}")
        for t in m.values:
            xs.append(float(vol))
            ys.append(t)
    model = fit_affine(xs, ys)

    # -- Full volume on a fresh, unvetted instance, 10 EBS devices.
    total = tb.catalogue.total_size
    predicted = float(model.predict(total))

    runner = tb.cloud.launch_instance()        # no bonnie vetting on purpose
    run_vol = tb.cloud.create_volume(size_gb=2000, zone=runner.zone)
    run_vol.attach(runner)
    parts = tb.catalogue.partition_volumes(n_devices)
    reshaped_actual = 0.0
    for i, part in enumerate(parts):
        ps = build_probe_set(part, part.total_size, [unit])
        run_vol.store(f"full/dev{i}")
        reshaped_actual += tb.service.run(
            runner, ps.variants[unit], tb.workload,
            storage=run_vol, directory=f"full/dev{i}",
        )

    # -- The same data in its original segmentation.
    orig_actual = 0.0
    for i, part in enumerate(parts):
        run_vol.store(f"full_orig/dev{i}")
        orig_actual += tb.service.run(
            runner, part, tb.workload,
            storage=run_vol, directory=f"full_orig/dev{i}",
        )

    # -- Eq. (2): random-sample refit (samples at the 100 MB unit size).
    sample_pts = collect_sample_points(
        tb.campaign, tb.catalogue, tb.cloud.rng.fork("fig6.samples"),
        n_samples=5, sample_volume=1 * GB, unit_size=unit,
    )
    refit = refit_with_samples(list(zip(xs, ys)), sample_pts)
    refit_predicted = float(refit.predict(total))

    fig = FigureResult("Fig6", "grep full run: predicted vs actual, reshaped vs original")
    fig.add("seconds", ["predicted (Eq1)", "predicted (Eq2 refit)", "actual 100MB units",
                        "actual original files"],
            [predicted, refit_predicted, reshaped_actual, orig_actual])
    out = {
        "eq1": {"a": model.a, "b": model.b, "r2": model.r2},
        "eq2": {"a": refit.a, "b": refit.b, "r2": refit.r2},
        "predicted": predicted,
        "refit_predicted": refit_predicted,
        "actual": reshaped_actual,
        "orig_actual": orig_actual,
        "underestimate": reshaped_actual / predicted - 1.0,
        "refit_underestimate": reshaped_actual / refit_predicted - 1.0,
        "improvement": orig_actual / reshaped_actual,
        "runner_io_factor": runner.io_factor,
    }
    fig.note(f"Eq1: f(x) = {model.a:.3f} + {model.b:.3e}·x  (R² = {model.r2:.4f}; "
             "paper: −0.974 + 1.324e−8·x, R² = 0.999)")
    fig.note(f"underestimate {out['underestimate']:+.0%} (paper: ~30%), "
             f"after refit {out['refit_underestimate']:+.0%} (paper: ~20%)")
    fig.note(f"reshaping improvement {out['improvement']:.1f}x (paper: 5.6x)")
    record_experiment("exp_grep.fig6", extra=out)
    return fig, out
