"""POS-tagging experiments: Fig. 7–9, Eqs. (3)–(4), the novels test (§5.2)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance
from repro.cloud.instance import Instance
from repro.core.deadline import adjusted_deadline, adjustment_factor
from repro.core.planner import StaticProvisioner
from repro.corpus import agnes_grey_like, dubliners_like, text_400k_like
from repro.perfmodel import ProbeCampaign, build_probe_set
from repro.perfmodel.regression import AffinePredictor, fit_affine
from repro.perfmodel.sampling import collect_sample_points, refit_with_samples
from repro.report.figures import FigureResult
from repro.obs.ledger import get_run_ledger, record_experiment
from repro.runner import execute_plan
from repro.units import HOUR, KB, MB
from repro.vfs.files import Catalogue

__all__ = ["PosTestbed", "make_testbed", "fig7", "fit_eq3", "fit_eq4",
           "fig8", "fig9", "novels"]


@dataclass
class PosTestbed:
    """Vetted instance, local storage (the §5 POS staging assumption)."""

    cloud: Cloud
    instance: Instance
    service: ExecutionService
    workload: Workload
    catalogue: Catalogue
    campaign: ProbeCampaign


def make_testbed(seed: int = 11, scale: float = 0.87, repeats: int = 5) -> PosTestbed:
    """Default scale 0.87 puts the catalogue at the paper's operating point:
    V/f⁻¹(1 h) ≈ 26 with a fractional part ≈ 0.1–0.2, so the uniform-bin
    headroom the paper's Fig. 8(b) exploits (their 26.1 → 27) exists here
    too rather than V landing on an integer multiple of x₀."""
    cloud = Cloud(seed=seed)
    catalogue = text_400k_like(scale=scale)
    instance, _ = acquire_good_instance(cloud)
    service = ExecutionService(cloud)
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    campaign = ProbeCampaign(service, instance, workload, repeats=repeats)
    return PosTestbed(cloud, instance, service, workload, catalogue, campaign)


def _smallest_first(catalogue: Catalogue) -> Catalogue:
    """The paper picks initial probe files "among the smallest" (§4)."""
    return catalogue.sorted_by_size()


def fig7(tb: PosTestbed | None = None) -> tuple[FigureResult, dict]:
    """Fig. 7: POS on a 1000 kB probe — original segmentation fares best.

    Probe built from the smallest files (paper: 2183 original files vs 1000
    one-kB bins for the same 1000 kB volume).
    """
    tb = tb or make_testbed()
    small = _smallest_first(tb.catalogue)
    sizes = [1 * KB, 2 * KB, 5 * KB, 10 * KB, 50 * KB, 100 * KB, 500 * KB, 1000 * KB]
    ps = build_probe_set(small, 1000 * KB, sizes)
    res = {}
    for label in ps.labels():
        res[label] = tb.campaign.measure(ps.variants[label],
                                         directory=f"pos7/{label}")
    fig = FigureResult("Fig7", "POS tagging on 1000 kB vs unit file size")
    fig.add("mean seconds", ["orig"] + [s // KB for s in sizes],
            [res["orig"].mean] + [res[s].mean for s in sizes],
            yerr=[res["orig"].std] + [res[s].std for s in sizes])
    n_orig = len(ps.variants["orig"])
    n_1kb = len(ps.variants[1 * KB])
    out = {
        "n_orig_files": n_orig,
        "n_1kb_units": n_1kb,
        "orig_mean": res["orig"].mean,
        "means": {("orig" if l == "orig" else l): m.mean for l, m in res.items()},
        "degradation_at_1000kb": res[1000 * KB].mean / res["orig"].mean,
    }
    fig.note(f"{n_orig} original files vs {n_1kb} 1 kB units "
             "(paper: 2183 vs 1000)")
    fig.note(f"1000 kB units are {out['degradation_at_1000kb']:.2f}x the original "
             "segmentation — large files degrade the memory-bound tagger")
    record_experiment("exp_pos.fig7", extra=out)
    return fig, out


def fit_eq3(tb: PosTestbed, *, volumes=(200 * KB, 1 * MB, 5 * MB, 20 * MB)) -> AffinePredictor:
    """Eq. (3): affine fit from original-segmentation probes on the head."""
    xs: list[float] = []
    ys: list[float] = []
    for vol in volumes:
        ps = build_probe_set(tb.catalogue, vol, [])
        m = tb.campaign.measure(ps.variants["orig"], directory=f"eq3/v{vol}")
        for t in m.values:
            xs.append(float(ps.variants["orig"].total_size))
            ys.append(t)
    return fit_affine(xs, ys)


def fit_eq4(tb: PosTestbed, eq3: AffinePredictor, *, n_samples: int = 6,
            sample_volume: int = 40 * MB) -> AffinePredictor:
    """Eq. (4): pool in random samples and refit (§5.2).

    The samples are drawn from the whole catalogue, whose average prose is
    less complex than the head the probes read — so the refit slope drops
    below Eq. (3)'s, exactly the paper's outcome (0.7255e−4 < 0.865e−4).
    Samples larger than the probe ceiling anchor the top of the fit so the
    pooled regression actually feels them.
    """
    pts = collect_sample_points(
        tb.campaign, tb.catalogue, tb.cloud.rng.fork("eq4.samples"),
        n_samples=n_samples, sample_volume=sample_volume, unit_size=None,
    )
    base = list(zip([float(x) for x in eq3.x], [float(y) for y in eq3.y]))
    return refit_with_samples(base, pts)


def _schedule_and_run(tb: PosTestbed, model: AffinePredictor, deadline: float,
                      strategy: str, planning_deadline: float | None,
                      tag: str) -> dict:
    from repro.core.deadline import expected_misses

    prov = StaticProvisioner(model)
    plan = prov.plan(tb.catalogue, deadline, strategy=strategy,
                     planning_deadline=planning_deadline)
    report = execute_plan(tb.cloud, tb.workload, plan)
    return {
        "tag": tag,
        "plan": plan,
        "report": report,
        "instances": plan.n_instances,
        "missed": report.n_missed,
        "expected_missed": expected_misses(plan.predicted_times, deadline, model),
        "instance_hours": report.instance_hours,
        "durations": [r.duration for r in report.runs],
    }


def _variant_summary(v: dict) -> dict:
    """Bounded ledger form of one ``_schedule_and_run`` variant.

    Keeps the counts, times and missed-bin indices the figure reports and
    replaces the plan's unit lists with a digest of per-bin unit counts
    and byte totals; the plan and report objects stay in the returned dict.
    """
    plan, report = v["plan"], v["report"]
    bins = [[len(b), b.total_size] for b in plan.assignments]
    digest = hashlib.sha256(json.dumps(bins).encode()).hexdigest()[:16]
    return {
        "tag": v["tag"],
        "instances": v["instances"],
        "volume": sum(nbytes for _, nbytes in bins),
        "predicted_times": list(plan.predicted_times),
        "missed": [i for i, r in enumerate(report.runs)
                   if r.missed(report.deadline)],
        "expected_missed": v["expected_missed"],
        "instance_hours": v["instance_hours"],
        "durations": v["durations"],
        "plan_digest": digest,
    }


def _record_variants(label: str, out: dict) -> None:
    """Record ``out`` with each variant reduced to its summary."""
    if get_run_ledger() is None:
        return
    record_experiment(label, extra={
        **out, "variants": {k: _variant_summary(v)
                            for k, v in out["variants"].items()}})


def fig8(tb: PosTestbed | None = None, *, deadline: float = HOUR) -> tuple[FigureResult, dict]:
    """Fig. 8(a)–(d): D = 1 h scheduling variants."""
    tb = tb or make_testbed()
    eq3 = fit_eq3(tb)
    eq4 = fit_eq4(tb, eq3)
    a = adjustment_factor(eq4, 0.10)
    d_adj = adjusted_deadline(deadline, a)

    variants = {
        "8a_first_fit_model3": _schedule_and_run(tb, eq3, deadline, "first-fit", None, "8a"),
        "8b_uniform_model3": _schedule_and_run(tb, eq3, deadline, "uniform", None, "8b"),
        "8c_uniform_model4": _schedule_and_run(tb, eq4, deadline, "uniform", None, "8c"),
        "8d_adjusted_model4": _schedule_and_run(tb, eq4, deadline, "uniform", d_adj, "8d"),
    }
    fig = FigureResult("Fig8", f"POS scheduling for D = {deadline:.0f} s")
    for name, v in variants.items():
        fig.add(f"{name} per-instance seconds (deadline {deadline:.0f})",
                list(range(1, len(v["durations"]) + 1)), v["durations"])
        fig.note(f"{name}: {v['instances']} instances, {v['missed']} missed "
                 f"(model expected {v['expected_missed']:.1f}), "
                 f"{v['instance_hours']} instance-hours")
    out = {
        "eq3": {"a": eq3.a, "b": eq3.b, "r2": eq3.r2},
        "eq4": {"a": eq4.a, "b": eq4.b, "r2": eq4.r2},
        "adjustment_a": a,
        "adjusted_deadline": d_adj,
        "variants": variants,
    }
    fig.note(f"Eq3: f(x)={eq3.a:.3f}+{eq3.b:.3e}x (paper 0.327+0.865e-4·x); "
             f"Eq4: f(x)={eq4.a:.3f}+{eq4.b:.3e}x (paper 3.086+0.7255e-4·x)")
    fig.note(f"adjusted deadline {d_adj:.0f}s for 10% miss odds "
             "(paper: 3124 s for D=3600)")
    _record_variants("exp_pos.fig8", out)
    return fig, out


def fig9(tb: PosTestbed | None = None, *, deadline: float = 2 * HOUR) -> tuple[FigureResult, dict]:
    """Fig. 9(a)–(c): D = 2 h scheduling variants."""
    tb = tb or make_testbed()
    eq3 = fit_eq3(tb)
    eq4 = fit_eq4(tb, eq3)
    a = adjustment_factor(eq4, 0.10)
    d_adj = adjusted_deadline(deadline, a)
    variants = {
        "9a_uniform_model3": _schedule_and_run(tb, eq3, deadline, "uniform", None, "9a"),
        "9b_uniform_model4": _schedule_and_run(tb, eq4, deadline, "uniform", None, "9b"),
        "9c_adjusted_model4": _schedule_and_run(tb, eq4, deadline, "uniform", d_adj, "9c"),
    }
    fig = FigureResult("Fig9", f"POS scheduling for D = {deadline:.0f} s")
    for name, v in variants.items():
        fig.add(f"{name} per-instance seconds", list(range(1, len(v["durations"]) + 1)),
                v["durations"])
        fig.note(f"{name}: {v['instances']} instances, {v['missed']} missed, "
                 f"{v['instance_hours']} instance-hours")
    out = {"variants": variants, "adjusted_deadline": d_adj, "adjustment_a": a}
    _record_variants("exp_pos.fig9", out)
    return fig, out


def novels() -> tuple[FigureResult, dict]:
    """§5.2: Dubliners vs Agnes Grey — equal size, ≈2x tagging time.

    The tagger runs *natively* on both texts; times are the cost profile
    applied to each work account on the reference instance.
    """
    dub, agnes = dubliners_like(), agnes_grey_like()
    app = PosTaggerApplication()
    profile = PosCostProfile()

    times = {}
    works = {}
    for novel in (dub, agnes):
        unit = novel.unit()
        result = app.run_native([unit])
        # charge the *native* work counters through the profile's CPU terms
        cpu = (result.work.tokens * profile.per_token
               + result.work.context_ops * profile.per_context_op)
        cpu *= float(profile.memory_penalty(unit.size))
        times[novel.name] = cpu + profile.jvm_startup_median
        works[novel.name] = result.work

    fig = FigureResult("Novels", "POS time for equal-length novels of different complexity")
    fig.add("seconds", list(times), list(times.values()))
    out = {
        "words": {dub.name: dub.n_words, agnes.name: agnes.n_words},
        "word_gap": abs(dub.n_words - agnes.n_words),
        "times": times,
        "ratio": times[dub.name] / times[agnes.name],
        "tokens": {n: w.tokens for n, w in works.items()},
    }
    fig.note(f"word counts {out['words']} (paper: 67,496 vs 67,755, gap <300)")
    fig.note(f"time ratio {out['ratio']:.2f}x (paper: 6m32s vs 3m48s = 1.72x)")
    record_experiment("exp_pos.novels", extra=out)
    return fig, out
