"""Side experiments: §3.1 instance switching, §4 protocol trace, §1 output
retrieval, and the spot-market extension."""

from __future__ import annotations


from repro.apps import GrepApplication, GrepCostProfile, PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, ExecutionService, Workload
from repro.cloud.spot import SpotMarket, SpotRequest
from repro.corpus import text_400k_like
from repro.obs import get_logger
from repro.obs.ledger import record_experiment
from repro.report.figures import FigureResult
from repro.sim.random import RngStream
from repro.units import GB, KB, MB

__all__ = ["instance_switching", "probe_protocol_trace", "output_retrieval",
           "spot_tradeoff", "prediction_approaches", "sampling_vitality"]

_log = get_logger("experiments.side")


def sampling_vitality(seed: int = 23) -> tuple[FigureResult, dict]:
    """§5.2 closing claim: sampling barely helps uniform corpora but is
    vital for complexity-clustered ones.

    Both corpora get the same treatment: head-only probes fit a model, a
    random-sample refit fits another, and each predicts the time to
    process the *whole* catalogue on the probing instance.  The comparison
    is the relative prediction error before vs after sampling.
    """
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.cloud import ExecutionService
    from repro.corpus import mixed_domain_like, text_400k_like
    from repro.perfmodel import (
        ProbeCampaign,
        build_probe_set,
        collect_sample_points,
        fit_affine,
        refit_with_samples,
    )
    from repro.units import KB, MB

    wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
    out: dict[str, dict] = {}
    for name, cat in (
        ("uniform_news", text_400k_like(scale=0.05, seed=seed)),
        ("clustered_domains", mixed_domain_like(scale=0.05, seed=seed)),
    ):
        _log.info("sampling_vitality: corpus %s (%d files)", name, len(cat))
        cloud = Cloud(seed=seed)
        inst = cloud.launch_instance()
        inst.cpu_factor = inst.io_factor = 1.0
        svc = ExecutionService(cloud)
        campaign = ProbeCampaign(svc, inst, wl, repeats=3)

        xs: list[float] = []
        ys: list[float] = []
        for vol in (200 * KB, 1 * MB, 4 * MB):
            ps = build_probe_set(cat, vol, [])
            m = campaign.measure(ps.variants["orig"], directory=f"{name}/v{vol}")
            actual_v = float(sum(u.size for u in ps.variants["orig"]))
            for t in m.values:
                xs.append(actual_v)
                ys.append(t)
        head_model = fit_affine(xs, ys)

        pts = collect_sample_points(
            campaign, cat, cloud.rng.fork("vitality.samples"),
            n_samples=4, sample_volume=4 * MB, unit_size=None)
        refit = refit_with_samples(list(zip(xs, ys)), pts)

        actual = svc.run(inst, list(cat), wl)
        err_head = abs(head_model.predict(cat.total_size) - actual) / actual
        err_refit = abs(refit.predict(cat.total_size) - actual) / actual
        _log.info("sampling_vitality: %s head error %.1f%%, refit error %.1f%%",
                  name, 100 * err_head, 100 * err_refit)
        out[name] = {
            "head_error": float(err_head),
            "refit_error": float(err_refit),
            "improvement": float(err_head - err_refit),
        }

    fig = FigureResult("Vitality", "§5.2: when does random sampling matter?")
    fig.add("prediction error (head-probe model)",
            list(out), [out[k]["head_error"] for k in out])
    fig.add("prediction error (after sampling refit)",
            list(out), [out[k]["refit_error"] for k in out])
    fig.note("uniform corpus: sampling changes little; clustered corpus: "
             "head-only probing is badly biased and sampling rescues it")
    record_experiment("exp_side.sampling_vitality", extra=out)
    return fig, out


def prediction_approaches(seed: int = 55, scale: float = 5e-3) -> tuple[FigureResult, dict]:
    """§4: analytical vs empirical vs historical prediction of a held-out run.

    All three approaches predict the same multi-GB grep at 100 MB units on
    a vetted instance, each from what it would realistically have:
    bonnie + differential microbenchmarks (analytical), the §4 probe
    regression (empirical), or past runs served by instances of unvetted
    quality (historical).
    """
    from repro.cloud import ExecutionService
    from repro.cloud.bonnie import acquire_good_instance
    from repro.corpus import html_18mil_like
    from repro.perfmodel import (
        HistoricalPredictor,
        build_probe_set,
        calibrate_stream_model,
        fit_affine,
    )
    from repro.apps import GrepApplication, GrepCostProfile

    cloud = Cloud(seed=seed)
    catalogue = html_18mil_like(scale=scale, seed=seed)
    wl = Workload("grep", GrepApplication(), GrepCostProfile())
    svc = ExecutionService(cloud)
    unit = 100 * MB

    instance, _ = acquire_good_instance(cloud)
    volume = cloud.create_volume(size_gb=500, zone=instance.zone)
    volume.attach(instance)

    # historical: past runs on unvetted instances of mixed quality
    _log.info("prediction_approaches: building historical record (8 past runs)")
    past_volumes, past_seconds = [], []
    for i in range(8):
        past = cloud.launch_instance()
        vol_i = int((0.3 + 0.2 * i) * GB)
        ps = build_probe_set(catalogue, vol_i, [unit])
        past_seconds.append(svc.run(past, ps.variants[unit], wl))
        past_volumes.append(sum(u.size for u in ps.variants[unit]))
        cloud.terminate_instance(past)
    historical = HistoricalPredictor.from_runs(past_volumes, past_seconds)

    # analytical: microbenchmarks on the vetted instance
    analytical = calibrate_stream_model(
        svc, instance, wl, catalogue,
        probe_volume=200 * MB, small_unit=500 * KB,
        storage=volume, repeats=3,
    )

    # empirical: §4 probe regression on the vetted instance
    xs, ys = [], []
    for vol_i in (int(0.25 * GB), int(0.5 * GB), 1 * GB, 2 * GB):
        ps = build_probe_set(catalogue, vol_i, [unit])
        volume.store(f"emp/{vol_i}")
        for _ in range(3):
            xs.append(float(sum(u.size for u in ps.variants[unit])))
            ys.append(svc.run(instance, ps.variants[unit], wl,
                              storage=volume, directory=f"emp/{vol_i}"))
    empirical = fit_affine(xs, ys)

    # held-out job: the full catalogue on the vetted instance
    ps = build_probe_set(catalogue, catalogue.total_size, [unit])
    units = ps.variants[unit]
    held_volume = sum(u.size for u in units)
    volume.store("heldout")
    actual = svc.run(instance, units, wl, storage=volume, directory="heldout")

    preds = {
        "analytical": analytical.predict(held_volume, len(units)),
        "empirical": float(empirical.predict(held_volume)),
        "historical": float(historical.predict(held_volume)),
    }
    errors = {k: abs(v - actual) / actual for k, v in preds.items()}
    _log.info("prediction_approaches: actual %.1fs, errors %s", actual,
              ", ".join(f"{k} {e:.1%}" for k, e in errors.items()))

    fig = FigureResult("Approaches", "§4: three ways to predict the same run")
    fig.add("predicted seconds (actual last)",
            list(preds) + ["actual"], list(preds.values()) + [actual])
    fig.note("errors: " + ", ".join(f"{k} {e:.1%}" for k, e in errors.items()))
    record_experiment("exp_side.prediction_approaches", extra={"actual": actual, "predictions": preds, "errors": errors})
    return fig, {"actual": actual, "predictions": preds, "errors": errors}


def instance_switching(
    slow_read: float = 60 * MB,
    fast_read: float | None = None,
    switch_penalty: float = 180.0,
) -> tuple[FigureResult, dict]:
    """§3.1: keep a slow instance for its next hour, or swap?

    "if working with a slow instance with an average read speed of 60 MB/s,
    we could process approximately 210 GB … switching to another instance
    … even when paying a penalty of 3 min … an extra 57 GB.  If the
    instance happens to be slow we miss processing 10 GB."
    """
    fast_read = fast_read or GrepCostProfile().stream_bandwidth
    keep = slow_read * 3600.0
    swap_fast = fast_read * (3600.0 - switch_penalty)
    swap_slow = slow_read * (3600.0 - switch_penalty)
    out = {
        "keep_gb": keep / GB,
        "swap_fast_gb": swap_fast / GB,
        "swap_slow_gb": swap_slow / GB,
        "extra_if_fast_gb": (swap_fast - keep) / GB,
        "lost_if_slow_gb": (keep - swap_slow) / GB,
    }
    fig = FigureResult("Switching", "§3.1 slow-instance switching arithmetic")
    fig.add("GB processed in the next hour",
            ["keep slow", "swap→fast", "swap→slow"],
            [out["keep_gb"], out["swap_fast_gb"], out["swap_slow_gb"]])
    fig.note(f"keep: {out['keep_gb']:.0f} GB (paper ~210); swap gains "
             f"{out['extra_if_fast_gb']:.0f} GB if fast (paper ~57), loses "
             f"{out['lost_if_slow_gb']:.1f} GB if slow again (paper ~10)")
    record_experiment("exp_side.instance_switching", extra=out)
    return fig, out


def probe_protocol_trace(seed: int = 31) -> tuple[FigureResult, dict]:
    """§4 protocol: unstable small probes are discarded, volume escalates."""
    from repro.perfmodel import ProbeCampaign

    cloud = Cloud(seed=seed)
    inst = cloud.launch_instance()
    inst.cpu_factor = inst.io_factor = 1.0
    svc = ExecutionService(cloud)
    wl = Workload("grep", GrepApplication(), GrepCostProfile())
    campaign = ProbeCampaign(svc, inst, wl, repeats=5)
    catalogue = text_400k_like(scale=0.05, seed=seed)
    result = campaign.run_protocol(
        catalogue,
        initial_volume=100 * KB,
        unit_sizes_for=lambda v: [s for s in (10 * KB, 100 * KB, 1 * MB) if s <= v],
        growth=5,
        max_rounds=5,
    )
    _log.info("probe_protocol_trace: %d round(s), stable=%s",
              len(result.probe_sets), result.stable)
    fig = FigureResult("Protocol", "§4 escalating probe protocol")
    rows = []
    for ps in result.probe_sets:
        worst_cv = max(m.cv for m in ps.variants.values())
        rows.append((ps.volume, worst_cv, ps.stable()))
    fig.add("worst CV per probe volume", [r[0] for r in rows], [r[1] for r in rows])
    out = {
        "rounds": len(result.probe_sets),
        "volumes": [r[0] for r in rows],
        "worst_cv": [r[1] for r in rows],
        "stable": result.stable,
    }
    fig.note(f"escalated {out['rounds']} round(s): volumes {out['volumes']}, "
             f"final stable={out['stable']}")
    record_experiment("exp_side.probe_protocol_trace", extra=out)
    return fig, out


def output_retrieval(n_fragments: int = 400, fragment_size: int = 250 * KB,
                     seed: int = 5) -> tuple[FigureResult, dict]:
    """§1: reshaped output is less segmented, so result retrieval is faster."""
    cloud = Cloud(seed=seed)
    s3 = cloud.s3
    for i in range(n_fragments):
        s3.put(f"out/frag/{i}", fragment_size)
    s3.put("out/merged", n_fragments * fragment_size)
    rng = RngStream(seed, "retrieval")
    t_frag = s3.retrieval_time([f"out/frag/{i}" for i in range(n_fragments)],
                               rng.fork("frag"))
    t_merged = s3.retrieval_time(["out/merged"], rng.fork("merged"))
    fig = FigureResult("Retrieval", "result retrieval time vs output segmentation")
    fig.add("seconds", [f"{n_fragments} fragments", "1 merged object"],
            [t_frag, t_merged])
    out = {"fragmented_s": t_frag, "merged_s": t_merged,
           "speedup": t_frag / t_merged}
    fig.note(f"merged output retrieves {out['speedup']:.1f}x faster at equal volume")
    record_experiment("exp_side.output_retrieval", extra=out)
    return fig, out


def spot_tradeoff(work_hours: float = 20.0, horizon: int = 400,
                  seed: int = 17) -> tuple[FigureResult, dict]:
    """§1.1 extension: spot instances are cheaper but deadline-hostile."""
    on_demand_rate = 0.085
    market = SpotMarket(rng=RngStream(seed, "spot"))
    bids = [round(market.mean_price * f, 4) for f in (0.9, 1.0, 1.1, 1.5, 2.0)]
    rows = []
    for bid in bids:
        sim = SpotRequest(bid=bid).simulate_progress(market, horizon, work_hours)
        rows.append((bid, sim["completed_hour"], sim["cost"]))
    fig = FigureResult("Spot", "spot bidding: completion time vs cost")
    fig.add("completion hour (None=never)", [r[0] for r in rows],
            [float(r[1] or horizon) for r in rows])
    fig.add("cost USD", [r[0] for r in rows], [r[2] for r in rows])
    on_demand_cost = work_hours * on_demand_rate
    done = [r for r in rows if r[1] is not None]
    out = {
        "bids": rows,
        "on_demand_cost": on_demand_cost,
        "cheapest_done": min((r[2] for r in done), default=None),
    }
    fig.note(f"on-demand: {work_hours:.0f} h for ${on_demand_cost:.2f}, "
             "guaranteed schedule; spot completes later but cheaper")
    record_experiment("exp_side.spot_tradeoff", extra=out)
    return fig, out
