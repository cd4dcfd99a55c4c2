"""Ablation benches for the design choices DESIGN.md calls out."""

import numpy as np
import pytest
from conftest import single_shot

from repro.apps import GrepCostProfile, PosCostProfile, PosTaggerApplication, UnitColumns
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.core.deadline import adjusted_deadline, adjustment_factor
from repro.corpus import text_400k_like
from repro.packing import first_fit_layout, subset_sum_layout
from repro.perfmodel.measurement import Measurement, ProbeSetResult
from repro.perfmodel.regression import fit_affine
from repro.perfmodel.selection import preferred_unit_size
from repro.report import ComparisonTable
from repro.runner import execute_plan
from repro.units import KB, MB
from repro.vfs import Catalogue, TextStats


def eq3_model():
    x = np.array([1e5, 1e6, 5e6])
    return fit_affine(x, 0.327 + 0.865e-4 * x)


def _bin_time(profile: PosCostProfile, layout, cat) -> float:
    units = cat._take(layout.indices, "bin")
    return profile.breakdown(UnitColumns(units)).total


def test_ablation_first_fit_order_vs_sorted(benchmark):
    """§5.2: sorted-descending first-fit gives fuller bins but front-loads
    large (memory-penalized) files — the paper deliberately keeps original
    order for the POS workload."""

    def run():
        cat = text_400k_like(scale=0.05)
        sizes = cat.sizes().tolist()
        capacity = 2 * MB
        ff = first_fit_layout(sizes, capacity)
        ffd = subset_sum_layout(sizes, capacity, preserve_order=False)
        profile = PosCostProfile()
        t_ff = [_bin_time(profile, l, cat) for l in ff]
        t_ffd = [_bin_time(profile, l, cat) for l in ffd]
        return ff, ffd, t_ff, t_ffd

    ff, ffd, t_ff, t_ffd = single_shot(benchmark, run)
    table = ComparisonTable()
    table.add("A1", "FFD packs at least as tightly", "fewer or equal bins",
              f"{len(ffd)} vs {len(ff)}", len(ffd) <= len(ff))
    table.add("A1", "FFD front-loads cost into its worst bin", "higher max bin time",
              f"max {max(t_ffd):.1f}s vs {max(t_ff):.1f}s",
              max(t_ffd) >= max(t_ff))
    spread_ff = np.std(t_ff) / np.mean(t_ff)
    spread_ffd = np.std(t_ffd) / np.mean(t_ffd)
    table.add("A1", "FFD bins are more uneven in time", "larger spread",
              f"CV {spread_ffd:.2f} vs {spread_ff:.2f}", spread_ffd > spread_ff)
    print("\n" + table.render())
    assert table.all_agree


def test_ablation_plateau_tolerance(benchmark):
    """Selection sensitivity: a wider plateau tolerance admits smaller unit
    sizes (more scheduling freedom at equal measured speed)."""

    def run():
        variants = {
            "orig": Measurement(values=(480.0, 482.0)),
            1 * MB: Measurement(values=(93.0, 93.5)),
            10 * MB: Measurement(values=(77.0, 77.4)),
            100 * MB: Measurement(values=(74.5, 74.8)),
            500 * MB: Measurement(values=(74.0, 74.2)),
        }
        ps = ProbeSetResult(volume=5_000_000_000, variants=variants)
        picks = {}
        for tol in (0.0, 0.01, 0.05, 0.10, 0.30):
            picks[tol] = preferred_unit_size([ps], plateau_tolerance=tol).label
        return picks

    picks = single_shot(benchmark, run)
    print(f"\nplateau tolerance -> chosen unit: {picks}")
    # tightest tolerance picks the true minimum; wider admits smaller units
    assert picks[0.0] == 500 * MB
    assert picks[0.01] == 100 * MB
    assert picks[0.05] == 10 * MB
    assert picks[0.30] == 1 * MB
    numeric = [picks[t] for t in sorted(picks) if isinstance(picks[t], int)]
    assert numeric == sorted(numeric, reverse=True)


def test_ablation_heterogeneity_vs_prediction_error(benchmark):
    """The wider the fleet's hidden spread, the worse the clean-instance
    model predicts the makespan — the mechanism behind Fig. 6's miss."""

    def run():
        from repro.cloud.instance import HeterogeneityModel

        model = eq3_model()
        cat = text_400k_like(scale=0.02)
        plan = StaticProvisioner(model).plan(cat, 120.0, strategy="uniform")
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        errors = {}
        for p_slow in (0.0, 0.2, 0.5):
            h = HeterogeneityModel(p_slow=p_slow, p_very_slow=p_slow / 2,
                                   slow_range=(0.5, 0.8))
            reports = []
            for seed in range(5):
                cloud = Cloud(seed=1000 + seed, heterogeneity=h)
                reports.append(execute_plan(cloud, wl, plan))
            predicted = plan.max_predicted_time()
            errors[p_slow] = float(np.mean(
                [r.makespan / predicted for r in reports]
            ))
        return errors

    errors = single_shot(benchmark, run)
    print(f"\np_slow -> makespan/predicted: {errors}")
    assert errors[0.0] < errors[0.2] < errors[0.5]


def test_ablation_miss_probability_sweep(benchmark):
    """Tighter miss targets shrink the planning deadline and raise cost."""

    def run():
        rng = np.random.default_rng(4)
        x = np.linspace(1e5, 1e7, 25)
        y = (0.3 + 0.9e-4 * x) * (1 + rng.normal(0, 0.12, x.size))
        model = fit_affine(x, y)
        out = {}
        for p in (0.30, 0.20, 0.10, 0.05):
            a = adjustment_factor(model, p)
            d1 = adjusted_deadline(3600.0, a)
            prov = StaticProvisioner(model)
            out[p] = (d1, prov.instances_for(10**9, d1))
        return out

    out = single_shot(benchmark, run)
    print(f"\nmiss probability -> (planning deadline, instances): {out}")
    deadlines = [out[p][0] for p in (0.30, 0.20, 0.10, 0.05)]
    instances = [out[p][1] for p in (0.30, 0.20, 0.10, 0.05)]
    assert deadlines == sorted(deadlines, reverse=True)
    assert instances == sorted(instances)


def test_ablation_seed_robustness(benchmark):
    """The headline shapes are not one-seed flukes: the Fig. 4 plateau and
    the reshaping win reproduce across independent cloud/testbed seeds."""

    def run():
        from repro.experiments import exp_grep

        results = []
        for seed in (7, 19, 31):
            tb = exp_grep.make_testbed(seed=seed, scale=3e-3, repeats=3)
            _, out = exp_grep.fig4(tb)
            results.append((seed, out["orig_over_plateau"], out["plateau_spread"]))
        return results

    results = single_shot(benchmark, run)
    print("\nseed -> (orig/plateau, plateau spread):")
    for seed, ratio, spread in results:
        print(f"  {seed}: {ratio:.1f}x, {spread:.1%}")
    for _, ratio, spread in results:
        assert ratio > 3.0        # reshaping always wins several-fold
        assert spread < 0.15      # the plateau is always flat-ish


def test_ablation_per_file_overhead_crossover(benchmark):
    """The plateau onset (where per-file overhead falls below 5% of
    streaming time) scales linearly with the per-file penalty — the knob
    that decides how aggressively data must be reshaped."""

    def run():
        crossovers = {}
        for overhead in (0.001, 0.004, 0.016):
            profile = GrepCostProfile(per_file_overhead=overhead)
            total = 5_000_000_000
            unit = 1 * MB
            while unit < total:
                n = total // unit
                units = Catalogue("u", "u/%d", 0, "u", np.full(n, unit),
                                  TextStats._column(5.0, 18.0, 0.0))
                t = profile.breakdown(UnitColumns(units))
                overhead_part = n * overhead
                if overhead_part < 0.05 * (t.total - overhead_part):
                    break
                unit *= 2
            crossovers[overhead] = unit
        return crossovers

    crossovers = single_shot(benchmark, run)
    print(f"\nper-file overhead -> plateau onset unit size: {crossovers}")
    vals = [crossovers[o] for o in (0.001, 0.004, 0.016)]
    assert vals == sorted(vals)
    assert vals[0] < vals[2]
