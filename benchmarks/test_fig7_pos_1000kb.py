"""Bench F7: POS tagging on a 1000 kB probe — original segmentation wins
(Fig. 7)."""

from conftest import run_figure, show

from repro.report import ComparisonTable
from repro.units import KB


def test_fig7_original_segmentation_best(benchmark):
    fig, out = run_figure(benchmark, "F7")
    show(fig)
    means = out["means"]
    table = ComparisonTable()
    table.add("F7", "original segmentation fares best", "orig minimal",
              f"orig {means['orig']:.1f}s vs best merged "
              f"{min(v for k, v in means.items() if k != 'orig'):.1f}s",
              means["orig"] <= min(v for k, v in means.items() if k != "orig") * 1.02)
    table.add("F7", "probe composition (orig vs 1 kB units)", "2183 vs 1000 files",
              f"{out['n_orig_files']} vs {out['n_1kb_units']}",
              out["n_orig_files"] > 1.8 * out["n_1kb_units"])
    table.add("F7", "large unit files degrade pronouncedly", "pronounced",
              f"{out['degradation_at_1000kb']:.2f}x at 1000 kB",
              out["degradation_at_1000kb"] > 1.3)
    # degradation grows monotonically with unit size across decades
    mono = means[1 * KB] < means[10 * KB] < means[100 * KB] < means[1000 * KB]
    table.add("F7", "degradation grows with unit size", "monotone", str(mono), mono)
    print(table.render())
    assert table.all_agree
