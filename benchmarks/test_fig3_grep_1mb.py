"""Bench F3: grep on a 1 MB probe — tiny values, huge deviations (Fig. 3)."""

from conftest import run_figure, show

from repro.report import ComparisonTable


def test_fig3_unstable_small_probes(benchmark):
    fig, out = run_figure(benchmark, "F3")
    show(fig)
    table = ComparisonTable()
    table.add("F3", "small-probe instability (max CV)", "large std, discarded",
              f"CV = {out['max_cv']:.2f}", out["max_cv"] > 0.25)
    table.add("F3", "absolute times are tiny", "< a few seconds",
              f"max mean = {max(out['means'].values()):.2f} s",
              max(out["means"].values()) < 5.0)
    print(table.render())
    assert table.all_agree
