"""Bench F6 + E1/E2: the full grep run — model fit, prediction gap, 5.6x
reshaping gain (Fig. 6, Eqs. (1)–(2)).  10 GB stands in for 100 GB."""

from conftest import run_figure, show

from repro.report import ComparisonTable

PAPER_EQ1_SLOPE = 1.324e-8


def test_fig6_full_run(benchmark):
    fig, out = run_figure(benchmark, "F6")
    show(fig)
    table = ComparisonTable()
    table.add("E1", "Eq.(1) slope (s/byte at 100 MB units)", f"{PAPER_EQ1_SLOPE:.3e}",
              f"{out['eq1']['b']:.3e}",
              abs(out["eq1"]["b"] - PAPER_EQ1_SLOPE) / PAPER_EQ1_SLOPE < 0.25)
    table.add("E1", "Eq.(1) fit quality", "R² = 0.999",
              f"R² = {out['eq1']['r2']:.4f}", out["eq1"]["r2"] > 0.99)
    table.add("F6", "actual exceeds clean-instance prediction", "+30%",
              f"{out['underestimate']:+.0%}", 0.02 < out["underestimate"] < 0.60)
    table.add("F6", "reshaping gain over original files", "5.6x",
              f"{out['improvement']:.1f}x", 3.5 < out["improvement"] < 9.0)
    table.add("E2", "sample refit stays near Eq.(1)", "slope +13%",
              f"slope ratio {out['eq2']['b'] / out['eq1']['b']:.2f}",
              0.8 < out["eq2"]["b"] / out["eq1"]["b"] < 1.3)
    print(table.render())
    assert table.all_agree
