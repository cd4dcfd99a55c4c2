"""Bench X1: Dubliners vs Agnes Grey — equal words, ~2x POS time (§5.2)."""

from conftest import run_figure, show

from repro.report import ComparisonTable

PAPER_RATIO = (6 * 60 + 32) / (3 * 60 + 48)  # 6m32s / 3m48s = 1.72


def test_novels_complexity(benchmark):
    fig, out = run_figure(benchmark, "X1")
    show(fig)
    table = ComparisonTable()
    table.add("X1", "word counts nearly equal", "gap < 300 words",
              f"gap = {out['word_gap']}", out["word_gap"] < 300)
    table.add("X1", "word counts", "67,496 / 67,755",
              f"{out['words']['dubliners']} / {out['words']['agnes_grey']}",
              out["words"]["dubliners"] == 67_496
              and out["words"]["agnes_grey"] == 67_755)
    table.add("X1", "complex prose takes ~2x as long", f"{PAPER_RATIO:.2f}x",
              f"{out['ratio']:.2f}x", 1.35 < out["ratio"] < 2.2)
    print(table.render())
    assert table.all_agree
