"""Bench X7: when is random sampling vital? (§5.2, closing paragraph)

"For our news data set, we do not see a dramatic improvement in the
predictive power of our model derived by using random sampling.  This can
be expected of corpora that are uniform in terms of language complexity …
For other corpora, as seen in the experiment above, random sampling can be
vital to help capture the variation in text complexity."
"""

from conftest import run_figure, show

from repro.report import ComparisonTable


def test_sampling_vitality(benchmark):
    fig, out = run_figure(benchmark, "X7")
    show(fig)
    uni = out["uniform_news"]
    clu = out["clustered_domains"]
    table = ComparisonTable()
    table.add("X7", "uniform corpus: head-probe model already good",
              "no dramatic improvement",
              f"error {uni['head_error']:.1%} -> {uni['refit_error']:.1%}",
              uni["head_error"] < 0.12)
    table.add("X7", "clustered corpus: head-probe model badly biased",
              "sampling vital",
              f"error {clu['head_error']:.1%}", clu["head_error"] > 0.15)
    table.add("X7", "sampling rescues the clustered corpus",
              "captures complexity variation",
              f"error {clu['head_error']:.1%} -> {clu['refit_error']:.1%}",
              clu["refit_error"] < clu["head_error"] / 2)
    table.add("X7", "sampling matters far more for the clustered corpus",
              "vital vs marginal",
              f"improvement {clu['improvement']:.1%} vs {uni['improvement']:.1%}",
              clu["improvement"] > 3 * abs(uni["improvement"]))
    print(table.render())
    assert table.all_agree
