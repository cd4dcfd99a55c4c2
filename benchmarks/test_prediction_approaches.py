"""Bench X6: analytical vs empirical vs historical prediction (§4).

"Performance estimation can be done through analytical modeling,
empirically and by relying on historical data.  Since the characteristics
of our cloud computing environment are volatile and opaque, we find that
determining an empirical application performance model is preferable."

All three approaches predict the same held-out job — a multi-GB grep at
100 MB units on the vetted instance — from what they would realistically
have available:

* **analytical**: bonnie bandwidth + differential microbenchmarks;
* **empirical**: the §4 probe regression on the vetted instance;
* **historical**: past runs of *whatever instances served them* (mixed
  quality), volume-interpolated.
"""

from conftest import run_figure, show

from repro.report import ComparisonTable


def test_prediction_approach_comparison(benchmark):
    fig, out = run_figure(benchmark, "X6")
    show(fig)
    actual, preds, errors = out["actual"], out["predictions"], out["errors"]
    print(f"\nheld-out run: {actual:.1f}s actual")
    for k in ("analytical", "empirical", "historical"):
        print(f"  {k:>10}: predicted {preds[k]:7.1f}s  (error {errors[k]:.1%})")
    table = ComparisonTable()
    table.add("X6", "empirical model is the most accurate",
              "empirical preferable (§4)",
              f"errors: emp {errors['empirical']:.1%}, "
              f"ana {errors['analytical']:.1%}, "
              f"hist {errors['historical']:.1%}",
              errors["empirical"] <= min(errors["analytical"],
                                         errors["historical"]) + 0.02)
    table.add("X6", "empirical error small on its own instance", "few %",
              f"{errors['empirical']:.1%}", errors["empirical"] < 0.10)
    print(table.render())
    assert table.all_agree
