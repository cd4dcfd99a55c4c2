"""Bench F2: curve shapes and the §5 marginal provisioning rule."""

import pytest
from conftest import run_figure, show

pytestmark = pytest.mark.smoke  # fast enough for the CI benchmark smoke job

from repro.report import ComparisonTable


def test_fig2_marginal_rule(benchmark):
    fig, out = run_figure(benchmark, "F2")
    show(fig)
    table = ComparisonTable()
    table.add("F2", "convex (b>1) strategy", "start new instances",
              out["convex_rule"], out["convex_rule"] == "start-new-instances")
    table.add("F2", "concave (b<1) strategy", "pack to deadline",
              out["concave_rule"], out["concave_rule"] == "pack-to-deadline")
    # quantitative backing for the rule
    cx = out["convex_marginal"]
    cc = out["concave_marginal"]
    table.add("F2", "convex: fresh hour beats packed hour", "yes",
              f"{cx['first_hour']:.3g} vs {cx['last_hour']:.3g} B",
              cx["first_hour"] > cx["last_hour"])
    table.add("F2", "concave: packed hour beats fresh hour", "yes",
              f"{cc['last_hour']:.3g} vs {cc['first_hour']:.3g} B",
              cc["last_hour"] > cc["first_hour"])
    print(table.render())
    assert table.all_agree
