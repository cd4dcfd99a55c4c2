"""Bench X4/X5: output-retrieval speedup (§1) and the spot-market extension
(§1.1)."""

import pytest
from conftest import run_figure, show

pytestmark = pytest.mark.smoke  # fast enough for the CI benchmark smoke job

from repro.report import ComparisonTable


def test_output_retrieval_speedup(benchmark):
    """§1: merging input also merges output, making result retrieval faster."""
    fig, out = run_figure(benchmark, "X4")
    show(fig)
    table = ComparisonTable()
    table.add("X4", "merged output retrieves faster", "shorter retrieval time",
              f"{out['speedup']:.1f}x", out["speedup"] > 1.5)
    print(table.render())
    assert table.all_agree


def test_spot_tradeoff(benchmark):
    """§1.1: spot is cheaper but unsuitable under deadlines."""
    fig, out = run_figure(benchmark, "X5")
    show(fig)
    table = ComparisonTable()
    done = [r for r in out["bids"] if r[1] is not None]
    table.add("X5", "some bid completes the workload", "resume-capable app finishes",
              f"{len(done)}/{len(out['bids'])} bids complete", len(done) >= 1)
    if done:
        table.add("X5", "spot completion is cheaper than on-demand",
                  "cheaper", f"${out['cheapest_done']:.2f} vs ${out['on_demand_cost']:.2f}",
                  out["cheapest_done"] < out["on_demand_cost"])
        slowest = max(r[1] for r in done)
        table.add("X5", "but takes at least as long as dedicated capacity",
                  "time/cost trade-off", f"{slowest} h for 20 h of work",
                  slowest >= 20)
    print(table.render())
    assert table.all_agree
