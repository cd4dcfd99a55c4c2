"""Bench F4: grep on 5 GB vs unit file size — the 10 MB plateau (Fig. 4)."""

from conftest import run_figure, show

from repro.report import ComparisonTable
from repro.units import MB


def test_fig4_plateau(benchmark):
    fig, out = run_figure(benchmark, "F4")
    show(fig)
    table = ComparisonTable()
    table.add("F4", "plateau from 10 MB units up to 2 GB", "flat",
              f"spread {out['plateau_spread']:.1%}", out["plateau_spread"] < 0.10)
    table.add("F4", "original small files vs plateau", "several-fold slower",
              f"{out['orig_over_plateau']:.1f}x", out["orig_over_plateau"] > 3.0)
    table.add("F4", "1 MB units still above plateau", "below-plateau penalty",
              f"{out['small_unit_penalty']:.2f}x", out["small_unit_penalty"] > 1.1)
    # monotone approach to the plateau
    means = out["means"]
    table.add("F4", "time decreases toward the plateau", "monotone",
              "1MB > 10MB >= ~100MB",
              means[1 * MB] > means[10 * MB] > 0.95 * means[100 * MB])
    print(table.render())
    assert table.all_agree
