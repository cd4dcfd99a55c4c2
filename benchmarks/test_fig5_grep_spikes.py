"""Bench F5: fine unit-size sampling — repeatable EBS placement spikes (Fig. 5)."""

from conftest import run_figure, show

from repro.report import ComparisonTable


def test_fig5_placement_spikes(benchmark):
    fig, out = run_figure(benchmark, "F5")
    show(fig)
    table = ComparisonTable()
    table.add("F5", "plateau is not smooth: spikes exist", "spikes observed",
              f"{len(out['spikes'])} spike(s)", len(out["spikes"]) >= 1)
    if out["spikes"]:
        worst = max(s[2] for s in out["spikes"])
        table.add("F5", "spike magnitude", "up to ~3x",
                  f"{worst:.2f}x the volume median", 1.25 <= worst <= 3.5)
        drift = max(abs(r - 1.0) for r in out["repeat_ratios"])
        table.add("F5", "spikes are repeatable and stable in time",
                  "repeatable (not contention)",
                  f"re-measure drift {drift:.1%}", drift < 0.10)
    print(table.render())
    assert table.all_agree
