"""Bench F9: POS scheduling for D = 2 h (Fig. 9(a)–(c))."""

from conftest import run_figure, show

from repro.report import ComparisonTable


def test_fig9_two_hour_scheduling(benchmark):
    fig, out = run_figure(benchmark, "F9")
    show(fig)
    v = out["variants"]
    a9, b9, c9 = (v["9a_uniform_model3"], v["9b_uniform_model4"],
                  v["9c_adjusted_model4"])
    table = ComparisonTable()
    table.add("F9a", "instances for D=2h from model (3)", "14",
              str(a9["instances"]), 11 <= a9["instances"] <= 17)
    table.add("F9b", "model (4) prescribes fewer instances", "11 < 14",
              f"{b9['instances']} <= {a9['instances']}",
              b9["instances"] <= a9["instances"])
    table.add("F9b", "fewer instances, fewer planned instance-hours", "22 < 28",
              f"{b9['instances'] * 2} < {a9['instances'] * 2}",
              b9["instances"] < a9["instances"] or b9["instance_hours"] <= a9["instance_hours"])
    table.add("F9c", "adjusted deadline", "6247 s",
              f"{out['adjusted_deadline']:.0f} s",
              5600 < out["adjusted_deadline"] < 6800)
    table.add("F9c", "adjusted plan is more conservative than 9b",
              "more instances",
              f"{c9['instances']} >= {b9['instances']}",
              c9["instances"] >= b9["instances"])
    table.add("F9c", "adjusted misses no more than 9b", "meets deadline",
              f"{c9['missed']} <= {b9['missed']}", c9["missed"] <= b9["missed"])
    print(table.render())
    assert table.all_agree
