"""Bench F8 + E3/E4: POS scheduling for D = 1 h — first-fit vs uniform vs
sample-refit vs adjusted deadline (Fig. 8(a)–(d), Eqs. (3)–(4))."""

from conftest import run_figure, show

from repro.report import ComparisonTable

PAPER_EQ3_SLOPE = 0.865e-4
PAPER_EQ4_SLOPE = 0.725482e-4


def test_fig8_one_hour_scheduling(benchmark):
    fig, out = run_figure(benchmark, "F8")
    show(fig)
    v = out["variants"]
    a8, b8, c8, d8 = (v["8a_first_fit_model3"], v["8b_uniform_model3"],
                      v["8c_uniform_model4"], v["8d_adjusted_model4"])
    table = ComparisonTable()
    table.add("E3", "Eq.(3) slope", f"{PAPER_EQ3_SLOPE:.3e}",
              f"{out['eq3']['b']:.3e}",
              abs(out["eq3"]["b"] - PAPER_EQ3_SLOPE) / PAPER_EQ3_SLOPE < 0.45)
    table.add("E3", "instances for D=1h from model (3)", "27",
              str(a8["instances"]), 22 <= a8["instances"] <= 33)
    table.add("E4", "refit slope drops below Eq.(3)", "0.726 < 0.865 (e-4)",
              f"{out['eq4']['b']:.3e} < {out['eq3']['b']:.3e}",
              out["eq4"]["b"] < out["eq3"]["b"])
    table.add("E4", "model (4) prescribes fewer instances", "22 < 27",
              f"{c8['instances']} < {a8['instances']}",
              c8["instances"] < a8["instances"])
    table.add("F8b", "uniform bins: same instances, lower worst bin",
              "same cost, meets deadline",
              f"max predicted {max(b8['plan'].predicted_times):.0f}s vs "
              f"{max(a8['plan'].predicted_times):.0f}s (first-fit)",
              b8["instances"] == a8["instances"]
              and max(b8["plan"].predicted_times) < max(a8["plan"].predicted_times))
    table.add("F8b", "uniform misses no more than first-fit", "fewer misses",
              f"{b8['missed']} <= {a8['missed']}", b8["missed"] <= a8["missed"])
    table.add("F8d", "adjusted deadline (10% miss odds)", "3124 s",
              f"{out['adjusted_deadline']:.0f} s",
              2800 < out["adjusted_deadline"] < 3400)
    table.add("F8d", "adjustment reduces misses vs model-(4) plan",
              "fewer misses", f"{d8['missed']} <= {c8['missed']}",
              d8["missed"] <= c8["missed"])
    table.add("F8d", "adjustment costs extra instance-hours", "30 vs 27",
              f"{d8['instance_hours']} >= {c8['instance_hours']}",
              d8["instance_hours"] >= c8["instance_hours"])
    print(table.render())
    assert table.all_agree
