#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from one run of every ``repro.cli`` figure.

The figures run through :func:`repro.cli.figure_session`, so each row
reports a number that ``python -m repro.cli figures`` prints and that
``pytest benchmarks/ --benchmark-only`` asserts on: every figure builds
its own testbed in all three.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import FIGURES, figure_session
from repro.report import ComparisonTable

OUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def main() -> None:
    stats = {fid: st for fid, _, st in figure_session(FIGURES)}
    t = ComparisonTable()
    notes: list[str] = []

    # ---- data sets -----------------------------------------------------
    s1a = stats["F1a"]
    t.add("F1a", "HTML set: fraction under 50 kB", "majority",
          f"{s1a['frac_under_50kb']:.0%}", s1a["frac_under_50kb"] > 0.5)
    t.add("F1a", "HTML set: largest file", "43 MB", f"{s1a['max_mb']:.0f} MB",
          abs(s1a["max_mb"] - 43) < 0.5)
    s1b = stats["F1b"]
    t.add("F1b", "text set: fraction under 1 kB", ">40%",
          f"{s1b['frac_under_1kb']:.0%}", s1b["frac_under_1kb"] > 0.4)
    t.add("F1b", "text set: total volume at 400k files", "~1 GB",
          f"{s1b['total_gb_at_full_scale']:.2f} GB",
          0.7 < s1b["total_gb_at_full_scale"] < 1.4)
    t.add("F1b", "text set: largest file", "705 kB", f"{s1b['max_kb']:.0f} kB",
          abs(s1b["max_kb"] - 705) < 1)

    # ---- curve shapes ----------------------------------------------------
    s2 = stats["F2"]
    t.add("F2", "convex model strategy", "start new instances",
          s2["convex_rule"], s2["convex_rule"] == "start-new-instances")
    t.add("F2", "concave model strategy", "pack to deadline",
          s2["concave_rule"], s2["concave_rule"] == "pack-to-deadline")

    # ---- grep -----------------------------------------------------------
    s3 = stats["F3"]
    t.add("F3", "1 MB probe: worst coefficient of variation",
          "large std, discarded", f"{s3['max_cv']:.2f}", s3["max_cv"] > 0.25)
    s4 = stats["F4"]
    t.add("F4", "plateau spread across 10 MB–2 GB units", "flat plateau",
          f"{s4['plateau_spread']:.1%}", s4["plateau_spread"] < 0.10)
    t.add("F4", "original files vs plateau", "several-fold slower",
          f"{s4['orig_over_plateau']:.1f}x", s4["orig_over_plateau"] > 3)
    s5 = stats["F5"]
    worst_spike = max((s[2] for s in s5["spikes"]), default=0.0)
    t.add("F5", "placement spikes on the plateau", "up to ~3x, repeatable",
          f"{len(s5['spikes'])} spikes, worst {worst_spike:.2f}x",
          len(s5["spikes"]) >= 1 and worst_spike <= 3.5)
    drift = max((abs(r - 1) for r in s5["repeat_ratios"]), default=0.0)
    t.add("F5", "spike repeatability (re-measure drift)", "repeatable",
          f"{drift:.1%}", drift < 0.10)
    s6 = stats["F6"]
    t.add("E1", "Eq.(1) slope s/byte", "1.324e-8", f"{s6['eq1']['b']:.3e}",
          abs(s6["eq1"]["b"] - 1.324e-8) / 1.324e-8 < 0.25)
    t.add("E1", "Eq.(1) R²", "0.999", f"{s6['eq1']['r2']:.4f}",
          s6["eq1"]["r2"] > 0.99)
    t.add("F6", "actual vs clean-instance prediction", "+30%",
          f"{s6['underestimate']:+.0%}", 0.02 < s6["underestimate"] < 0.6)
    t.add("E2", "refit prediction gap", "+20%",
          f"{s6['refit_underestimate']:+.0%}",
          -0.1 < s6["refit_underestimate"] < 0.6)
    t.add("F6", "reshaping gain over original files", "5.6x",
          f"{s6['improvement']:.1f}x", 3.5 < s6["improvement"] < 9)
    notes.append(
        f"F6 executes 10 GB (scaled from the paper's 100 GB) on an unvetted "
        f"instance (hidden io_factor {s6['runner_io_factor']:.2f}) across 10 "
        f"EBS devices; the prediction gap comes from placement quality and "
        f"measurement noise the clean-instance model never saw.")

    # ---- POS -------------------------------------------------------------
    s7 = stats["F7"]
    best_merged = min(v for k, v in s7["means"].items() if k != "orig")
    t.add("F7", "original segmentation fares best", "orig minimal",
          f"orig {s7['means']['orig']:.1f}s vs best merged {best_merged:.1f}s",
          s7["means"]["orig"] <= best_merged * 1.02)
    t.add("F7", "probe composition orig vs 1 kB units", "2183 vs 1000 files",
          f"{s7['n_orig_files']} vs {s7['n_1kb_units']}",
          s7["n_orig_files"] > 1.8 * s7["n_1kb_units"])
    t.add("F7", "degradation at 1000 kB units", "pronounced",
          f"{s7['degradation_at_1000kb']:.2f}x", s7["degradation_at_1000kb"] > 1.3)

    s8 = stats["F8"]
    v8 = s8["variants"]
    t.add("E3", "Eq.(3) slope s/byte", "0.865e-4", f"{s8['eq3']['b']:.3e}",
          abs(s8["eq3"]["b"] - 0.865e-4) / 0.865e-4 < 0.45)
    t.add("E3", "instances for D=1h (model 3)", "27",
          str(v8["8a_first_fit_model3"]["instances"]),
          22 <= v8["8a_first_fit_model3"]["instances"] <= 33)
    t.add("E4", "Eq.(4) slope below Eq.(3)", "0.7255e-4 < 0.865e-4",
          f"{s8['eq4']['b']:.3e} < {s8['eq3']['b']:.3e}",
          s8["eq4"]["b"] < s8["eq3"]["b"])
    t.add("E4", "instances for D=1h (model 4)", "22",
          str(v8["8c_uniform_model4"]["instances"]),
          v8["8c_uniform_model4"]["instances"]
          < v8["8a_first_fit_model3"]["instances"])
    t.add("F8b", "uniform bins lower the worst predicted bin",
          "meets deadline at equal cost",
          f"max pred {max(v8['8b_uniform_model3']['plan'].predicted_times):.0f}s "
          f"vs {max(v8['8a_first_fit_model3']['plan'].predicted_times):.0f}s",
          max(v8["8b_uniform_model3"]["plan"].predicted_times)
          < max(v8["8a_first_fit_model3"]["plan"].predicted_times))
    t.add("F8b", "misses: uniform <= first-fit", "0 vs some",
          f"{v8['8b_uniform_model3']['missed']} vs "
          f"{v8['8a_first_fit_model3']['missed']}",
          v8["8b_uniform_model3"]["missed"] <= v8["8a_first_fit_model3"]["missed"])
    t.add("F8d", "adjusted deadline for 10% miss odds", "3124 s",
          f"{s8['adjusted_deadline']:.0f} s",
          2800 < s8["adjusted_deadline"] < 3400)
    t.add("F8d", "adjusted plan: fewer misses, more instance-hours",
          "fewer misses, 30 vs 27 inst-h",
          f"missed {v8['8d_adjusted_model4']['missed']} vs "
          f"{v8['8c_uniform_model4']['missed']}, inst-h "
          f"{v8['8d_adjusted_model4']['instance_hours']} vs "
          f"{v8['8c_uniform_model4']['instance_hours']}",
          v8["8d_adjusted_model4"]["missed"] <= v8["8c_uniform_model4"]["missed"]
          and v8["8d_adjusted_model4"]["instance_hours"]
          >= v8["8c_uniform_model4"]["instance_hours"])

    s9 = stats["F9"]
    v9 = s9["variants"]
    t.add("F9a", "instances for D=2h (model 3)", "14",
          str(v9["9a_uniform_model3"]["instances"]),
          11 <= v9["9a_uniform_model3"]["instances"] <= 17)
    t.add("F9b", "model 4 prescribes fewer instances", "11 < 14",
          f"{v9['9b_uniform_model4']['instances']} <= "
          f"{v9['9a_uniform_model3']['instances']}",
          v9["9b_uniform_model4"]["instances"]
          <= v9["9a_uniform_model3"]["instances"])
    t.add("F9c", "adjusted deadline", "6247 s",
          f"{s9['adjusted_deadline']:.0f} s",
          5600 < s9["adjusted_deadline"] < 6800)
    t.add("F9c", "adjusted plan misses no more than 9b", "meets deadline",
          f"{v9['9c_adjusted_model4']['missed']} <= "
          f"{v9['9b_uniform_model4']['missed']}",
          v9["9c_adjusted_model4"]["missed"] <= v9["9b_uniform_model4"]["missed"])
    notes.append(
        "F8/F9 run at the paper's operating point (V/f⁻¹(1 h) ≈ 26.1, "
        "847 MB catalogue); the per-instance execution fleets include "
        "hidden stragglers, so a small number of marginal misses persists "
        "in every variant, as in the paper's own figures.")
    em3 = v8["8b_uniform_model3"]["expected_missed"]
    em4 = v8["8c_uniform_model4"]["expected_missed"]
    notes.append(
        f"Miss-count calibration (an analysis the paper implies but never "
        f"reports): the head-probe model (3) expects {em3:.1f} misses where "
        f"{v8['8b_uniform_model3']['missed']} occur — its residual spread is "
        f"inflated by the probe head's complexity bias — while the sampled "
        f"refit (4) expects {em4:.1f} against "
        f"{v8['8c_uniform_model4']['missed']} observed; random sampling "
        f"fixes the *calibration*, not just the slope.")

    # ---- side experiments -------------------------------------------------
    sn = stats["X1"]
    t.add("X1", "novels word counts", "67,496 / 67,755",
          f"{sn['words']['dubliners']} / {sn['words']['agnes_grey']}",
          sn["word_gap"] < 300)
    t.add("X1", "complex/simple prose time ratio", "1.72x",
          f"{sn['ratio']:.2f}x", 1.35 < sn["ratio"] < 2.2)

    sw = stats["X2"]
    t.add("X2", "keep slow instance: GB next hour", "~210 GB",
          f"{sw['keep_gb']:.0f} GB", 190 < sw["keep_gb"] < 230)
    t.add("X2", "swap to fast: extra GB", "~57 GB",
          f"{sw['extra_if_fast_gb']:.0f} GB", 30 < sw["extra_if_fast_gb"] < 90)
    t.add("X2", "swap to slow again: GB lost", "~10 GB",
          f"{sw['lost_if_slow_gb']:.1f} GB", 5 < sw["lost_if_slow_gb"] < 15)

    sp = stats["X3"]
    t.add("X3", "probe protocol escalates to stability",
          "discard unstable, grow volume",
          f"{sp['rounds']} rounds, volumes {sp['volumes']}, "
          f"stable={sp['stable']}", sp["stable"])

    sx6 = stats["X6"]
    err = sx6["errors"]
    t.add("X6", "empirical beats analytical & historical prediction",
          "empirical preferable (§4)",
          f"errors: emp {err['empirical']:.1%}, ana {err['analytical']:.1%}, "
          f"hist {err['historical']:.1%}",
          err["empirical"] <= min(err["analytical"], err["historical"]) + 0.02)

    sv = stats["X7"]
    t.add("X7", "sampling marginal for uniform corpora, vital for clustered",
          "no dramatic improvement vs vital (§5.2)",
          f"uniform {sv['uniform_news']['head_error']:.1%}→"
          f"{sv['uniform_news']['refit_error']:.1%}; clustered "
          f"{sv['clustered_domains']['head_error']:.1%}→"
          f"{sv['clustered_domains']['refit_error']:.1%}",
          sv["clustered_domains"]["improvement"]
          > 3 * abs(sv["uniform_news"]["improvement"]))

    sr = stats["X4"]
    t.add("X4", "merged output retrieval speedup", "shorter retrieval",
          f"{sr['speedup']:.1f}x", sr["speedup"] > 1.5)

    ss = stats["X5"]
    done = [r for r in ss["bids"] if r[1] is not None]
    t.add("X5", "spot cheaper than on-demand (resume-capable work)",
          "cheaper, later",
          f"${ss['cheapest_done']:.2f} vs ${ss['on_demand_cost']:.2f}",
          bool(done) and ss["cheapest_done"] < ss["on_demand_cost"])

    # ---- write -----------------------------------------------------------
    body = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python scripts/generate_experiments_md.py`; the same",
        "experiments run under `pytest benchmarks/ --benchmark-only`.",
        "",
        "The testbed is a deterministic EC2 simulation calibrated to the",
        "paper's reported constants; volumes are scaled (10 GB stands in for",
        "the 100 GB grep run; the POS corpus sits at the paper's ~26 "
        "instance-hour operating point).  The claims under test are the",
        "paper's *shapes* — who wins, by what factor, where crossovers fall —",
        "not 2010 testbed absolute times.",
        "",
        t.markdown(),
        "",
        "## Notes",
        "",
    ]
    body += [f"- {n}" for n in notes]
    body += [
        "- The paper's §5.2 quotes an adjustment factor a = 1.525 alongside "
        "D₁ = 3124 s for D = 3600 s; those are mutually inconsistent under "
        "its own D₁ = D/(1+a) (3600/2.525 ≈ 1426).  The D₁ values imply "
        "a ≈ 0.152, and our residual analysis lands in that range, so we "
        "treat the quoted 1.525 as a typo and reproduce the D₁ arithmetic.",
        "- Eq. slopes: our Eq.(3)-analogue runs ~25% above the paper's "
        "0.865e-4 because the probe head of our synthetic corpus is more "
        "complex than its average (by construction — that is what makes the "
        "Eq.(4) refit drop, as in the paper) and the memory-residency "
        "penalty already binds on 2–3 kB files.  All instance-count and "
        "cost *orderings* derived from the models match the paper.",
    ]
    agree = sum(1 for r in t.rows if r.agree)
    body.insert(2, f"**{agree}/{len(t.rows)} comparisons agree.**")
    OUT.write_text("\n".join(body) + "\n", encoding="utf-8")
    print(t.render())
    print(f"\nwrote {OUT} ({agree}/{len(t.rows)} agree)")
    if agree != len(t.rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
