"""Acceptance tests for the chaos sweep (the CI ``chaos`` lane)."""

import pytest

from repro.chaos import SCENARIOS
from repro.cli import main as cli_main
from repro.experiments.exp_chaos import chaos_sweep, run_cell


class TestRunCellDeterminism:
    @pytest.mark.chaos
    def test_repeat_run_equality(self):
        # The ISSUE-level determinism bar: an identical seed reproduces
        # the whole cell — misses, costs, fault log, launcher stats.
        a = run_cell("kitchen-sink", resilience=True, seed=11)
        b = run_cell("kitchen-sink", resilience=True, seed=11)
        assert a == b

    @pytest.mark.chaos
    def test_seed_changes_outcome_details(self):
        a = run_cell("flaky-boots", resilience=True, seed=11)
        b = run_cell("flaky-boots", resilience=True, seed=23)
        assert a["faults_injected"] != b["faults_injected"] or \
            a["cost_usd"] != b["cost_usd"]


class TestSweepAcceptance:
    """ISSUE acceptance: resilience-on ≤ 10 % miss under EVERY shipped
    scenario; resilience-off > 25 % on at least one."""

    @pytest.fixture(scope="class")
    def sweep(self):
        fig, stats = chaos_sweep()
        return stats

    @pytest.mark.chaos
    def test_resilience_on_holds_every_scenario(self, sweep):
        for name in SCENARIOS:
            assert sweep["scenarios"][name]["on"]["miss_rate"] <= 0.10, name

    @pytest.mark.chaos
    def test_resilience_off_breaks_somewhere(self, sweep):
        worst = max(s["off"]["miss_rate"]
                    for s in sweep["scenarios"].values())
        assert worst > 0.25

    @pytest.mark.chaos
    def test_off_policy_surfaces_failures_not_exceptions(self, sweep):
        # az-blackout without resilience: every bin fails (explicit
        # outcome), nothing raises out of the sweep
        blackout = sweep["scenarios"]["az-blackout"]
        assert blackout["off"]["miss_rate"] == 1.0
        assert sum(c["failed"] for c in blackout["on"]["cells"]) == 0


class TestChaosCli:
    def test_single_scenario_runs(self, capsys):
        assert cli_main(["chaos", "--scenario", "az-blackout",
                         "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "az-blackout" in out

    def test_unknown_scenario_is_one_line_error(self, caplog):
        assert cli_main(["chaos", "--scenario", "not-a-scenario"]) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any("unknown scenario" in m for m in messages)

    def test_zero_seeds_rejected(self):
        assert cli_main(["chaos", "--seeds", "0"]) == 2

    def test_unknown_subcommand_exits_nonzero_without_traceback(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") <= 3  # usage + one-line error

    def test_invalid_argument_exits_nonzero(self):
        assert cli_main(["chaos", "--seeds", "many"]) == 2
