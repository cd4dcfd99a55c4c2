"""Acceptance tests for the spot sweep (the CI ``chaos`` lane)."""

import pytest

from repro.chaos import SPOT_REGIMES
from repro.cli import main as cli_main
from repro.experiments.exp_spot import run_cell, spot_sweep


class TestRunCellDeterminism:
    @pytest.mark.chaos
    def test_repeat_run_equality(self):
        a = run_cell("eviction-storm", resilience=True, seed=23)
        b = run_cell("eviction-storm", resilience=True, seed=23)
        assert a == b

    @pytest.mark.chaos
    def test_seed_changes_outcome_details(self):
        a = run_cell("choppy", resilience=True, seed=11)
        b = run_cell("choppy", resilience=True, seed=23)
        assert a["cost_usd"] != b["cost_usd"] or \
            a["faults_injected"] != b["faults_injected"]


class TestSweepAcceptance:
    """ISSUE acceptance: the ladder keeps ≤ 10 % miss under EVERY shipped
    regime at a mean cost below pure on-demand; the naive spot baseline
    misses > 25 % under at least one regime."""

    @pytest.fixture(scope="class")
    def sweep(self):
        fig, stats = spot_sweep()
        return stats

    @pytest.mark.chaos
    def test_ladder_on_holds_every_regime(self, sweep):
        for name in SPOT_REGIMES:
            assert sweep["regimes"][name]["on"]["miss_rate"] <= 0.10, name

    @pytest.mark.chaos
    def test_ladder_on_beats_on_demand_cost_every_regime(self, sweep):
        for name in SPOT_REGIMES:
            assert sweep["regimes"][name]["on"]["mean_cost_ratio"] < 1.0, name

    @pytest.mark.chaos
    def test_naive_spot_breaks_somewhere(self, sweep):
        worst = max(s["off"]["miss_rate"]
                    for s in sweep["regimes"].values())
        assert worst > 0.25

    @pytest.mark.chaos
    def test_slos_pass_on_fail_off(self, sweep):
        reports = sweep["slo"]
        assert reports["on"].ok
        assert not reports["off"].ok
        failed = {r.objective.name for r in reports["off"].results
                  if not r.ok}
        assert "miss-rate" in failed

    @pytest.mark.chaos
    def test_sensitivity_grid_covers_every_combination(self, sweep):
        from repro.experiments.exp_spot import BIDS, SLACKS

        combos = {(g["regime"], g["bid"], g["slack"])
                  for g in sweep["grid"]}
        assert len(combos) == len(SPOT_REGIMES) * len(BIDS) * len(SLACKS)

    @pytest.mark.chaos
    def test_reckless_bid_costs_more_than_default(self, sweep):
        # bid 0.02 prices whole markets out: the ladder falls through to
        # on-demand, so its cost ratio must sit above the default bid's.
        by_bid = {}
        for g in sweep["grid"]:
            by_bid.setdefault(g["bid"], []).append(g["mean_cost_ratio"])
        mean = {b: sum(v) / len(v) for b, v in by_bid.items()}
        assert mean[0.02] > mean[0.06]


class TestSpotCli:
    def test_single_regime_runs(self, capsys):
        assert cli_main(["spot", "--regime", "calm", "--seeds", "1",
                         "--bids", "0.06", "--slacks", "1.0",
                         "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "calm" in out

    def test_slo_tables_printed(self, capsys):
        assert cli_main(["spot", "--regime", "calm", "--seeds", "1",
                         "--bids", "0.06", "--slacks", "1.0",
                         "--slo", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "spot-campaign" in out
        assert "policy=on" in out and "policy=off" in out

    def test_runs_slo_roundtrip(self, tmp_path, capsys):
        assert cli_main(["spot", "--regime", "calm", "--seeds", "1",
                         "--bids", "0.06", "--slacks", "1.0",
                         "--runs-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli_main(["runs", "slo", "--policy", "spot",
                         "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spot-campaign" in out and "policy=on" in out

    def test_unknown_regime_is_one_line_error(self, caplog):
        assert cli_main(["spot", "--regime", "not-a-regime"]) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any("unknown regime" in m for m in messages)

    def test_zero_seeds_rejected(self):
        assert cli_main(["spot", "--seeds", "0"]) == 2

    def test_nonpositive_bid_rejected(self):
        assert cli_main(["spot", "--bids", "0"]) == 2
