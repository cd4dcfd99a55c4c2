"""Acceptance tests for the broker-stack capacity matrix and its CLI.

The acceptance criterion of the capacity-broker refactor: DAG-on-spot
with warm cross-stage leases keeps the campaign miss budget (≤ 10 %) at
a lower mean cost than DAG-on-demand in every interruption regime.
"""

import pytest

from repro.cli import main as cli_main
from repro.experiments.exp_matrix import (
    REGIMES,
    STACKS,
    matrix_sweep,
    run_cell,
)


class TestRunCell:
    def test_repeat_run_equality(self):
        a = run_cell("spot", "fanout", "eviction-storm", seed=11)
        b = run_cell("spot", "fanout", "eviction-storm", seed=11)
        assert a == b

    def test_unknown_stack_and_regime_raise(self):
        with pytest.raises(ValueError):
            run_cell("mainframe", "linear", "calm")
        with pytest.raises(KeyError):
            run_cell("fleet", "linear", "hurricane")

    def test_fleet_control_prices_at_parity_when_calm(self):
        cell = run_cell("fleet", "linear", "calm", seed=11)
        assert cell["cost_ratio"] == 1.0

    def test_spot_undercuts_on_demand_in_the_storm(self):
        cell = run_cell("spot-lease", "fanout", "eviction-storm", seed=11)
        assert cell["cost_ratio"] < 1.0
        assert cell["interruptions"] > 0           # the storm actually landed
        assert cell["miss_rate"] <= 0.10


class TestSweepAcceptance:
    @pytest.fixture(scope="class")
    def sweep(self):
        return matrix_sweep(seeds=(11,))

    @pytest.mark.chaos
    def test_spot_stacks_meet_slos_in_every_regime(self, sweep):
        _, stats = sweep
        reports = stats["slo"]
        assert set(reports) == set(STACKS)
        for stack in ("spot", "spot-lease"):
            assert reports[stack].ok, stack
        for g in stats["grid"]:
            if g["stack"] in ("spot", "spot-lease"):
                assert g["miss_rate"] <= 0.10, g
                assert g["mean_cost_ratio"] < 1.0, g

    @pytest.mark.chaos
    def test_fleet_control_fails_only_the_cost_objective(self, sweep):
        _, stats = sweep
        report = stats["slo"]["fleet"]
        by_name = {r.objective.name: r.ok for r in report.results}
        assert by_name["miss-rate"]
        assert not by_name["cost-vs-on-demand"]    # ratio 1.0 > 0.99

    @pytest.mark.chaos
    def test_grid_covers_every_stack_regime_pair(self, sweep):
        _, stats = sweep
        pairs = {(g["stack"], g["regime"]) for g in stats["grid"]}
        assert pairs == {(s, r) for s in STACKS for r in REGIMES}

    @pytest.mark.chaos
    def test_figure_carries_miss_and_cost_axes(self, sweep):
        fig, _ = sweep
        names = {s.label for s in fig.series}
        assert "miss rate [spot-lease]" in names
        assert "cost vs on-demand [fleet]" in names


class TestMatrixCli:
    def test_single_cell_sweep_runs(self, capsys):
        assert cli_main(["matrix", "--stack", "spot", "--shape", "fanout",
                         "--regime", "eviction-storm", "--seeds", "1",
                         "--slo", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "spot" in out and "stack=spot" in out

    def test_unknown_stack_is_one_line_error(self, caplog):
        assert cli_main(["matrix", "--stack", "mainframe",
                         "--no-ledger"]) == 2
