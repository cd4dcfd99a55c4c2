"""Acceptance tests for the DAG backend-comparison sweep and its CLI."""

import pytest

from repro.cli import main as cli_main
from repro.experiments.exp_dag import dag_sweep, run_cell


class TestRunCell:
    def test_repeat_run_equality(self):
        a = run_cell("s3", "fanout", seed=11)
        b = run_cell("s3", "fanout", seed=11)
        assert a == b

    def test_compute_identical_across_backends(self):
        # The RNG-fork convention: only the transfers may differ.
        cells = [run_cell(b, "linear", seed=11) for b in ("local", "s3",
                                                          "ebs")]
        assert len({c["compute_usd"] for c in cells}) == 1
        assert cells[0]["transfer_usd"] < cells[1]["transfer_usd"]

    def test_unknown_backend_and_shape_raise(self):
        with pytest.raises(ValueError):
            run_cell("floppy", "linear")
        with pytest.raises(ValueError):
            run_cell("local", "pentagon")


class TestSweepAcceptance:
    @pytest.fixture(scope="class")
    def sweep(self):
        fig, stats = dag_sweep()
        return fig, stats

    @pytest.mark.chaos
    def test_slo_holds_for_every_backend(self, sweep):
        _, stats = sweep
        reports = stats["slo"]
        assert set(reports) == {"local", "s3", "ebs"}
        for backend, report in reports.items():
            assert report.ok, backend

    @pytest.mark.chaos
    def test_concurrent_beats_serial_on_every_backend(self, sweep):
        _, stats = sweep
        for backend, ratio in stats["speedup"].items():
            assert ratio > 1.0, backend

    @pytest.mark.chaos
    def test_backend_choice_moves_cost_and_makespan(self, sweep):
        _, stats = sweep
        agg = stats["agg"]
        # local disk is free; S3 pays request+storage and its per-object
        # latency dominates the makespan spread (the Juve et al. finding)
        for shape in ("linear", "fanout"):
            assert agg["local"][shape]["mean_total_usd"] < \
                agg["s3"][shape]["mean_total_usd"]
            assert agg["local"][shape]["mean_makespan_s"] < \
                agg["s3"][shape]["mean_makespan_s"]
            assert agg["ebs"][shape]["mean_transfer_s"] < \
                agg["s3"][shape]["mean_transfer_s"]

    @pytest.mark.chaos
    def test_figure_carries_both_axes(self, sweep):
        fig, _ = sweep
        names = {s.label for s in fig.series}
        assert "makespan s [linear]" in names
        assert "total USD [fanout]" in names


class TestDagCli:
    def test_single_cell_sweep_runs(self, capsys):
        assert cli_main(["dag", "--backend", "local", "--shape", "fanout",
                         "--seeds", "1", "--slo", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "local" in out and "backend=local" in out

    def test_unknown_backend_is_one_line_error(self, caplog):
        assert cli_main(["dag", "--backend", "floppy",
                         "--no-ledger"]) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any("unknown backend" in m for m in messages)

    def test_zero_seeds_rejected(self):
        assert cli_main(["dag", "--seeds", "0", "--no-ledger"]) == 2
