"""Tests for the multiprocess sweep harness."""

import pytest

from repro.experiments.sweep import Cell, campaign_seeds, resolve, run_sweep
from repro.obs import MetricsRegistry, configure, disable, get_obs

# Cells resolve their callables by "module:name" path, so the test cell
# must be importable from the workers too — module level, plain args.
CELL = "tests.test_sweep:sample_cell"


def sample_cell(seed: int, scale: float = 1.0) -> dict:
    from repro.sim.random import RngStream

    rng = RngStream(seed)
    value = rng.uniform(0.0, scale)
    get_obs().metrics.counter("sweep.test.cells").inc()
    get_obs().metrics.histogram("sweep.test.value").observe(value)
    return {"seed": seed, "value": value}


def failing_cell() -> None:
    raise RuntimeError("cell exploded")


class TestResolve:
    def test_resolves_module_callable(self):
        assert resolve(CELL) is sample_cell

    def test_rejects_pathless_string(self):
        with pytest.raises(ValueError, match="module:callable"):
            resolve("justaname")

    def test_rejects_non_callable(self):
        with pytest.raises(ValueError, match="does not name a callable"):
            resolve("tests.test_sweep:CELL")


class TestCampaignSeeds:
    def test_default_seeds_then_shifted_rounds(self):
        """Growing the seed count never reseeds existing cells."""
        assert campaign_seeds(1) == (11,)
        assert campaign_seeds(7) == (11, 23, 47, 111, 123, 147, 211)


class TestRunSweep:
    def _cells(self, n=4):
        return [Cell(CELL, {"seed": s}, tag=f"s{s}")
                for s in campaign_seeds(n)]

    def test_inline_results_in_input_order(self):
        cells = self._cells()
        res = run_sweep(cells, processes=1)
        assert res.processes == 1
        assert res.tags == [c.tag for c in cells]
        assert [r["seed"] for r in res.rows] == [c.kwargs["seed"] for c in cells]

    def test_pool_matches_inline_bit_for_bit(self):
        cells = self._cells()
        inline = run_sweep(cells, processes=1)
        pooled = run_sweep(cells, processes=2)
        assert pooled.processes == 2
        assert pooled.rows == inline.rows

    def test_single_cell_never_spawns(self):
        res = run_sweep(self._cells(1), processes=8)
        assert res.processes == 1

    def test_empty_grid(self):
        res = run_sweep([], processes=4)
        assert res.rows == [] and res.tags == []

    def test_cell_error_propagates(self):
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_sweep([Cell("tests.test_sweep:failing_cell")], processes=1)

    def test_pool_cell_error_propagates(self):
        cells = [Cell(CELL, {"seed": 1}),
                 Cell("tests.test_sweep:failing_cell")]
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_sweep(cells, processes=2)


class TestMetricsMerge:
    """With the active registry enabled, each cell's dump merges into it."""

    @staticmethod
    def _merged(cells, processes):
        obs = configure(trace=False)
        try:
            res = run_sweep(cells, processes=processes)
        finally:
            disable()
        return res, obs.metrics

    def test_dumps_collected_and_merged(self):
        cells = [Cell(CELL, {"seed": s}) for s in (1, 2, 3)]
        res, registry = self._merged(cells, processes=1)
        assert len(res.metrics_dumps) == 3
        assert registry.value("sweep.test.cells") == 3
        hist = registry.histogram("sweep.test.value")
        assert hist.count == 3

    def test_pool_merge_equals_inline_merge(self):
        cells = [Cell(CELL, {"seed": s}) for s in (1, 2, 3, 4)]
        _, inline = self._merged(cells, processes=1)
        _, pooled = self._merged(cells, processes=2)
        assert inline.snapshot() == pooled.snapshot()

    def test_no_collection_records_into_parent(self):
        obs = configure(trace=False)
        try:
            run_sweep([Cell(CELL, {"seed": 5})], processes=1)
            assert obs.metrics.value("sweep.test.cells") == 1
        finally:
            disable()


class TestChaosSweepWiring:
    def test_chaos_sweep_accepts_processes(self):
        import inspect

        from repro.experiments.exp_chaos import chaos_sweep

        assert "processes" in inspect.signature(chaos_sweep).parameters

    def test_cli_chaos_validates_seeds(self):
        from repro.cli import main

        assert main(["chaos", "--seeds", "0"]) == 2  # validated, no run

    def test_cli_sweep_metrics_out_writes_merged_dump(self, tmp_path):
        import json

        from repro.cli import main
        from repro.obs.ledger import decode_metrics_dump

        out = tmp_path / "metrics.json"
        rc = main(["chaos", "--scenario", "slow-ebs", "--policy", "on",
                   "--seeds", "1", "--processes", "1",
                   "--metrics-out", str(out),
                   "--runs-dir", str(tmp_path / "runs")])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        rows = decode_metrics_dump(payload["metrics"])
        names = {name for name, _, _, _ in rows}
        assert any(name.startswith("cloud.") for name in names)
        # The sweep ran un-ledgered cells through a private registry; the
        # written dump is the parent's post-merge view.
        reg = MetricsRegistry()
        reg.merge_dump(rows)
        assert reg.dump() == rows
