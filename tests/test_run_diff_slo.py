"""Run diffing, SLO evaluation, and the perf-regression gate end to end.

The acceptance demos for the flight recorder: two identical-seed runs
diff *clean* (zero significant deterministic deltas, bit-identical metric
dumps); an artificially degraded engine run is flagged as a >15% perf
regression by ``diff_runs``, by ``regression_gate``, and by the
``repro.cli runs diff --strict`` exit code; and the chaos campaign SLOs
split exactly along the resilience policy — on passes, off violates.
"""

import pytest

from repro.cli import main as cli_main
from repro.obs import configure, disable
from repro.obs.diff import (
    Delta,
    DiffError,
    diff_runs,
    regression_gate,
    render_diff_table,
    render_gate_report,
)
from repro.obs.ledger import (
    SCHEMA_CHANGES,
    SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    capture_runs,
    set_run_ledger,
)
from repro.obs.slo import Objective, SloPolicy, render_slo_table


def _plan_run(seed: int) -> RunRecord:
    """One 16-bin ``execute_plan`` run under a fresh obs bundle + ledger."""
    from repro.cloud import Cloud, Workload
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.core import reshape
    from repro.core.planner import ProvisioningPlan
    from repro.corpus import text_400k_like
    from repro.runner import execute_plan

    n_bins = 16
    units = reshape(text_400k_like(scale=5e-3), None).units
    assignments = [units._take(range(i, len(units), n_bins), f"bin{i}")
                   for i in range(n_bins)]
    plan = ProvisioningPlan(
        deadline=3600.0, planning_deadline=3600.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[60.0] * n_bins)
    configure(trace=False)
    try:
        with capture_runs() as ledger:
            cloud = Cloud(seed=seed)
            execute_plan(
                cloud, Workload("postag", PosTaggerApplication(),
                                PosCostProfile()), plan)
        return ledger.records()[-1]
    finally:
        disable()


class TestCleanDiff:
    def test_identical_seeds_diff_clean(self):
        a = _plan_run(seed=11)
        b = _plan_run(seed=11)
        diff = diff_runs(a, b)
        assert diff.identical_metrics          # bit-identical dumps
        assert diff.significant == []          # zero deterministic drift
        assert not diff.added_series and not diff.removed_series
        assert diff.clean
        assert "CLEAN" in render_diff_table(diff)

    def test_different_seeds_diff_dirty(self):
        diff = diff_runs(_plan_run(seed=11),
                         _plan_run(seed=12))
        assert not diff.identical_metrics
        assert not diff.clean


class TestSchemaVersionDiff:
    def test_v1_against_v2_explains_itself(self):
        v1 = RunRecord(kind="experiment", label="exp_pos.fig8",
                       run_id="old", schema_version=1)
        v2 = RunRecord(kind="experiment", label="exp_pos.fig8",
                       run_id="new")
        assert v2.schema_version == SCHEMA_VERSION == 2
        diff = diff_runs(v1, v2)
        assert diff.schema_versions == (1, 2)
        assert diff.clean                  # a schema bump is not drift
        as_dict = diff.to_dict()
        assert as_dict["schema_versions"] == [1, 2]
        assert as_dict["schema_notes"] == [f"v2: {SCHEMA_CHANGES[2]}"]
        table = render_diff_table(diff)
        assert "schema v1 vs v2" in table
        assert SCHEMA_CHANGES[2] in table

    def test_same_version_reports_nothing(self):
        rec = RunRecord(kind="experiment", label="x")
        diff = diff_runs(rec, rec)
        assert diff.schema_versions is None
        assert diff.to_dict()["schema_versions"] is None
        assert "schema" not in render_diff_table(diff)


class TestDegradationDemo:
    """An artificial engine slowdown must trip every perf tripwire."""

    @pytest.fixture(scope="class")
    def degraded_pair(self):
        from repro.sim.engine import SimulationEngine

        baseline = _plan_run(seed=11)
        original = SimulationEngine._insert

        def slow_insert(self, time, ev):
            sum(i * i for i in range(60_000))   # burn wall, not sim, time
            return original(self, time, ev)

        SimulationEngine._insert = slow_insert
        try:
            degraded = _plan_run(seed=11)
        finally:
            SimulationEngine._insert = original
        return baseline, degraded

    def test_simulation_itself_unchanged(self, degraded_pair):
        baseline, degraded = degraded_pair
        diff = diff_runs(baseline, degraded)
        assert diff.identical_metrics
        assert diff.significant == []
        assert degraded.deadline == baseline.deadline

    def test_diff_flags_throughput_regression(self, degraded_pair):
        baseline, degraded = degraded_pair
        diff = diff_runs(baseline, degraded, perf_threshold=0.15)
        regressed = {d.field for d in diff.perf_regressions}
        assert "profile.events_per_s" in regressed
        assert "PERF REGRESSION" in render_diff_table(diff)

    def test_gate_flags_throughput_regression(self, degraded_pair):
        baseline, degraded = degraded_pair
        tracked = {"profile.events_per_s": "higher"}
        base = {"profile.events_per_s":
                baseline.get("profile.events_per_s")}
        cur = {"profile.events_per_s":
               degraded.get("profile.events_per_s")}
        violations = regression_gate(base, cur, tracked, threshold=0.15)
        assert [v.metric for v in violations] == ["profile.events_per_s"]
        assert "fell" in violations[0].describe()
        assert "FAIL" in render_gate_report(base, cur, tracked, violations)

    def test_cli_runs_diff_strict_exits_3(self, degraded_pair, tmp_path,
                                          capsys):
        baseline, degraded = degraded_pair
        ledger = RunLedger(tmp_path)
        for rec in degraded_pair:
            ledger.append(RunRecord.from_dict(rec.to_dict()))
        rc = cli_main(["runs", "diff", "--runs-dir", str(tmp_path),
                       "--strict", "--", "-2", "-1"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "PERF REGRESSION" in out


class TestGateEdges:
    def test_improvement_is_not_a_violation(self):
        assert regression_gate({"m": 100.0}, {"m": 200.0},
                               {"m": "higher"}) == []
        assert regression_gate({"m": 100.0}, {"m": 50.0},
                               {"m": "lower"}) == []

    def test_missing_or_zero_baseline_skipped(self):
        assert regression_gate({}, {"m": 50.0}, {"m": "higher"}) == []
        assert regression_gate({"m": 0.0}, {"m": 50.0},
                               {"m": "lower"}) == []

    def test_lower_direction_catches_growth(self):
        v = regression_gate({"wall": 1.0}, {"wall": 1.5}, {"wall": "lower"})
        assert len(v) == 1 and "grew" in v[0].describe()

    def test_delta_direction_semantics(self):
        assert Delta("x", 100.0, 80.0, "higher").regressed(0.15)
        assert not Delta("x", 100.0, 80.0, "lower").regressed(0.15)
        assert not Delta("x", 100.0, 90.0, "higher").regressed(0.15)


class TestDiffThresholds:
    """A NaN threshold would make every comparison false and hide every
    delta; negative ones make no sense.  Both are refused up front."""

    @pytest.mark.parametrize("kwargs", [
        {"threshold": float("nan")},
        {"perf_threshold": float("nan")},
        {"threshold": -0.05},
        {"perf_threshold": -0.15},
        {"threshold": float("inf")},
    ])
    def test_bad_threshold_raises(self, kwargs):
        rec = RunRecord(kind="experiment", label="x")
        with pytest.raises(DiffError):
            diff_runs(rec, rec, **kwargs)

    def test_zero_threshold_accepted(self):
        rec = RunRecord(kind="experiment", label="x")
        assert diff_runs(rec, rec, threshold=0.0, perf_threshold=0.0).clean

    @pytest.mark.parametrize("flags", [
        ["--threshold", "nan", "--perf-threshold", "nan"],
        ["--perf-threshold", "-1"],
    ])
    def test_cli_rejects_bad_threshold(self, flags, tmp_path, capsys,
                                       caplog):
        ledger = RunLedger(tmp_path)
        for label in ("a", "b"):
            ledger.append(RunRecord(kind="experiment", label=label))
        rc = cli_main(["runs", "diff", "--runs-dir", str(tmp_path),
                       *flags, "--", "-2", "-1"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert any(r.name == "repro.cli" and "threshold" in r.getMessage()
                   for r in caplog.records)


class TestBadLedgerRefs:
    """An empty ledger, an out-of-range index or an unknown run id is a
    bad argument: one ``E repro.cli:`` line and exit 2, as for every
    other bad argument."""

    @pytest.mark.parametrize("n_records, refs, needle", [
        (0, ["-1"], "ledger is empty"),
        (2, ["-3"], "out of range"),
        (2, ["no-such-run"], "no run 'no-such-run'"),
    ])
    @pytest.mark.parametrize("sub", ["show", "diff"])
    def test_exit_2(self, sub, n_records, refs, needle, tmp_path, capsys,
                    caplog):
        ledger = RunLedger(tmp_path)
        for label in ("a", "b")[:n_records]:
            ledger.append(RunRecord(kind="experiment", label=label))
        if sub == "diff":
            refs = ["-1", *refs] if n_records else ["-1", "-1"]
        rc = cli_main(["runs", sub, "--runs-dir", str(tmp_path),
                       "--", *refs])
        assert rc == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records
                  if r.name == "repro.cli"]
        assert len(errors) == 1 and needle in errors[0], errors


class TestChaosSlos:
    @pytest.fixture(scope="class")
    def slo_reports(self):
        from repro.experiments.exp_chaos import chaos_sweep

        _, stats = chaos_sweep(["slow-ebs"], seeds=(11,))
        return stats["slo"]

    def test_resilience_on_meets_slos(self, slo_reports):
        report = slo_reports["on"]
        assert report.ok
        assert all(r.ok for r in report.results)
        assert "PASS" in render_slo_table(report)

    def test_resilience_off_violates_miss_rate(self, slo_reports):
        report = slo_reports["off"]
        assert not report.ok
        failed = {r.objective.name for r in report.results if not r.ok}
        assert "miss-rate" in failed
        table = render_slo_table(report)
        assert "FAIL" in table and "PAGE" in table

    def test_cli_runs_slo_splits_policies(self, slo_reports, tmp_path,
                                          capsys):
        from repro.experiments.exp_chaos import CAMPAIGN, run_cell
        from repro.experiments.sweep import cell_record

        ledger = RunLedger(tmp_path)
        for policy in ("on", "off"):
            cell = run_cell("slow-ebs", resilience=(policy == "on"), seed=11)
            ledger.append(cell_record(CAMPAIGN, cell))
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--strict"])
        out = capsys.readouterr().out
        assert rc == 3                     # the off side violates
        assert "policy=on" in out and "policy=off" in out

    def test_slo_objective_validation(self):
        with pytest.raises(ValueError):
            Objective("bad", "m", "<", 1.0)
        with pytest.raises(ValueError):
            Objective("bad", "m", "<=", 1.0, aggregate="median")
        with pytest.raises(ValueError):
            Objective("bad", "m", "<=", 1.0, aggregate="ratio")  # no num/den

    def test_empty_window_passes_vacuously(self):
        policy = SloPolicy("p", (Objective("o", "x", "<=", 1.0),))
        report = policy.evaluate([])
        assert report.ok and report.n_records == 0


class TestSloPolicyRegistry:
    def test_defaults_registered(self):
        from repro.experiments.registry import (
            get_slo_policy,
            load_defaults,
            slo_policy_names,
        )

        load_defaults()
        assert {"chaos", "dag", "spot", "matrix"} <= set(slo_policy_names())
        entry = get_slo_policy("matrix")
        assert entry.group_key == "config.stack"
        assert entry.group_name == "stack"
        assert entry.label_prefix == "exp_matrix."
        assert get_slo_policy("dag").label_prefix == "exp_dag."

    def test_register_is_last_writer_wins(self):
        from repro.experiments.registry import (
            get_slo_policy,
            register_slo_policy,
        )
        from repro.obs.slo import Objective, SloPolicy

        slos = SloPolicy("t", (Objective("o", "x", "<=", 1.0),))
        fields = {"label_prefix": "t.", "label": ("a",), "config": ("a",),
                  "extra": ()}
        register_slo_policy("_test", slos=slos, group_name="a", **fields)
        replaced = register_slo_policy("_test", slos=slos, group_name="b",
                                       **fields)
        assert get_slo_policy("_test") is replaced
        assert get_slo_policy("_test").group_key == "config.b"

    @pytest.mark.parametrize("name", ["chaos", "spot", "dag", "matrix"])
    def test_empty_ledger_names_the_campaign_subcommand(self, name, tmp_path,
                                                       capsys):
        assert cli_main(["runs", "slo", "--policy", name,
                         "--runs-dir", str(tmp_path)]) == 0
        assert f"run `repro {name}` first" in capsys.readouterr().out

    def test_cli_unknown_policy_exits_2(self, tmp_path):
        rc = cli_main(["runs", "slo", "--runs-dir", str(tmp_path),
                       "--policy", "bogus"])
        assert rc == 2


def _slo_counters(registry) -> dict:
    return {sid: v for sid, v in registry.snapshot()["counters"].items()
            if sid.startswith("obs.slo.")}


class TestSlosJudgedOnce:
    """A sweep judges each side once; ``--slo`` and the perf-trajectory
    collectors print or read those verdicts instead of judging again, so
    the ``obs.slo.*`` counters do not double."""

    COMMANDS = {
        "dag": ["dag", "--backend", "local", "--shape", "linear"],
        "spot": ["spot", "--regime", "calm", "--bids", "0.06",
                 "--slacks", "1.0"],
        "matrix": ["matrix", "--stack", "fleet", "--shape", "linear",
                   "--regime", "calm"],
    }

    @staticmethod
    def _cli_counters(argv, capsys) -> dict:
        obs = configure(trace=False)
        try:
            assert cli_main(argv + ["--seeds", "1", "--no-ledger"]) == 0
        finally:
            disable()
        capsys.readouterr()
        return _slo_counters(obs.metrics)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_slo_flag_leaves_counters_unchanged(self, name, capsys):
        plain = self._cli_counters(self.COMMANDS[name], capsys)
        assert plain
        assert self._cli_counters(self.COMMANDS[name] + ["--slo"],
                                  capsys) == plain

    @pytest.mark.parametrize("name, sweep, kwargs", [
        ("spot", "spot_sweep", {"regimes": ["calm"], "seeds": (11,),
                                "bids": (0.06,), "slacks": (1.0,)}),
        ("matrix", "matrix_sweep", {"stacks": ["fleet"],
                                    "shapes": ("linear",),
                                    "regimes": ("calm",), "seeds": (11,)}),
    ])
    def test_trajectory_collectors_judge_once(self, name, sweep, kwargs,
                                              monkeypatch):
        import importlib
        import importlib.util
        from pathlib import Path

        module = importlib.import_module(f"repro.experiments.exp_{name}")
        full_sweep = getattr(module, sweep)
        evaluated, by_sweep = [], []

        def small_sweep():
            result = full_sweep(**kwargs)
            by_sweep.append(len(evaluated))
            return result

        monkeypatch.setattr(module, sweep, small_sweep)
        path = (Path(__file__).resolve().parents[1]
                / "scripts" / "bench_packing_trajectory.py")
        spec = importlib.util.spec_from_file_location("_bench_trajectory",
                                                      path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        monkeypatch.setattr(bench, "BEST_OF", 1)
        evaluate = SloPolicy.evaluate

        def counting_evaluate(policy, records, **kw):
            evaluated.append(policy.name)
            return evaluate(policy, records, **kw)

        monkeypatch.setattr(SloPolicy, "evaluate", counting_evaluate)
        out = getattr(bench, f"collect_{name}_stats")()
        assert by_sweep[0] > 0 and out["slo_ok"]
        assert len(evaluated) == by_sweep[0]   # nothing judged twice


class TestLedgerFixturesRestored:
    def test_module_default_ledger_is_off_after_suite(self):
        from repro.obs.ledger import get_run_ledger

        assert get_run_ledger() is None

    def test_set_run_ledger_returns_previous(self):
        sentinel = RunLedger(None)
        assert set_run_ledger(sentinel) is None
        assert set_run_ledger(None) is sentinel
