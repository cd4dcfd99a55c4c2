"""Tests for the flight recorder: RunRecord, RunLedger, and emission sites."""

import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry, configure, disable
from repro.obs.ledger import (
    LedgerError,
    RunLedger,
    RunRecord,
    capture_runs,
    configure_run_ledger,
    decode_metrics_dump,
    encode_metrics_dump,
    get_run_ledger,
    record_experiment,
    set_run_ledger,
)


def _registry_with_everything() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("a.count", side="x").inc(3)
    reg.gauge("a.level").set(-2.5)
    reg.histogram("a.lat", buckets=(0.1, 1.0)).observe(0.05)
    reg.histogram("a.lat", buckets=(0.1, 1.0)).observe(7.25)
    reg.histogram("a.empty", buckets=(1.0,))   # inf sentinels survive JSON
    return reg


class TestDumpCodec:
    def test_round_trip_is_identical(self):
        rows = _registry_with_everything().dump()
        back = decode_metrics_dump(
            json.loads(json.dumps(encode_metrics_dump(rows))))
        assert back == rows

    def test_decoded_rows_merge_into_fresh_registry(self):
        rows = _registry_with_everything().dump()
        reg = MetricsRegistry()
        reg.merge_dump(decode_metrics_dump(
            json.loads(json.dumps(encode_metrics_dump(rows)))))
        assert reg.dump() == rows

    def test_numpy_label_values_become_plain(self):
        reg = MetricsRegistry()
        reg.counter("a.b", n=np.int64(3)).inc()
        enc = encode_metrics_dump(reg.dump())
        assert json.dumps(enc)   # must be JSON-clean
        assert enc[0][1] == [["n", 3]]


class TestRunRecord:
    def test_to_from_dict_round_trip(self):
        rec = RunRecord(
            kind="runner", label="execute_plan",
            config={"seed": 7, "strategy": "uniform"},
            metrics=encode_metrics_dump(_registry_with_everything().dump()),
            spans={"runner.execute": {"count": 2, "total_s": 0.5}},
            billing={"cost_usd": 1.25}, deadline={"missed": 0, "bins": 4},
            profile={"wall_s": 0.01}, extra={"note": "hi"},
        )
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict() == rec.to_dict()
        assert back.metric_rows() == _registry_with_everything().dump()

    def test_get_dotted_path_and_default(self):
        rec = RunRecord(kind="runner", label="x",
                        billing={"cost_usd": 1.5},
                        profile={"phases": {"execute": {"wall_s": 2.0}}})
        assert rec.get("billing.cost_usd") == 1.5
        assert rec.get("profile.phases.execute.wall_s") == 2.0
        assert rec.get("billing.nope", -1) == -1

    def test_from_dict_missing_kind_raises(self):
        with pytest.raises(LedgerError):
            RunRecord.from_dict({"label": "x"})


class TestRunLedger:
    def test_file_backed_append_and_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(RunRecord(kind="runner", label="execute_plan"))
        ledger.append(RunRecord(kind="dag", label="fleet"))
        assert (tmp_path / "runs" / "ledger.jsonl").exists()
        # A second instance over the same root sees both lines.
        again = RunLedger(tmp_path / "runs")
        ids = [r.run_id for r in again.records()]
        assert ids == ["execute_plan-0001", "fleet-0002"]
        assert [r.kind for r in again.records(kind="dag")] == ["dag"]

    def test_in_memory_ledger_never_touches_disk(self, tmp_path):
        ledger = RunLedger(None)
        ledger.append(RunRecord(kind="runner", label="a"))
        assert ledger.path is None
        assert len(ledger) == 1

    def test_resolve_by_id_and_negative_index(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for label in ("a", "b", "c"):
            ledger.append(RunRecord(kind="runner", label=label))
        assert ledger.resolve("b-0002").label == "b"
        assert ledger.resolve("-1").label == "c"
        assert ledger.resolve("-3").label == "a"
        with pytest.raises(LedgerError):
            ledger.resolve("nope")
        with pytest.raises(LedgerError):
            ledger.resolve("-9")

    def test_resolve_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="empty"):
            RunLedger(tmp_path).resolve("-1")

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "runner", "label": "ok"}\nnot json\n')
        with pytest.raises(LedgerError, match="2"):
            RunLedger(tmp_path).records()

    def test_append_preserves_existing_identity(self, tmp_path):
        ledger = RunLedger(tmp_path)
        rec = RunRecord(kind="runner", label="x", run_id="custom",
                        created_at="2026-01-01T00:00:00+00:00")
        ledger.append(rec)
        back = ledger.records()[0]
        assert back.run_id == "custom"
        assert back.created_at == "2026-01-01T00:00:00+00:00"


class TestModuleDefault:
    def test_default_is_off(self):
        assert get_run_ledger() is None

    def test_capture_runs_installs_and_restores(self):
        before = get_run_ledger()
        with capture_runs() as ledger:
            assert get_run_ledger() is ledger
            record_experiment("probe", extra={"k": 1})
            assert ledger.records()[0].label == "probe"
        assert get_run_ledger() is before

    def test_configure_run_ledger_and_restore(self, tmp_path):
        previous = set_run_ledger(None)
        try:
            ledger = configure_run_ledger(tmp_path)
            assert get_run_ledger() is ledger
        finally:
            set_run_ledger(previous)

    def test_record_experiment_noop_when_off(self):
        assert get_run_ledger() is None
        assert record_experiment("probe") is None

    def test_record_experiment_captures_live_metrics(self):
        obs = configure(trace=False)
        try:
            obs.metrics.counter("probe.hits").inc(4)
            with capture_runs() as ledger:
                record_experiment("probe")
            rec = ledger.records()[0]
            assert rec.metric_rows() == [("probe.hits", (), "counter", 4.0)]
        finally:
            disable()


def _quick_plan(n_bins=4):
    from repro.core import reshape
    from repro.core.planner import ProvisioningPlan
    from repro.corpus import text_400k_like

    units = list(reshape(text_400k_like(scale=2e-3), None).units)
    assignments = [units[i::n_bins] for i in range(n_bins)]
    return ProvisioningPlan(
        deadline=3600.0, planning_deadline=3600.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[60.0] * n_bins)


def _pos_workload():
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.cloud import Workload

    return Workload("postag", PosTaggerApplication(), PosCostProfile())


class TestRunnerEmission:
    def test_execute_plan_emits_one_record(self):
        from repro.cloud import Cloud
        from repro.runner import execute_plan

        with capture_runs() as ledger:
            report = execute_plan(Cloud(seed=11), _pos_workload(),
                                  _quick_plan())
        recs = ledger.records(kind="runner")
        assert len(recs) == 1
        rec = recs[0]
        assert rec.label == "execute_plan"
        assert rec.config["seed"] == 11
        assert rec.config["strategy"] == "uniform"
        assert rec.deadline["bins"] == 4
        assert rec.deadline["makespan_s"] == pytest.approx(report.makespan)
        assert rec.billing["cost_usd"] == pytest.approx(
            report.cost, abs=1e-6)
        assert rec.profile["events_fired"] > 0
        assert set(rec.profile["phases"]) == {"acquire", "execute",
                                              "finalize"}

    def test_no_ledger_no_record_and_report_unchanged(self):
        from repro.cloud import Cloud
        from repro.runner import execute_plan

        assert get_run_ledger() is None
        with capture_runs() as ledger:
            ledgered = execute_plan(Cloud(seed=11), _pos_workload(),
                                    _quick_plan())
        bare = execute_plan(Cloud(seed=11), _pos_workload(), _quick_plan())
        assert bare.makespan == ledgered.makespan
        assert bare.cost == ledgered.cost
        assert len(ledger.records()) == 1

    def test_sweep_ships_cell_records_home(self):
        from repro.experiments.sweep import Cell, run_sweep

        cells = [Cell(fn="repro.experiments.exp_chaos:run_cell",
                      kwargs={"scenario_name": "slow-ebs", "seed": s,
                              "resilience": True}, tag=s)
                 for s in (101, 202)]
        with capture_runs() as ledger:
            result = run_sweep(cells, processes=1)
        kinds = {r.kind for r in ledger.records()}
        assert "runner" in kinds           # cells' inner runner records
        assert len(result.run_records) == len(ledger.records())
        ids = [r.run_id for r in ledger.records()]
        assert len(ids) == len(set(ids))   # parent re-stamps unique ids


class TestStrictEncoder:
    """Records hold only JSON; anything else is refused before writing."""

    def test_non_json_value_names_key_path(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="experiment", label="ok"))
        before = (tmp_path / "ledger.jsonl").read_bytes()
        bad = RunRecord(kind="experiment", label="bad",
                        extra={"variants": {"8a": {"plan": object()}}})
        with pytest.raises(LedgerError, match=r"^extra\.variants\.8a\.plan: "
                           r"object is not JSON-serialisable$"):
            ledger.append(bad)
        # No partial line: the file and the line count are unchanged.
        assert (tmp_path / "ledger.jsonl").read_bytes() == before
        assert len(RunLedger(tmp_path)) == 1
        ledger.append(RunRecord(kind="experiment", label="next"))
        assert ledger.records()[-1].run_id == "next-0002"

    def test_list_index_in_key_path(self):
        rec = RunRecord(kind="x", label="x", config={"xs": [1, 2, object()]})
        with pytest.raises(LedgerError, match=r"^config\.xs\.2: object"):
            rec.to_dict()

    def test_raises_under_capture_runs(self):
        with capture_runs() as ledger:
            with pytest.raises(LedgerError, match=r"extra\.report: "):
                record_experiment("probe", extra={"report": object()})
        assert ledger.records() == []

    def test_numpy_scalars_convert(self, tmp_path):
        extra = {"f": np.float64(1.5), "i": np.int64(7), "b": np.bool_(True),
                 "nested": [np.int64(2), {"k": np.float64(0.25)}]}
        RunLedger(tmp_path).append(
            RunRecord(kind="x", label="x", extra=extra))
        back = RunLedger(tmp_path).records()[0].extra
        assert back == {"f": 1.5, "i": 7, "b": True,
                        "nested": [2, {"k": 0.25}]}
        assert [type(back[k]) for k in ("f", "i", "b")] == [float, int, bool]

    @pytest.mark.parametrize("value, type_name", [
        (np.arange(3), "ndarray"),
        ({1, 2}, "set"),
        (frozenset({1}), "frozenset"),
    ])
    def test_arrays_and_sets_raise(self, value, type_name):
        rec = RunRecord(kind="x", label="x", extra={"v": value})
        with pytest.raises(LedgerError,
                           match=rf"^extra\.v: {type_name} is not"):
            rec.to_dict()


class TestRunIdCounting:
    def test_two_appenders_in_turn_match_full_recount(self, tmp_path):
        first, second = RunLedger(tmp_path), RunLedger(tmp_path)
        for i in range(3):
            first.append(RunRecord(kind="runner", label="a"))
            second.append(RunRecord(kind="runner", label="b"))
            # A burst from one side: the other counts bytes it never wrote.
            if i == 1:
                for _ in range(2):
                    second.append(RunRecord(kind="runner", label="b"))
        ids = [r.run_id for r in RunLedger(tmp_path).records()]
        assert ids == ["a-0001", "b-0002", "a-0003", "b-0004", "b-0005",
                       "b-0006", "a-0007", "b-0008"]

    def test_unterminated_last_line_counts(self, tmp_path):
        (tmp_path / "ledger.jsonl").write_text(
            '{"kind": "x", "label": "x"}\n{"kind": "x", "label"')
        rec = RunLedger(tmp_path).append(RunRecord(kind="x", label="y"))
        assert rec.run_id == "y-0003"

    def test_replaced_file_is_recounted(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for _ in range(3):
            ledger.append(RunRecord(kind="x", label="x"))
        (tmp_path / "ledger.jsonl").unlink()
        assert ledger.append(RunRecord(kind="x", label="x")).run_id \
            == "x-0001"
        # Replaced by a file with fewer but longer lines than were seen.
        (tmp_path / "ledger.jsonl").unlink()
        other = RunLedger(tmp_path)
        for _ in range(2):
            other.append(RunRecord(kind="x", label="x",
                                   extra={"pad": "p" * 2000}))
        assert ledger.append(RunRecord(kind="x", label="x")).run_id \
            == "x-0003"


class TestBoundedRecords:
    """Every record the figures and sweeps write stays small."""

    MAX_LINE = 16 * 1024

    def _lines(self, root):
        return (root / "ledger.jsonl").read_text().splitlines()

    def test_pos_deadline_records_are_summaries(self, tmp_path):
        from repro.core.planner import ProvisioningPlan
        from repro.experiments import exp_pos

        previous = set_run_ledger(RunLedger(tmp_path))
        try:
            tb = exp_pos.make_testbed(scale=0.05)
            _, out8 = exp_pos.fig8(tb, deadline=120.0)
            _, out9 = exp_pos.fig9(tb, deadline=240.0)
        finally:
            set_run_ledger(previous)
        assert max(len(line) for line in self._lines(tmp_path)) \
            <= self.MAX_LINE
        records = {r.label: r for r in RunLedger(tmp_path).records(
            kind="experiment")}
        for label, out in (("exp_pos.fig8", out8), ("exp_pos.fig9", out9)):
            summaries = records[label].extra["variants"]
            assert summaries.keys() == out["variants"].keys()
            for name, s in summaries.items():
                v = out["variants"][name]
                assert isinstance(v["plan"], ProvisioningPlan)
                assert s["volume"] == tb.catalogue.total_size
                assert len(s["predicted_times"]) == s["instances"]
                assert len(s["missed"]) == v["missed"]
                assert s["durations"] == v["durations"]
                assert len(s["plan_digest"]) == 16

    def test_sweep_records_are_bounded(self, tmp_path):
        from repro.experiments import exp_chaos, exp_matrix

        previous = set_run_ledger(RunLedger(tmp_path))
        try:
            exp_matrix.matrix_sweep(["fleet"], shapes=("linear",),
                                    regimes=("calm",), seeds=(11,))
            exp_chaos.chaos_sweep(["slow-ebs"], seeds=(11,),
                                  policies=(True,))
        finally:
            set_run_ledger(previous)
        lines = self._lines(tmp_path)
        assert len(lines) > 2
        assert max(len(line) for line in lines) <= self.MAX_LINE
