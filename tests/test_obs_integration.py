"""End-to-end observability: traced campaigns, engine logs, CLI export."""

import json
import logging

import pytest

from repro import obs as obs_mod
from repro.obs import Obs, get_obs
from repro.sim.engine import SimulationEngine


@pytest.fixture
def enabled_obs():
    """Install an enabled default bundle; always restore the disabled one."""
    o = obs_mod.configure()
    try:
        yield o
    finally:
        obs_mod.disable()


def _mini_campaign(o):
    from repro.apps import PosCostProfile, PosTaggerApplication
    from repro.cloud import Cloud, Workload
    from repro.core.campaign import Campaign
    from repro.corpus import text_400k_like
    from repro.units import MB

    cloud = Cloud(seed=7, obs=o)
    catalogue = text_400k_like(scale=0.002)
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    campaign = Campaign(cloud, workload, catalogue)
    result = campaign.run(deadline=3600.0, initial_volume=4 * MB,
                          unit_sizes_for=lambda v: [1 * MB, 2 * MB],
                          strategy="uniform")
    return cloud, result


class TestDefaultBundle:
    def test_default_starts_disabled(self):
        assert not get_obs().enabled

    def test_configure_installs_and_disable_restores(self):
        o = obs_mod.configure()
        try:
            assert get_obs() is o and o.enabled
        finally:
            obs_mod.disable()
        assert not get_obs().enabled

    def test_obs_on_off_flags(self):
        assert not Obs.off().enabled
        metrics_only = Obs.on(trace=False)
        assert metrics_only.enabled and not metrics_only.tracer.enabled


class TestEngineEventLog:
    def test_schedule_fire_instants(self, enabled_obs):
        eng = SimulationEngine(tracer=enabled_obs.tracer)
        eng.schedule_at(1.0, lambda: None, label="a")
        eng.schedule_at(2.0, lambda: None, label="b")
        eng.run()
        names = [i.name for i in enabled_obs.tracer.instants]
        assert names == ["sim.engine.schedule", "sim.engine.schedule",
                         "sim.engine.fire", "sim.engine.fire"]
        assert [i.args["label"] for i in enabled_obs.tracer.instants] == [
            "a", "b", "a", "b"]

    def test_run_records_span_on_sim_track(self, enabled_obs):
        eng = SimulationEngine(tracer=enabled_obs.tracer)
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        (run_span,) = enabled_obs.tracer.spans_named("sim.engine.run")
        assert (run_span.t0, run_span.t1) == (0.0, 5.0)
        assert run_span.args["fired"] == 1

    def test_untraced_engine_records_nothing(self, enabled_obs):
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        eng.run()
        assert not any(i.cat == "sim" for i in enabled_obs.tracer.instants)


class TestTracedCampaign:
    def test_campaign_covers_four_plus_categories(self, enabled_obs):
        _mini_campaign(enabled_obs)
        cats = enabled_obs.tracer.categories()
        assert {"sim", "cloud", "packing", "runner"} <= cats

    def test_packing_cache_counters_nonzero(self, enabled_obs):
        _mini_campaign(enabled_obs)
        snap = enabled_obs.metrics.snapshot()["counters"]
        packing = {k: v for k, v in snap.items()
                   if k.startswith("packing.cache.")}
        assert packing and sum(packing.values()) > 0

    def test_lifecycle_and_billing_metrics(self, enabled_obs):
        cloud, result = _mini_campaign(enabled_obs)
        m = enabled_obs.metrics
        assert m.value("cloud.billing.records") > 0
        assert m.value("runner.tasks.completed", strategy="uniform") == \
            len(result.report.runs)
        boot = m.histogram("cloud.instance.boot_seconds")
        assert boot.count > 0

    def test_trace_gantt_renders_runner_rows(self, enabled_obs):
        from repro.report import render_trace_gantt

        _mini_campaign(enabled_obs)
        chart = render_trace_gantt(enabled_obs.tracer, category="runner",
                                   deadline=3600.0)
        assert "spans" in chart and "|" in chart

    def test_trace_gantt_empty_and_narrow(self, enabled_obs):
        from repro.report import render_trace_gantt

        assert render_trace_gantt(enabled_obs.tracer) == "(no spans recorded)"
        with pytest.raises(ValueError):
            render_trace_gantt(enabled_obs.tracer, width=5)


class TestLogBridge:
    def test_install_is_idempotent(self):
        from repro.obs.log import install

        root = install(logging.INFO)
        n = len(root.handlers)
        install(logging.DEBUG)
        assert len(root.handlers) == n


class TestCliTrace:
    def test_trace_subcommand_exports_and_prints(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main(["trace", "fault_tolerance",
                   "--out", str(out), "--jsonl", str(jsonl), "--gantt"])
        assert rc == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"sim", "cloud", "runner"} <= cats
        assert doc["otherData"]["spans"] > 0
        assert all(json.loads(line)
                   for line in jsonl.read_text().splitlines())
        printed = capsys.readouterr().out
        assert "== metrics: fault_tolerance ==" in printed
        assert "runner.crashes.detected" in printed
        # the CLI restored the disabled default
        assert not get_obs().enabled

    def test_trace_unknown_demo_fails_cleanly(self):
        from repro.cli import main

        assert main(["trace", "not_a_demo"]) == 2
