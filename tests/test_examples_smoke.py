"""Smoke tests: every example runs to completion as a script.

Each example runs verbatim, in-process, so a broken public API surfaces
immediately.  Its stdout is pinned by sha256 next to a few substring
checks; a digest mismatch prints the example's stdout.  Regenerate a
digest only for an intended change of output, and say so in the change
log.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

STDOUT_SHA256 = {
    "broker_matrix.py":
        "feb1ba988240e6b41554852d3edc3a167a511f4ed385427c0cc6d7d5eac1b8f0",
    "dag_pipeline.py":
        "14e47f255098518263cb3d5e92b9e6849c855abf799a5e78e205224ad3a62fac",
    "dynamic_rescheduling.py":
        "7628aa7f8511b3789848ec4f1f9bd328a67e40a5684664eeef318e425d2ed176",
    "fault_tolerance.py":
        "492eeaf25138f564cc41b34c6d65f28f961c5784673cd4269c53a930b9ccd89b",
    "fleet_learning.py":
        "2bed5d05326f7f70243b6e940de1810c67841bc3812aefa52c1c0d7a067c8dbc",
    "fleet_sharing.py":
        "afa12921860320984d77c7f667f99e356305323a36ad427a2f015f403c8abec8",
    "news_grep_campaign.py":
        "4864c56c8c43493ea952d640ea4340c70bad254646215d597c8aae183fa84ebc",
    "pos_deadline_scheduling.py":
        "da9793f04c39d00b53bbd6f48cb27116f5122f0637ca9608be7b82b8ec578843",
    "quickstart.py":
        "ca18090da3eab1102b4a72074a244c2ae43769b1c7c5ac07ded54a6bbe729264",
    "spot_fallback.py":
        "c80f99a5af13e2603b48a795ec7851d19058c2fe40d9d4e5ada330fa93e6d573",
    "spot_market.py":
        "8c1d944f08dcfad8213a403ca5dc80dd6b80fe73d284aeb69ff4634349c71630",
    "text_workflow.py":
        "f44a8751033fd41f6d98999e2365f114e64ef17ee227dfe68c84b11c24bae4f3",
}


def run_example(name: str, capsys):
    """Run ``examples/<name>``; its stdout, checked against its digest."""
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[name], f"{name} stdout moved:\n{out}"
    return out


def test_every_example_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(
        p.name for p in EXAMPLES.glob("*.py"))


class TestLongerExamples:
    """The four examples that take a second or more each."""

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "fitted model" in out
        assert "cloud ledger total" in out

    def test_news_grep_campaign(self, capsys):
        out = run_example("news_grep_campaign.py", capsys)
        assert "unit-size sweep" in out
        assert "total bill" in out

    def test_pos_deadline_scheduling(self, capsys):
        out = run_example("pos_deadline_scheduling.py", capsys)
        assert "residual adjustment" in out
        assert "per-instance timeline" in out

    def test_dag_pipeline(self, capsys):
        out = run_example("dag_pipeline.py", capsys)
        assert "per-stage anatomy" in out
        assert "concurrent" in out and "serial" in out


class TestFastExamples:
    def test_spot_market(self, capsys):
        out = run_example("spot_market.py", capsys)
        assert "on-demand" in out
        assert "$" in out

    def test_spot_fallback(self, capsys):
        out = run_example("spot_fallback.py", capsys)
        assert "fallback ladder" in out
        assert "naive spot" in out
        assert "pure on-demand" in out

    def test_fault_tolerance(self, capsys):
        out = run_example("fault_tolerance.py", capsys)
        assert "processed exactly once" in out
        assert "crashes:" in out

    def test_text_workflow(self, capsys):
        out = run_example("text_workflow.py", capsys)
        assert "workflow makespan" in out
        assert "met" in out

    def test_dynamic_rescheduling(self, capsys):
        out = run_example("dynamic_rescheduling.py", capsys)
        assert "straggler(s) replaced" in out

    def test_broker_matrix(self, capsys):
        out = run_example("broker_matrix.py", capsys)
        assert "eviction-storm" in out
        assert "spot-lease" in out
        assert "interruptions ridden out" in out
        assert "the broker stack is the only thing that changed" in out

    def test_fleet_learning(self, capsys):
        """The day-one runs round-trip through a run ledger file and size
        day two's fleet from it."""
        out = run_example("fleet_learning.py", capsys)
        assert "saved 6 run records to grep_history.jsonl" in out

    def test_fleet_sharing(self, capsys):
        out = run_example("fleet_sharing.py", capsys)
        assert "rejected (unknown tenant 'hooli')" in out
        assert "rejected (budget" in out
        assert "warm-pool hit rate" in out
        assert "per-tenant bill" in out


class TestExampleFilesExist:
    @pytest.mark.parametrize("name", [
        "quickstart.py",
        "news_grep_campaign.py",
        "pos_deadline_scheduling.py",
        "dynamic_rescheduling.py",
        "fault_tolerance.py",
        "text_workflow.py",
        "spot_market.py",
        "spot_fallback.py",
        "fleet_sharing.py",
        "broker_matrix.py",
    ])
    def test_listed_example_exists_and_has_main(self, name):
        path = EXAMPLES / name
        assert path.exists()
        src = path.read_text(encoding="utf-8")
        assert 'if __name__ == "__main__":' in src
        assert src.lstrip().startswith(("#!/usr/bin/env python", '"""'))
