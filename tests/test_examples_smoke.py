"""Smoke tests: the fast examples run to completion as scripts.

The slower examples (quickstart, news_grep_campaign,
pos_deadline_scheduling) are exercised by the campaign/experiment tests at
reduced scale; here the cheap ones run verbatim so a broken public API
surfaces immediately.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


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
        """Byte-identical stdout: the day-one runs round-trip through a
        run ledger file and size day two's fleet from it."""
        out = run_example("fleet_learning.py", capsys)
        assert "saved 6 run records to grep_history.jsonl" in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "2bed5d05326f7f70243b6e940de1810c67841bc3812aefa52c1c0d7a067c8dbc")

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
