"""The reach audit (``scripts/reach_audit.py``): scope and matcher.

The audit itself takes tens of minutes, so these tests check what it
would run and how it matches, not a full run: every ``repro.cli``
subcommand and every example is in its entry-point list (a new one cannot
escape the audit), a decorated def is matched by its first decorator's
line, a def nested in an unreached def counts once, with its parent, and
the ratchet fails only a count above its committed limit.
"""

import argparse
import cProfile
import importlib.util
import pstats
import sys
from pathlib import Path

import pytest

from repro.cli import DEMOS, build_parser

REPO = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def audit():
    return _load(REPO / "scripts" / "reach_audit.py", "reach_audit")


@pytest.fixture(scope="module")
def entries(audit, tmp_path_factory):
    return audit.entry_points(tmp_path_factory.mktemp("audit"))


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestEntryPointScope:
    def test_every_cli_subcommand_is_run(self, entries):
        cli_runs = [argv[2:] for _, argv in entries
                    if argv[:2] == ["-m", "repro.cli"]]
        ran = {args[0] for args in cli_runs}
        commands = _subcommands(build_parser())
        assert set(commands) <= ran
        ran_runs = {args[1] for args in cli_runs if args[0] == "runs"}
        assert set(_subcommands(commands["runs"])) <= ran_runs

    def test_every_demo_is_traced(self, entries):
        traced = {argv[3] for _, argv in entries
                  if argv[:3] == ["-m", "repro.cli", "trace"]}
        assert traced == set(DEMOS)

    def test_every_example_is_run(self, entries):
        scripts = {argv[0] for _, argv in entries}
        for path in (REPO / "examples").glob("*.py"):
            assert str(path) in scripts, path.name

    def test_every_perfbench_workload_is_run(self, audit, entries):
        workloads = {argv[argv.index("--workload") + 1]
                     for _, argv in entries if "--workload" in argv}
        assert workloads == set(audit.WORKLOADS)


SOURCE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
@deco
def decorated(x):
    return x + 1


def outer_unreached():
    def inner():
        return 1
    return inner


def outer_reached():
    def inner_unreached():
        return 2
    return 0
'''


class TestMatcher:
    @pytest.fixture()
    def probe(self, audit, tmp_path):
        path = tmp_path / "probe_mod.py"
        path.write_text(SOURCE)
        prof = cProfile.Profile()
        prof.enable()
        module = _load(path, "probe_mod")
        module.decorated(1)
        module.outer_reached()
        prof.disable()
        reached = audit.reached_keys(pstats.Stats(prof), tmp_path)
        defs = audit.source_defs(path, "probe_mod.py")
        return defs, audit.unreached(defs, reached)

    def test_decorated_def_matched_by_first_decorator_line(self, probe):
        defs, unreached = probe
        (decorated,) = [d for d in defs if d.name == "decorated"]
        assert decorated.first == SOURCE.splitlines().index("@deco") + 1
        assert decorated.last - decorated.first == 3
        assert "decorated" not in {d.name for d in unreached}

    def test_nested_def_counts_once_with_unreached_parent(self, probe):
        defs, unreached = probe
        assert "outer_unreached.inner" in {d.name for d in defs}
        assert [(d.name, d.lines) for d in unreached] == [
            ("outer_unreached", 4),
            ("outer_reached.inner_unreached", 2),
        ]


class TestRatchet:
    """``main`` with the profiling stubbed out: one unreached 10-line def."""

    @pytest.fixture()
    def run(self, audit, monkeypatch, capsys):
        monkeypatch.setattr(audit, "entry_points", lambda tmp: [])
        monkeypatch.setattr(audit, "second_scope", lambda: [])
        monkeypatch.setattr(audit, "profile", lambda entries, tmp, tag: set())
        monkeypatch.setattr(audit, "all_defs", lambda: [
            audit.Def("m.py", "/m.py", "f", 1, 10, None)])

        def run(limit):
            monkeypatch.setattr(audit, "MAX_UNREACHED_LINES", limit)
            status = audit.main()
            return status, capsys.readouterr().out
        return run

    def test_count_above_limit_fails(self, run):
        status, out = run(9)
        assert status == 1
        assert "ratchet: 10 unreached entry-point function lines, limit 9" in out
        assert "FAIL: 1 lines above the limit" in out

    def test_count_at_limit_passes(self, run):
        status, out = run(10)
        assert status == 0
        assert "FAIL" not in out and "lower" not in out

    def test_count_below_limit_passes_and_asks_to_lower(self, run):
        status, out = run(11)
        assert status == 0
        assert "lower MAX_UNREACHED_LINES to 10" in out
