#!/usr/bin/env python
"""List the ``src/`` functions that no entry point runs.

Usage::

    python scripts/reach_audit.py

Every entry point — each ``repro.cli`` subcommand, each ``examples/*.py``
and the three perfbench workloads — runs in its own subprocess under
``cProfile``, with its run ledger in a temporary directory.  A second
scope then runs the benchmark suite and the perf-trajectory gate.  Every
``def`` under ``src/`` is matched against the code objects the profiles
saw: a def counts as reached when a profiled code object has the same
file and the same first line (for a decorated def, the first decorator's
line, which is what ``co_firstlineno`` holds).  A def nested inside an
unreached def counts once, with its parent.

The report lists, per module, the unreached functions' line counts and
qualified names in two columns: those no run reached, and those only the
benchmarks or scripts reached.  Totals follow, then the ratchet: the
entry-point unreached-line count next to :data:`MAX_UNREACHED_LINES`.
The script exits 1 when the count is above that limit (wire the new code
into an entry point, or raise the limit with a CHANGES.md line saying
why), and otherwise exits 0, asking for the limit to be lowered when the
count fell below it.  It takes no options and 20–30 minutes on a 2-core
host.

Two limits follow from profiling one process per entry point: code that
runs only inside ``--processes`` pool workers (the sweep's worker and
initializer) is reported as unreached, and a command's exit status is
not seen, because ``cProfile`` swallows ``SystemExit``; only a crash
shows as ``(exit N)`` in the progress lines.
"""

from __future__ import annotations

import ast
import os
import pstats
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORKLOADS = ("grep-reshape", "pos-deadline", "capacity-matrix")
#: The ratchet: entry-point unreached function lines may not exceed this.
MAX_UNREACHED_LINES = 1_141
#: One subprocess: ``(name, argv after the interpreter)``.
Entry = tuple[str, list[str]]


def _cli(*args: str) -> list[str]:
    return ["-m", "repro.cli", *args]


def entry_points(tmp: Path) -> list[Entry]:
    """The entry-point scope, in run order (``runs`` reads what the
    earlier runs recorded under ``tmp/runs``)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.cli import DEMOS
    from repro.experiments.registry import load_defaults, slo_policy_names

    load_defaults()
    runs = ("--runs-dir", str(tmp / "runs"))
    entries: list[Entry] = [
        ("figures --all", _cli("figures", "--all", *runs)),
        ("datasets", _cli("datasets", *runs)),
        ("quickstart", _cli("quickstart", *runs)),
        ("fleet --compare", _cli("fleet", "--compare", *runs)),
        ("fleet --metrics", _cli("fleet", "--metrics", *runs)),
        ("chaos --all", _cli("chaos", "--all", "--policy", "both",
                             "--metrics", *runs)),
        ("chaos --processes 2", _cli(
            "chaos", "--scenario", "slow-ebs", "--seeds", "2",
            "--processes", "2", "--metrics-out", str(tmp / "metrics.json"),
            *runs)),
        ("spot --all --slo", _cli("spot", "--all", "--slo", "--metrics",
                                  *runs)),
        ("dag --slo", _cli("dag", "--slo", "--metrics", *runs)),
        ("matrix --slo", _cli("matrix", "--slo", "--metrics", *runs)),
        ("runs list", _cli("runs", "list", *runs)),
        ("runs show", _cli("runs", "show", *runs, "--", "-1")),
        ("runs diff", _cli("runs", "diff", "--strict", *runs,
                           "--", "-2", "-1")),
    ]
    entries += [(f"runs slo --policy {name}",
                 _cli("runs", "slo", "--strict", "--policy", name, *runs))
                for name in slo_policy_names()]
    entries += [(f"trace {demo}",
                 _cli("trace", demo, "--gantt", "--metrics", *runs,
                      "--out", str(tmp / f"{demo}.json"),
                      "--jsonl", str(tmp / f"{demo}.jsonl")))
                for demo in DEMOS]
    entries += [(f"examples/{path.name}", [str(path)])
                for path in sorted((REPO / "examples").glob("*.py"))]
    entries += [(f"perfbench {w}",
                 [str(REPO / "perfbench" / "run.py"), "--workload", w,
                  "--seconds", "1", "--trace", "1"])
                for w in WORKLOADS]
    return entries


def second_scope() -> list[Entry]:
    """Runs that reach code for measurement only, not for a user."""
    return [
        ("bench_packing_trajectory --check",
         [str(REPO / "scripts" / "bench_packing_trajectory.py"),
          "--check", "--warn-only"]),
        # No -x: the obs-overhead guards fail under the profiler, which
        # does not change which code the suite reaches.
        ("pytest benchmarks",
         ["-m", "pytest", str(REPO / "benchmarks"), "-q",
          "-p", "no:cacheprovider", "--benchmark-disable"]),
    ]


def profile(entries: list[Entry], tmp: Path, tag: str) -> set[tuple[str, int]]:
    """Run each entry under cProfile; the ``(file, first line)`` keys of
    every code object any of them called."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    reached: set[tuple[str, int]] = set()
    for i, (name, argv) in enumerate(entries):
        out = tmp / f"{tag}-{i}.prof"
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(out), *argv],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        note = "" if res.returncode == 0 else f"  (exit {res.returncode})"
        print(f"  {name:<44} {time.perf_counter() - t0:7.1f} s{note}",
              file=sys.stderr, flush=True)
        if not out.exists():
            print(res.stderr[-2000:], file=sys.stderr)
            continue
        reached |= reached_keys(pstats.Stats(str(out)), tmp)
    return reached


def reached_keys(stats: pstats.Stats, cwd: Path) -> set[tuple[str, int]]:
    """``(real path, first line)`` of every Python code object in
    ``stats``; relative file names are taken relative to ``cwd``."""
    return {(os.path.realpath(cwd / filename), line)
            for filename, line, _name in stats.stats  # type: ignore[attr-defined]
            if not filename.startswith(("~", "<"))}


@dataclass(eq=False)
class Def:
    """One ``def`` under ``src/``."""
    module: str
    path: str
    name: str
    first: int
    last: int
    parent: "Def | None"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def source_defs(path: Path, module: str) -> list[Def]:
    """Every def in ``path`` in pre-order (a parent before its nested
    defs), named by qualified name, starting at its first decorator."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    real = os.path.realpath(path)
    out: list[Def] = []

    def visit(node: ast.AST, prefix: str, parent: Def | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                d = Def(module, real, prefix + child.name, first,
                        child.end_lineno or child.lineno, parent)
                out.append(d)
                visit(child, d.name + ".", d)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", None)
    return out


def unreached(defs: list[Def], reached: set[tuple[str, int]]) -> list[Def]:
    """Defs with no matching code object; one nested in an unreached def
    is left out, since its lines count with the parent's."""
    dead: set[int] = set()
    out = []
    for d in defs:
        if (d.path, d.first) in reached:
            continue
        dead.add(id(d))
        if d.parent is None or id(d.parent) not in dead:
            out.append(d)
    return out


def all_defs() -> list[Def]:
    defs: list[Def] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        defs += source_defs(path, path.relative_to(SRC).as_posix())
    return defs


def _cell(d: Def | None) -> str:
    return f"{d.lines:>5}  {d.name}" if d else ""


def render(defs: list[Def], entry_scope: list[Def], never: list[Def]) -> str:
    """Per-module two-column table, then the totals."""
    never_ids = {id(d) for d in never}
    scripts_only = [d for d in entry_scope if id(d) not in never_ids]
    by_module: dict[str, tuple[list[Def], list[Def]]] = {}
    for column, items in enumerate((never, scripts_only)):
        for d in items:
            by_module.setdefault(d.module, ([], []))[column].append(d)
    width = max([len("never reached")] + [len(_cell(d)) for d in never]) + 2
    lines = [f"{'never reached':<{width}}reached only by benchmarks or scripts"]
    for module in sorted(by_module):
        a, b = by_module[module]
        lines.append("")
        lines.append(f"{module}  ({sum(d.lines for d in a)} + "
                     f"{sum(d.lines for d in b)} lines)")
        for x, y in zip_longest(a, b):
            lines.append(f"{_cell(x):<{width}}{_cell(y)}".rstrip())
    total_lines = sum(d.lines for d in defs if d.parent is None)
    lines += [
        "",
        f"entry points: {len(entry_scope)} of {len(defs)} functions, "
        f"{sum(d.lines for d in entry_scope):,} of {total_lines:,} "
        "function lines not reached",
        f"entry points + benchmarks and scripts: {len(never)} functions, "
        f"{sum(d.lines for d in never):,} function lines not reached",
    ]
    return "\n".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as name:
        tmp = Path(name)
        print("entry points:", file=sys.stderr)
        by_entries = profile(entry_points(tmp), tmp, "entry")
        print("benchmarks and scripts:", file=sys.stderr)
        by_scripts = profile(second_scope(), tmp, "scripts")
    defs = all_defs()
    entry_scope = unreached(defs, by_entries)
    print(render(defs, entry_scope, unreached(defs, by_entries | by_scripts)))
    measured = sum(d.lines for d in entry_scope)
    limit = MAX_UNREACHED_LINES
    print(f"ratchet: {measured:,} unreached entry-point function lines, "
          f"limit {limit:,}")
    if measured > limit:
        print(f"FAIL: {measured - limit:,} lines above the limit; reach them "
              "from an entry point or raise MAX_UNREACHED_LINES")
        return 1
    if measured < limit:
        print(f"lower MAX_UNREACHED_LINES to {measured}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
