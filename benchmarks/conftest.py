"""Shared benchmark helpers.

Each benchmark regenerates one paper figure/table: it prints the ASCII
rendering of the regenerated figure, appends paper-vs-measured comparison
rows, and asserts the *shape* claims (who wins, by what factor).  A figure
bench runs the ``repro.cli`` figure function itself, which builds its own
testbed, so the claims hold on exactly the numbers
``python -m repro.cli figures`` prints and docs/FIGURES.md shows.
"""

from __future__ import annotations

from repro.cli import FIGURES
from repro.experiments.sweep import resolve


def single_shot(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_figure(benchmark, fid: str):
    """Regenerate ``repro.cli`` figure ``fid`` once; ``(figure, stats)``."""
    return single_shot(benchmark, resolve(FIGURES[fid]))


def show(fig) -> None:
    from repro.report.figures import render_ascii

    print()
    print(render_ascii(fig))
