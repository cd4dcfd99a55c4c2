#!/usr/bin/env python
"""Render every regenerated figure into docs/FIGURES.md.

A human-skimmable gallery: each figure's block is exactly what
``python -m repro.cli figures --ids <id>`` prints, because both run the
figures through :func:`repro.cli.figure_session`.  The tier-1 suite
compares every block with the CLI's output, so rerun this script after
an intended change of figure output.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import FIGURES, figure_session
from repro.report.figures import render_ascii

OUT = Path(__file__).resolve().parent.parent / "docs" / "FIGURES.md"

#: Heading for each ``repro.cli`` figure id.
CAPTIONS = {
    "F1a": "Fig. 1(a): HTML data set size distribution",
    "F1b": "Fig. 1(b): text data set size distribution",
    "F2": "Fig. 2: fitted-curve shapes and the provisioning rule",
    "F3": "Fig. 3: grep on 1 MB — unstable small probes",
    "F4": "Fig. 4: grep on 5 GB — the 10 MB plateau",
    "F5": "Fig. 5: fine sampling — repeatable EBS spikes",
    "F6": "Fig. 6 + Eqs. (1)-(2): full grep run",
    "F7": "Fig. 7: POS vs unit size — original wins",
    "F8": "Fig. 8: POS scheduling, D = 1 h",
    "F9": "Fig. 9: POS scheduling, D = 2 h",
    "X1": "§5.2: Dubliners vs Agnes Grey",
    "X2": "§3.1: slow-instance switching arithmetic",
    "X3": "§4: escalating probe protocol",
    "X4": "§1: output-retrieval speedup",
    "X5": "§1.1: spot bidding trade-off",
    "X6": "§4: analytical vs empirical vs historical",
    "X7": "§5.2: when random sampling is vital",
}


def main() -> None:
    lines = [
        "# Regenerated figures",
        "",
        "Rendered by `python scripts/generate_figures_md.py`.  Each block is",
        "what `python -m repro.cli figures --ids <id>` prints; the tier-1",
        "suite checks every block against the CLI, and the benchmark suite",
        "asserts the shape claims on the same series.",
        "",
    ]
    for fid, fig, _ in figure_session(FIGURES):
        lines += [f"## {fid} · {CAPTIONS[fid]}", "", "```text",
                  render_ascii(fig), "```", ""]
    OUT.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {OUT} ({len(FIGURES)} figures)")


if __name__ == "__main__":
    main()
