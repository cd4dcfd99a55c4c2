"""HTML→text extraction — the pipeline stage between the paper's data sets.

The Text_400K corpus was "extracted from a subset of HTML English language
articles" (§3.2); this application performs that extraction: strip markup,
normalise whitespace, keep the visible text.  It is the middle stage of the
§7 "more complex workflows arising in text processing"
(grep-filter → extract → tag): :mod:`repro.core.workflow` apportions the
deadline across those stages and :class:`~repro.dag.scheduler.DagScheduler`
runs them.

Cost shape: streaming I/O plus a light per-byte parse — between grep and
the tagger, leaning toward grep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.apps.base import AppResult, TextApplication, Unit, UnitColumns, WorkAccount, fold
from repro.apps.profiles import TimeBreakdown
from repro.apps.tokenize import strip_markup
from repro.sim.random import RngStream
from repro.units import MB

__all__ = ["ExtractorApplication", "ExtractCostProfile"]

_WS_RE = re.compile(r"[ \t]+")
_BLANK_RE = re.compile(r"\n{3,}")


def extract_text(html: str) -> str:
    """Visible text of an HTML document, whitespace-normalised."""
    text = strip_markup(html)
    text = _WS_RE.sub(" ", text)
    text = "\n".join(line.strip() for line in text.splitlines())
    return _BLANK_RE.sub("\n\n", text).strip()


class ExtractorApplication(TextApplication):
    """Extract visible text from HTML unit files."""

    name = "extract"

    def run_native(self, units: Sequence[Unit]) -> AppResult:
        """Materialise and extract text from every unit."""
        work = WorkAccount()
        extracted: list[str] = []
        for unit in units:
            data = unit.materialize()
            work.files_opened += 1
            work.bytes_read += len(data)
            text = extract_text(data.decode("ascii", errors="replace"))
            work.output_bytes += len(text)
            extracted.append(text)
        work.validate()
        return AppResult(work=work, outputs={"texts": extracted})

    def estimate_work(self, units: UnitColumns) -> WorkAccount:
        """Predict extraction work from metadata alone."""
        visible_bytes = units.size * (1.0 - units.markup_fraction)
        work = WorkAccount(
            files_opened=len(units),
            bytes_read=int(units.size.sum()),
            output_bytes=int(visible_bytes.astype(np.int64).sum()),
        )
        work.validate()
        return work


@dataclass(frozen=True)
class ExtractCostProfile:
    """Streaming parse: I/O-bound with a modest per-byte CPU term."""

    setup_median: float = 0.25
    setup_sigma: float = 0.6
    per_file_overhead: float = 0.004      # same storage penalty as grep
    stream_bandwidth: float = 81.7 * MB
    parse_per_byte: float = 6.0e-9        # regex scanning + rewrite
    write_per_byte: float = 1.0e-8        # emitting the extracted text

    def draw_setup(self, rng: RngStream) -> float:
        """Per-run startup seconds (lognormal)."""
        return rng.lognormal(math.log(self.setup_median), self.setup_sigma)

    def breakdown(self, units: UnitColumns, *, matches: int = 0) -> TimeBreakdown:
        """Reference-time split for extracting ``units``."""
        size = units.size
        # Interleave each unit's read and write terms: they are added in that order.
        io = np.empty(2 * len(size))
        io[0::2] = self.per_file_overhead + size / self.stream_bandwidth
        io[1::2] = size * (1.0 - units.markup_fraction) * self.write_per_byte
        return TimeBreakdown(setup=0.0, io=fold(io), cpu=fold(size * self.parse_per_byte))
