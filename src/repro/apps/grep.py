"""A streaming pattern-search application (the paper's grep workload).

Mirrors the §5.1 usage: searching for "simple patterns consisting of English
dictionary words", usually "a nonsense word to increase as much as possible
the likelihood that it is not found" — the full-traversal worst case.  Both
literal and regex patterns are supported; matching is per line, like grep.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from repro.apps.base import AppResult, TextApplication, Unit, UnitColumns, WorkAccount

__all__ = ["GrepApplication", "NONSENSE_WORD"]

#: The paper's trick pattern — guaranteed absent from generated corpora
#: (our synthetic vocabulary never produces a "q" without "u").
NONSENSE_WORD = "zqxjkvqz"


class GrepApplication(TextApplication):
    """Search unit files for a pattern, reporting matched lines.

    Parameters
    ----------
    pattern:
        Literal string or regular expression to search for.
    regex:
        Interpret ``pattern`` as a regex ("complex search patterns can tip
        the execution profile towards intense memory and CPU usage", §5.1).
    expected_hit_rate:
        Matches per byte used by :meth:`estimate_work`; 0 for the paper's
        nonsense-word scenario.
    """

    name = "grep"

    def __init__(self, pattern: str = NONSENSE_WORD, *, regex: bool = False,
                 expected_hit_rate: float = 0.0) -> None:
        if not pattern:
            raise ValueError("empty pattern")
        if expected_hit_rate < 0:
            raise ValueError("expected_hit_rate must be non-negative")
        self.pattern = pattern
        self.regex = regex
        self.expected_hit_rate = expected_hit_rate
        self._compiled = re.compile(pattern) if regex else None

    # -- native path -------------------------------------------------------

    def _match_line(self, line: str) -> bool:
        if self._compiled is not None:
            return self._compiled.search(line) is not None
        return self.pattern in line

    def run_native(self, units: Sequence[Unit]) -> AppResult:
        """Materialise the units and search them line by line."""
        work = WorkAccount()
        matched_lines: list[str] = []
        for unit in units:
            data = unit.materialize()
            work.files_opened += 1
            work.bytes_read += len(data)
            text = data.decode("ascii", errors="replace")
            for line in text.splitlines():
                if self._match_line(line):
                    work.matches += 1
                    work.output_bytes += len(line) + 1
                    matched_lines.append(line)
        work.validate()
        return AppResult(work=work, outputs={"lines": matched_lines})

    # -- metadata path -------------------------------------------------------

    def estimate_work(self, units: UnitColumns) -> WorkAccount:
        """Predict search work from unit sizes alone."""
        matches = int((units.size * self.expected_hit_rate).astype(np.int64).sum())
        work = WorkAccount(
            files_opened=len(units),
            bytes_read=int(units.size.sum()),
            matches=matches,
            # grep emits the whole matching line (~80 B typical line).
            output_bytes=matches * 80,
        )
        work.validate()
        return work
