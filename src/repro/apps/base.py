"""Application protocol and work accounting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

import numpy as np

from repro.vfs.files import Catalogue, Segment, VirtualFile

__all__ = ["WorkAccount", "AppResult", "UnitColumns", "fold", "TextApplication", "Unit"]

#: A unit the native applications materialise: a catalogue's file view or
#: a packed catalogue's segment view.
Unit = Union[VirtualFile, Segment]
_STAT_COLUMNS = ("avg_word_len", "avg_sentence_words", "markup_fraction")


@dataclass
class WorkAccount:
    """Deterministic work counters for one application run.

    Wall-clock time on EC2 is noisy and machine-dependent; work counters are
    exact and portable.  The cost profiles in :mod:`repro.apps.profiles`
    convert them to reference seconds, and instance heterogeneity is applied
    on top by the cloud simulator.
    """

    files_opened: int = 0
    bytes_read: int = 0
    tokens: int = 0
    sentences: int = 0
    matches: int = 0
    output_bytes: int = 0
    context_ops: float = 0.0  # superlinear per-sentence tagger work

    def __add__(self, other: "WorkAccount") -> "WorkAccount":
        return WorkAccount(
            files_opened=self.files_opened + other.files_opened,
            bytes_read=self.bytes_read + other.bytes_read,
            tokens=self.tokens + other.tokens,
            sentences=self.sentences + other.sentences,
            matches=self.matches + other.matches,
            output_bytes=self.output_bytes + other.output_bytes,
            context_ops=self.context_ops + other.context_ops,
        )

    def validate(self) -> None:
        """Reject negative counters (corrupted accounting)."""
        for name in ("files_opened", "bytes_read", "tokens", "sentences",
                     "matches", "output_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative work counter {name}")
        if self.context_ops < 0:
            raise ValueError("negative context_ops")


@dataclass
class AppResult:
    """Outcome of a native run: exact work plus application outputs."""

    work: WorkAccount
    outputs: dict = field(default_factory=dict)


class UnitColumns:
    """A bin's units as numpy columns: what every cost model prices.

    The units are a :class:`~repro.vfs.Catalogue` (a probe head, a
    partition, a plan bin, or a packed layout of segments), so ``size``
    is its size column and ``avg_word_len``, ``avg_sentence_words`` and
    ``markup_fraction`` are gathered from its stat columns on first read:
    a profile that never reads them (grep) never aggregates segment
    statistics, and pricing builds no file object.

    Work that several passes over one bin read is kept with :meth:`once`,
    and a per-file value of a stat with :meth:`per_file`, once per store
    position.
    """

    def __init__(self, units: Catalogue) -> None:
        self._units = units
        self._once: dict[Callable, Any] = {}
        self.size = units.sizes()

    def __len__(self) -> int:
        return len(self.size)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _STAT_COLUMNS:
            raise AttributeError(name)
        for column, values in zip(_STAT_COLUMNS, self._units._stat_columns()):
            setattr(self, column, values)
        return getattr(self, name)

    def once(self, fn: Callable[["UnitColumns"], Any]) -> Any:
        """``fn(self)``, computed on the first call and kept for the next."""
        if fn not in self._once:
            self._once[fn] = fn(self)
        return self._once[fn]

    def per_file(self, name: str, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``fn`` of stat column ``name``, computed once per store position
        (:meth:`~repro.vfs.Catalogue.stat_map`), so a file priced in many
        bins is computed once."""
        return self._units.stat_map(name, fn)


def fold(values: np.ndarray) -> float:
    """In-order float sum; ``ndarray.sum`` adds pairwise and can move the last ulp."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class TextApplication(ABC):
    """A text tool that consumes unit files and reports its work.

    Implementations guarantee that for units whose metadata is faithful,
    ``estimate_work`` over their :class:`UnitColumns` approximates the
    counters ``run_native`` produces (tests pin the agreement tolerance).
    """

    name: str = "app"

    @abstractmethod
    def run_native(self, units: Sequence[Unit]) -> AppResult:
        """Materialise and actually process ``units``."""

    @abstractmethod
    def estimate_work(self, units: UnitColumns) -> WorkAccount:
        """Predict the work counters from metadata alone."""
