"""Small catalogues, packed layouts and literal files for tests.

Every catalogue is built through the column constructor that the corpus
generators use, so tests exercise the one store the program runs on.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.packing import BinLayout
from repro.vfs import Catalogue, LiteralFile, Segment, TextStats, VirtualFile


def make_catalogue(sizes: Sequence[int], stats: TextStats | Sequence[TextStats] | None = None,
                   *, pattern: str = "f/%04d", name: str = "c", seed: int = 0) -> Catalogue:
    """A catalogue whose file ``i`` is ``pattern % i`` of ``sizes[i]`` bytes.

    ``stats`` is one :class:`TextStats` for every file, one per file, or
    ``None`` for the defaults; content seeds follow ``seed`` and ``name``.
    """
    if stats is None:
        stats = TextStats()
    if isinstance(stats, TextStats):
        columns = TextStats._column(*astuple(stats))
    else:
        columns = TextStats._column(*([getattr(s, f) for s in stats]
                                      for f in ("avg_word_len", "avg_sentence_words",
                                                "markup_fraction")))
    return Catalogue(name, pattern, seed, name, np.array(sizes, dtype=np.int64), columns)


@dataclass
class Files:
    """An oracle's catalogue: its files in order and its name."""

    files: list[VirtualFile]
    name: str

    def __iter__(self) -> Iterator[VirtualFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def columns(self) -> Catalogue:
        """A catalogue of these sizes: the size column, running total and
        fingerprint that a catalogue of these files holds."""
        return make_catalogue([f.size for f in self.files], name=self.name)


def pack(catalogue: Catalogue, bins: Sequence[Sequence[int]], prefix: str = "s",
         *, digits: int = 1) -> Catalogue:
    """The packed catalogue whose row ``k`` holds ``catalogue`` positions
    ``bins[k]`` (empty bins are skipped, as the packers' are)."""
    sizes = catalogue.sizes()
    layouts = [BinLayout(None, list(b), int(sum(sizes[list(b)].tolist()))) for b in bins]
    return catalogue._packed(layouts, prefix, digits=digits)


def segment(catalogue: Catalogue, positions: Sequence[int], prefix: str = "s") -> Segment:
    """One segment of the ``catalogue`` files at ``positions``."""
    (seg,) = pack(catalogue, [positions], prefix)
    return seg


def first(catalogue: Catalogue, n: int) -> Catalogue:
    """The first ``n`` files of ``catalogue``, as a run of it."""
    return catalogue._take(range(n), f"{catalogue.name}[:{n}]")


def as_catalogue(units: Sequence[VirtualFile | Segment]) -> Catalogue:
    """A catalogue with the sizes and stats of ``units`` (file or segment
    views): everything that pricing, planning and re-packing read of them."""
    stats = [u.stats() if isinstance(u, Segment) else u.stats for u in units]
    return make_catalogue([u.size for u in units], stats)


def literal(path: str, text: str, stats: TextStats | None = None) -> LiteralFile:
    """A file whose bytes are ``text``."""
    data = text.encode("ascii")
    return LiteralFile(path=path, size=len(data), stats=stats or TextStats(), content=data)
