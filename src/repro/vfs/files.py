"""Virtual files, segments and catalogues."""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.sim.random import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.packing.index import BinLayout

__all__ = ["TextStats", "VirtualFile", "Segment", "Catalogue"]

_STATS_RANGE = "text statistics must be positive and finite"
_MARKUP_RANGE = "markup fraction must be in [0, 1)"


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting.

    A bulk build allocates one tracked object per file, and every full
    collection it triggers walks all live files, the other catalogues held
    at the time included.  The objects built under the pause hold only
    numbers, strings and :class:`TextStats`, so they form no cycles and
    the pause leaves no garbage behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_unique(paths: Sequence[str]) -> None:
    """Raise for the first repeated path; one set build when all are unique."""
    if len(set(paths)) == len(paths):
        return
    seen: set[str] = set()
    for p in paths:
        if p in seen:
            raise ValueError(f"duplicate path in catalogue: {p!r}")
        seen.add(p)


@dataclass(frozen=True)
class TextStats:
    """Summary text statistics carried as file metadata.

    These drive the POS tagger's work estimate without materialising bytes:
    ``avg_sentence_words`` is the paper's key complexity parameter ("average
    sentence length is an important parameter for POS tagging", §5.2) and
    ``avg_word_len`` converts bytes to token counts.
    """

    avg_word_len: float = 5.0
    avg_sentence_words: float = 18.0
    markup_fraction: float = 0.0  # fraction of bytes that is HTML markup

    def __post_init__(self) -> None:
        # Range checks that NaN fails too: the cost model's int casts need finite stats.
        if not (0 < self.avg_word_len < math.inf and 0 < self.avg_sentence_words < math.inf):
            raise ValueError(_STATS_RANGE)
        if not 0.0 <= self.markup_fraction < 1.0:
            raise ValueError(_MARKUP_RANGE)

    @classmethod
    def _column(cls, avg_word_len, avg_sentence_words,
                markup_fraction) -> list["TextStats"]:
        """One ``TextStats`` per row of the broadcast float columns.

        :meth:`__post_init__`'s predicates run once over whole columns with
        numpy and raise its error for the first bad row.  The objects are
        then built without re-checking them and equal constructor-built
        ones; a scalar column is one float shared by every row.
        """
        columns = [np.asarray(c, dtype=np.float64)
                   for c in (avg_word_len, avg_sentence_words, markup_fraction)]
        awl, asw, mf = np.atleast_1d(*np.broadcast_arrays(*columns))
        in_range = (0 < awl) & (awl < math.inf) & (0 < asw) & (asw < math.inf)
        bad = np.flatnonzero(~(in_range & (0.0 <= mf) & (mf < 1.0)))
        if bad.size:
            raise ValueError(_STATS_RANGE if not in_range[bad[0]] else _MARKUP_RANGE)
        rows = [repeat(c.item(), len(b)) if c.ndim == 0 else b.tolist()
                for c, b in zip(columns, (awl, asw, mf))]
        new, put = object.__new__, object.__setattr__
        column = []
        with _collector_paused():
            for a, s, m in zip(*rows):
                stats = new(cls)
                put(stats, "avg_word_len", a)
                put(stats, "avg_sentence_words", s)
                put(stats, "markup_fraction", m)
                column.append(stats)
        return column


@dataclass(frozen=True)
class VirtualFile:
    """One corpus file: metadata always available, bytes generated on demand.

    ``content_seed`` plus the (pluggable) generator make materialisation
    deterministic: the same file always renders to the same bytes.
    """

    path: str
    size: int
    stats: TextStats = field(default_factory=TextStats)
    content_seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file {self.path!r} has negative size")

    # -- materialisation ---------------------------------------------------

    def materialize(self, renderer: Callable[["VirtualFile"], bytes] | None = None) -> bytes:
        """Render this file's bytes (deterministic in ``content_seed``).

        A custom ``renderer`` may be supplied (the corpus package installs a
        realistic text renderer); the default emits seeded pseudo-text that
        honours the size exactly.
        """
        if renderer is not None:
            data = renderer(self)
        else:
            from repro.corpus.text import render_virtual_file

            data = render_virtual_file(self)
        if len(data) != self.size:
            raise ValueError(
                f"renderer produced {len(data)} bytes for {self.path!r}, expected {self.size}"
            )
        return data


@dataclass(frozen=True)
class LiteralFile(VirtualFile):
    """A virtual file with its exact bytes attached.

    Used where the *same* content must feed both the native application and
    the metadata estimator (the novels experiment, targeted unit tests).
    """

    content: bytes = b""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.content) != self.size:
            raise ValueError(
                f"literal file {self.path!r}: content is {len(self.content)} bytes, "
                f"size says {self.size}"
            )

    @classmethod
    def from_text(cls, path: str, text: str, stats: TextStats | None = None) -> "LiteralFile":
        data = text.encode("ascii")
        return cls(path=path, size=len(data), stats=stats or TextStats(), content=data)

    def materialize(self, renderer=None) -> bytes:
        """Render this unit's exact bytes."""
        return self.content


@dataclass(frozen=True)
class Segment:
    """A reshaped unit file: the concatenation of member virtual files.

    The paper's applications "do not need to be further modified to be
    capable to consume the concatenated larger input files" (§1), so a
    segment materialises as members joined by a newline.
    """

    name: str
    members: tuple[VirtualFile, ...]
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Separator newlines count toward nothing: size is the member sum, folded once.
        object.__setattr__(self, "_size", sum(m.size for m in self.members))

    @classmethod
    def from_layouts(cls, layouts: Sequence["BinLayout"], files: Sequence[VirtualFile],
                     prefix: str, *, digits: int) -> list["Segment"]:
        """One segment per non-empty packed bin, named ``{prefix}/unit{k}``.

        ``k`` is the bin's position among all ``layouts``, zero-padded to
        ``digits``.  Each size is the bin's ``used`` total, which the packer
        already holds as the exact member sum, so members are not re-summed.
        """
        segments = []
        for idx, l in enumerate(layouts):
            if l.indices:
                seg = cls.__new__(cls)
                object.__setattr__(seg, "name", f"{prefix}/unit{idx:0{digits}d}")
                object.__setattr__(seg, "members", tuple([files[i] for i in l.indices]))
                object.__setattr__(seg, "_size", l.used)
                segments.append(seg)
        return segments

    @property
    def size(self) -> int:
        return self._size

    @property
    def n_members(self) -> int:
        return len(self.members)

    def stats(self) -> TextStats:
        """Volume-weighted aggregate statistics of the members."""
        total = self.size
        if total == 0:
            return TextStats()
        w = [m.size / total for m in self.members]
        return TextStats(
            avg_word_len=sum(wi * m.stats.avg_word_len for wi, m in zip(w, self.members)),
            avg_sentence_words=sum(
                wi * m.stats.avg_sentence_words for wi, m in zip(w, self.members)
            ),
            markup_fraction=sum(wi * m.stats.markup_fraction for wi, m in zip(w, self.members)),
        )

    def materialize(self) -> bytes:
        """Render this unit's exact bytes."""
        return b"\n".join(m.materialize() for m in self.members) if self.members else b""


class Catalogue:
    """Ordered, immutable collection of virtual files.

    Supports the operations the experiments need: totals, slicing by count
    or by volume (probe construction, §4), random volume samples without
    replacement (§5.1/§5.2 refits), and size histograms (Fig. 1).

    A catalogue built from files checks once that its paths are unique.
    Corpus and stage catalogues are built in one bulk pass instead
    (:meth:`_from_columns`), which checks whole columns once.
    Every catalogue derived from one — a volume head, a random sample, a
    partition, a filter or a size ordering — is an *index slice*: it holds
    the parent's own :class:`VirtualFile` objects, gathers its size column
    from the parent's with numpy, and exposes the parent positions it holds
    as :attr:`positions`.  A subset of unique paths is unique, so a slice
    only checks that its positions are distinct and in range.
    """

    def __init__(self, files: Iterable[VirtualFile], name: str = "catalogue") -> None:
        self._files: list[VirtualFile] = list(files)
        self.name = name
        _check_unique([f.path for f in self._files])
        self._sizes = np.array([f.size for f in self._files], dtype=np.int64)
        self._cum = np.cumsum(self._sizes) if self._files else np.array([])
        self._positions: np.ndarray | None = None
        self._fingerprint: str | None = None

    @classmethod
    def _slice(cls, files: list[VirtualFile], sizes: np.ndarray, cum: np.ndarray,
               positions: np.ndarray | None, name: str) -> "Catalogue":
        out = cls.__new__(cls)
        out._files = files
        out.name = name
        out._sizes = sizes
        out._cum = cum if len(files) else np.array([])
        out._positions = positions
        out._fingerprint = None
        return out

    @classmethod
    def _from_columns(cls, name: str, paths: Sequence[str], sizes: np.ndarray,
                      stats: Sequence[TextStats],
                      seeds: Sequence[int]) -> "Catalogue":
        """Catalogue of ``VirtualFile(paths[i], sizes[i], stats[i], seeds[i])``.

        The bulk build of corpus and stage catalogues.  Sizes and path
        uniqueness are checked once over the columns, raising the errors
        :class:`VirtualFile` and :meth:`__init__` raise; ``stats`` are
        already-checked objects (e.g. from :meth:`TextStats._column`).  The
        files are then built without per-object re-checks, with the cyclic
        collector paused, and equal constructor-built ones.  The int64
        ``sizes`` column becomes the catalogue's own, so callers pass a
        fresh array.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if not len(paths) == len(sizes) == len(stats) == len(seeds):
            raise ValueError(f"{name}: file columns differ in length")
        negative = np.flatnonzero(sizes < 0)
        if negative.size:
            raise ValueError(f"file {paths[int(negative[0])]!r} has negative size")
        _check_unique(paths)
        new, put = object.__new__, object.__setattr__
        files = []
        with _collector_paused():
            for path, size, text, seed in zip(paths, sizes.tolist(), stats, seeds):
                f = new(VirtualFile)
                put(f, "path", path)
                put(f, "size", size)
                put(f, "stats", text)
                put(f, "content_seed", seed)
                files.append(f)
        return cls._slice(files, sizes, np.cumsum(sizes), None, name)

    def _take(self, indices: Sequence[int] | np.ndarray, name: str) -> "Catalogue":
        """Slice holding the files at ``indices``, in the order given."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size:
            ordered = np.sort(idx)
            if (ordered[0] < 0 or ordered[-1] >= len(self._files)
                    or (ordered[1:] == ordered[:-1]).any()):
                raise ValueError(
                    f"{name}: slice positions must be distinct and within "
                    f"the {len(self._files)} files of {self.name!r}"
                )
        files = self._files
        sizes = self._sizes[idx]
        return self._slice([files[i] for i in idx.tolist()], sizes, np.cumsum(sizes),
                           idx, name)

    def _prefix(self, k: int, name: str) -> "Catalogue":
        """Slice holding the first ``k`` files (``0 <= k <= len(self)``)."""
        return self._slice(self._files[:k], self._sizes[:k], self._cum[:k], None, name)

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self) -> Iterator[VirtualFile]:
        return iter(self._files)

    def __getitem__(self, idx: int) -> VirtualFile:
        return self._files[idx]

    @property
    def files(self) -> Sequence[VirtualFile]:
        return tuple(self._files)

    @property
    def positions(self) -> np.ndarray:
        """Positions, in the catalogue this one was sliced from, of its files.

        A catalogue built from files is its own parent, and a prefix holds
        its parent's first files: both report ``0..n-1``.  Masks over the
        parent index with these, e.g. to exclude drawn files from the next
        :meth:`sample_by_volume`.
        """
        if self._positions is None:
            return np.arange(len(self._files))
        return self._positions

    @property
    def total_size(self) -> int:
        return int(self._cum[-1]) if len(self._files) else 0

    @property
    def max_file_size(self) -> int:
        return int(self._sizes.max()) if len(self._files) else 0

    def sizes(self) -> np.ndarray:
        """File sizes in catalogue order as a cached ``np.int64`` column.

        This is the packing engine's input: the ``*_layout`` kernels consume
        it directly, so reshaping and provisioning never build a per-file
        packing object.  Treat the array as read-only.
        """
        return self._sizes

    def fingerprint(self) -> str:
        """Content hash of the size column, for packing-cache keys.

        Layouts produced by the engine's order-preserving kernels are pure
        functions of the size column, so catalogues with equal columns may
        share cached packings regardless of path names.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(len(self._files).to_bytes(8, "little"))
            h.update(self._sizes.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- probe/sample construction ------------------------------------------

    def head_by_volume(self, volume: int) -> "Catalogue":
        """Smallest prefix (in original order) reaching at least ``volume``.

        This is how §4 builds ``P^V_orig``: take the data "in its original
        form" up to the requested probe volume.
        """
        if volume <= 0:
            return self._prefix(0, f"{self.name}[:0B]")
        if volume >= self.total_size:
            return self._prefix(len(self._files), f"{self.name}[:all]")
        k = int(np.searchsorted(self._cum, volume)) + 1
        return self._prefix(k, f"{self.name}[:{volume}B]")

    def sample_by_volume(
        self, volume: int, rng: RngStream, *, exclude: np.ndarray | None = None
    ) -> "Catalogue":
        """Random sample of ≈``volume`` bytes without replacement.

        ``exclude`` is a boolean mask over this catalogue's files; masked
        files are never drawn.  Setting a sample's :attr:`positions` in the
        mask supports the paper's repeated non-overlapping samples ("10
        random samples (without replacement) of 2 GB", §5.1).  The sample
        is the shortest prefix of a shuffle of the remaining files that
        reaches ``volume`` (nothing for ``volume`` 0, everything when the
        remaining files fall short), returned in catalogue order.
        """
        if volume < 0:
            raise ValueError("sample volume must be non-negative")
        n = len(self._files)
        if exclude is None:
            pool = np.arange(n)
        else:
            mask = np.asarray(exclude)
            if mask.dtype != np.bool_ or mask.shape != (n,):
                raise ValueError(
                    f"exclude must be a boolean mask over the {n} files of {self.name!r}"
                )
            pool = np.flatnonzero(~mask)
        # The permutation depends only on the pool's length, so shuffling
        # the positions draws exactly what shuffling range(len(pool)) would.
        rng.shuffle(pool)
        k = 0
        if volume > 0:
            k = min(int(np.searchsorted(np.cumsum(self._sizes[pool]), volume)) + 1,
                    len(pool))
        # Restore catalogue order so downstream packing sees original order.
        return self._take(np.sort(pool[:k]), f"{self.name}[sample {volume}B]")

    def filter(self, predicate) -> "Catalogue":
        """Files satisfying ``predicate`` (original order preserved)."""
        keep = [i for i, f in enumerate(self._files) if predicate(f)]
        return self._take(keep, f"{self.name}[filtered]")

    def sorted_by_size(self, *, descending: bool = False) -> "Catalogue":
        """Size-ordered slice (the paper builds initial probes 'among the
        smallest' files, §4)."""
        files = self._files
        order = sorted(range(len(files)), key=lambda i: (files[i].size, files[i].path),
                       reverse=descending)
        return self._take(order, f"{self.name}[by-size]")

    @staticmethod
    def concat(parts: Sequence["Catalogue"], name: str = "concat") -> "Catalogue":
        """Concatenate catalogues (paths must stay globally unique)."""
        files: list[VirtualFile] = []
        for p in parts:
            files.extend(p)
        return Catalogue(files, name=name)

    def partition_volumes(self, n_parts: int) -> list["Catalogue"]:
        """Split into ``n_parts`` contiguous, ≈equal-volume catalogues.

        Models staging data "equally across 100 EBS storage volumes" (§5.1).
        """
        from repro.packing import uniform_layout

        layouts = uniform_layout(self._sizes.tolist(), n_bins=n_parts,
                                 preserve_order=True)
        return [self._take(l.indices, f"{self.name}/part{i}")
                for i, l in enumerate(layouts)]

    # -- analytics -----------------------------------------------------------

    def size_histogram(self, bin_width: int, max_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Frequency distribution of file sizes (Fig. 1).

        Returns ``(bin_edges, counts)`` with edges at multiples of
        ``bin_width``; sizes beyond ``max_size`` are excluded from the plot
        (the paper shows Fig. 1(a) "up to files of size 300 kB").
        """
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        sizes = self._sizes
        if max_size is not None:
            sizes = sizes[sizes <= max_size]
        if sizes.size == 0:
            return np.array([0, bin_width]), np.array([0])
        top = int(sizes.max() // bin_width + 1) * bin_width
        edges = np.arange(0, top + bin_width, bin_width)
        counts, _ = np.histogram(sizes, bins=edges)
        return edges, counts

    def describe(self) -> dict:
        """Summary row used by the dataset figures and EXPERIMENTS.md."""
        sizes = self._sizes
        if sizes.size == 0:
            return {"name": self.name, "files": 0, "total": 0}
        return {
            "name": self.name,
            "files": int(sizes.size),
            "total": int(sizes.sum()),
            "mean": float(sizes.mean()),
            "median": float(np.median(sizes)),
            "max": int(sizes.max()),
            "p90": float(np.percentile(sizes, 90)),
        }
