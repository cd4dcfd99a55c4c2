"""Virtual files, segments and catalogues."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.sim.random import RngStream, stable_seed, stable_seeds

if TYPE_CHECKING:  # pragma: no cover
    from repro.packing.index import BinLayout

__all__ = ["TextStats", "VirtualFile", "Segment", "Catalogue", "volume_of"]

_STATS_RANGE = "text statistics must be positive and finite"
_MARKUP_RANGE = "markup fraction must be in [0, 1)"
_STAT_FIELDS = ("avg_word_len", "avg_sentence_words", "markup_fraction")

#: A catalogue's three float64 stat columns, in :data:`_STAT_FIELDS` order.
StatColumns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_unique(paths: Iterable[str]) -> None:
    """Raise for the first repeated path."""
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

    @staticmethod
    def _column(avg_word_len, avg_sentence_words, markup_fraction) -> StatColumns:
        """The three stat columns, broadcast to one length and checked.

        :meth:`__post_init__`'s predicates run once over whole columns with
        numpy and raise its error for the first bad row.  A scalar column
        is broadcast without a copy; all-scalar input is one row.
        """
        columns = [np.asarray(c, dtype=np.float64)
                   for c in (avg_word_len, avg_sentence_words, markup_fraction)]
        awl, asw, mf = np.atleast_1d(*np.broadcast_arrays(*columns))
        in_range = (0 < awl) & (awl < math.inf) & (0 < asw) & (asw < math.inf)
        bad = np.flatnonzero(~(in_range & (0.0 <= mf) & (mf < 1.0)))
        if bad.size:
            raise ValueError(_STATS_RANGE if not in_range[bad[0]] else _MARKUP_RANGE)
        return awl, asw, mf


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


# -- column stores -------------------------------------------------------------


def _file_columns(files: Sequence[VirtualFile]) -> StatColumns:
    """The three stat columns of ``files``, read attribute by attribute."""
    stats = [f.stats for f in files]
    awl, asw, mf = (np.fromiter((getattr(s, name) for s in stats), float, len(stats))
                    for name in _STAT_FIELDS)
    return awl, asw, mf


class _Store:
    """The columns of a catalogue's files, shared by it and all its slices.

    A store holds the int64 ``sizes`` and the three float64 stat columns
    (``stats``); subclasses work out each position's path and content
    seed from their own rule.  A :class:`VirtualFile` view of a position
    is built the first time it is read and cached, so every catalogue,
    segment and plan bin over the store hands out the same object for the
    same position.
    """

    def __init__(self, sizes: np.ndarray, stats: StatColumns) -> None:
        self.sizes = sizes
        self.stats = stats
        self._views: dict[int, VirtualFile] = {}
        self.memos: dict[tuple[str, Callable], np.ndarray] = {}

    def paths(self, positions: list[int]) -> list[str]:
        raise NotImplementedError

    def seeds(self, positions: list[int]) -> list[int]:
        raise NotImplementedError

    def views(self, positions: list[int]) -> list[VirtualFile]:
        """The views at ``positions``, building the missing ones in one pass."""
        views = self._views
        missing = [p for p in dict.fromkeys(positions) if p not in views]
        if missing:
            self._build(missing)
        return [views[p] for p in positions]

    def _build(self, positions: list[int]) -> None:
        # The columns were checked when the store was built, so the views
        # skip the constructors' re-checks; they equal constructor-built
        # files in every field and type.
        idx = np.array(positions, dtype=np.int64)
        awl, asw, mf = (c[idx].tolist() for c in self.stats)
        new, put = object.__new__, object.__setattr__
        views = self._views
        for p, path, size, a, s, m, seed in zip(
                positions, self.paths(positions), self.sizes[idx].tolist(),
                awl, asw, mf, self.seeds(positions)):
            stats = new(TextStats)
            put(stats, "avg_word_len", a)
            put(stats, "avg_sentence_words", s)
            put(stats, "markup_fraction", m)
            f = new(VirtualFile)
            put(f, "path", path)
            put(f, "size", size)
            put(f, "stats", stats)
            put(f, "content_seed", seed)
            views[p] = f


class _FileStore(_Store):
    """A store over files built elsewhere: its views are those files."""

    def __init__(self, files: list[VirtualFile]) -> None:
        super().__init__(np.array([f.size for f in files], dtype=np.int64),
                         _file_columns(files))
        self._views = dict(enumerate(files))

    def paths(self, positions: list[int]) -> list[str]:
        return [self._views[p].path for p in positions]

    def seeds(self, positions: list[int]) -> list[int]:
        return [self._views[p].content_seed for p in positions]


class _CorpusStore(_Store):
    """A generated corpus: position ``i`` is ``pattern % i``, seeded from
    ``stable_seed(seed, f"{seed_name}/{i}")``."""

    def __init__(self, pattern: str, seed: int, seed_name: str,
                 sizes: np.ndarray, stats: StatColumns) -> None:
        super().__init__(sizes, stats)
        self.pattern = pattern
        self.seed = seed
        self.seed_name = seed_name

    def paths(self, positions: list[int]) -> list[str]:
        pattern = self.pattern
        return [pattern % p for p in positions]

    def seeds(self, positions: list[int]) -> list[int]:
        prefix = f"{self.seed_name}/"
        return stable_seeds(self.seed, [f"{prefix}{p}" for p in positions])


class _StageStore(_Store):
    """A stage's output: position ``j`` is the stage prefix plus the path
    of source position ``parents[j]``, seeded from ``stable_seed(parent's
    seed, tag)``."""

    def __init__(self, source: _Store, parents: np.ndarray, prefix: str,
                 tag: str, sizes: np.ndarray, stats: StatColumns) -> None:
        super().__init__(sizes, stats)
        self.source = source
        self.parents = parents
        self.prefix = prefix
        self.tag = tag

    def paths(self, positions: list[int]) -> list[str]:
        prefix = self.prefix
        return [prefix + p for p in self.source.paths(self.parents[positions].tolist())]

    def seeds(self, positions: list[int]) -> list[int]:
        tag = self.tag
        return [stable_seed(s, tag)
                for s in self.source.seeds(self.parents[positions].tolist())]


class _ConcatStore(_Store):
    """Catalogues laid end to end: position ``j`` is position ``local[j]``
    of ``stores[part[j]]``, so the views are the parts' own objects."""

    def __init__(self, parts: list[tuple[_Store, np.ndarray]]) -> None:
        awl, asw, mf = (np.concatenate([s.stats[k][i] for s, i in parts])
                        for k in range(3))
        super().__init__(np.concatenate([s.sizes[i] for s, i in parts]), (awl, asw, mf))
        self.stores = [s for s, _ in parts]
        self.part = np.repeat(np.arange(len(parts)), [len(i) for _, i in parts])
        self.local = np.concatenate([i for _, i in parts])

    def _gather(self, read: str, positions: list[int]) -> list:
        return [getattr(self.stores[k], read)([p])[0] for k, p in zip(
            self.part[positions].tolist(), self.local[positions].tolist())]

    def paths(self, positions: list[int]) -> list[str]:
        return self._gather("paths", positions)

    def seeds(self, positions: list[int]) -> list[int]:
        return self._gather("seeds", positions)

    def views(self, positions: list[int]) -> list[VirtualFile]:
        return self._gather("views", positions)


# -- segments ---------------------------------------------------------------------


class Segment:
    """A reshaped unit file: the concatenation of member virtual files.

    The paper's applications "do not need to be further modified to be
    capable to consume the concatenated larger input files" (§1), so a
    segment materialises as members joined by a newline.

    A segment built by :meth:`from_layouts` holds the packed catalogue and
    its bin's positions in it: size and :meth:`stats` come from the
    catalogue's columns, and :attr:`members` are the catalogue's own views,
    built on first read.  Either way a segment compares, hashes, prints
    and pickles as ``Segment(name, members)``.
    """

    __slots__ = ("name", "_members", "_source", "_positions", "_size")

    def __init__(self, name: str, members: Iterable[VirtualFile]) -> None:
        self.name = name
        self._members: tuple[VirtualFile, ...] | None = tuple(members)
        self._source: Catalogue | None = None
        self._positions: list[int] | None = None
        # Separator newlines count toward nothing: size is the member sum, folded once.
        self._size = sum(m.size for m in self._members)

    @classmethod
    def from_layouts(cls, layouts: Sequence["BinLayout"], catalogue: "Catalogue",
                     prefix: str, *, digits: int) -> list["Segment"]:
        """One segment per non-empty packed bin, named ``{prefix}/unit{k}``.

        ``k`` is the bin's position among all ``layouts``, zero-padded to
        ``digits``.  Each segment holds the bin's positions in
        ``catalogue``; its size is the bin's ``used`` total, which the
        packer already holds as the exact member sum.
        """
        segments = []
        new = cls.__new__
        for idx, l in enumerate(layouts):
            if l.indices:
                seg = new(cls)
                seg.name = f"{prefix}/unit{idx:0{digits}d}"
                seg._members = None
                seg._source = catalogue
                seg._positions = l.indices
                seg._size = l.used
                segments.append(seg)
        return segments

    @property
    def members(self) -> tuple[VirtualFile, ...]:
        if self._members is None:
            assert self._source is not None   # a segment has members or a source
            self._members = tuple(self._source._views(self._positions))
        return self._members

    @property
    def size(self) -> int:
        return self._size

    @property
    def n_members(self) -> int:
        return len(self.members) if self._positions is None else len(self._positions)

    def stats(self) -> TextStats:
        """Volume-weighted aggregate statistics of the members."""
        total = self.size
        if total == 0:
            return TextStats()
        if self._source is not None:
            idx = self._source._store_positions(self._positions)
            store = self._source._store
            w = store.sizes[idx] / total
            # Same products as the per-member loop, summed by the same sum().
            return TextStats(*(sum((w * c[idx]).tolist()) for c in store.stats))
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.members) == (other.name, other.members)

    def __hash__(self) -> int:
        return hash((self.name, self.members))

    def __repr__(self) -> str:
        return f"Segment(name={self.name!r}, members={self.members!r})"

    def __reduce__(self):
        return (Segment, (self.name, self.members))


# -- catalogues ---------------------------------------------------------------------


class Catalogue:
    """Ordered, immutable collection of virtual files, stored as columns.

    Supports the operations the experiments need: totals, slicing by count
    or by volume (probe construction, §4), random volume samples without
    replacement (§5.1/§5.2 refits), and size histograms (Fig. 1).

    A catalogue is a column store shared by all its slices plus the store
    positions it holds.  The store keeps the int64 sizes and the three
    stat columns; a corpus store derives each file's path and content seed
    from a path pattern and a seed rule (:meth:`_generated`), a stage
    output from its parent's (:meth:`_stage`), and a catalogue built from
    files keeps the files and checks once that their paths are unique.  A
    :class:`VirtualFile` view of a position is built the first time it is
    read and cached per store position, so ``cat[i] is cat[i]``, and
    slices, segment members and plan bins hand out the parent's own views.
    Code that only sizes, packs, plans or prices reads the columns and
    builds no view at all.

    Every catalogue derived from one — a volume head, a random sample, a
    partition, a filter or a size ordering — is an *index slice*: it
    shares the parent's store, gathers its size column from the parent's
    with numpy, and exposes the parent positions it holds as
    :attr:`positions`.  A slice only checks that its positions are
    distinct and in range.  A head, a partition, a uniform plan bin or a
    runner's batch is a *run* of consecutive files, and a run's size
    column and store index are views of the parent's, not copies.
    """

    def __init__(self, files: Iterable[VirtualFile], name: str = "catalogue") -> None:
        files = list(files)
        _check_unique(f.path for f in files)
        store = _FileStore(files)
        self._init(store, None, store.sizes, None, name)

    def _init(self, store: _Store, index: np.ndarray | None, sizes: np.ndarray,
              positions: np.ndarray | None, name: str,
              cum: np.ndarray | None = None) -> None:
        self._store = store
        self._index = index            # store positions; None = 0..len-1
        self.name = name
        self._sizes = sizes
        if not len(sizes):
            self._cum = np.array([])
        else:
            self._cum = np.cumsum(sizes) if cum is None else cum
        self._positions = positions
        self._fingerprint: str | None = None

    @classmethod
    def _over(cls, store: _Store, name: str) -> "Catalogue":
        out = cls.__new__(cls)
        out._init(store, None, store.sizes, None, name)
        return out

    @classmethod
    def _generated(cls, name: str, pattern: str, seed: int, seed_name: str,
                   sizes: np.ndarray, stats: StatColumns) -> "Catalogue":
        """A corpus catalogue: file ``i`` is ``pattern % i``, of ``sizes[i]``
        bytes, with the stats of row ``i`` and content seed
        ``stable_seed(seed, f"{seed_name}/{i}")``.

        ``stats`` are checked columns (:meth:`TextStats._column`) of one
        row or ``len(sizes)`` rows; sizes are checked here, raising the
        error :class:`VirtualFile` raises.  A fixed-width ``pattern`` keeps
        the paths unique, so they are never built to be checked.  The
        int64 ``sizes`` column becomes the catalogue's own, so callers pass
        a fresh array.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        try:
            awl, asw, mf = (np.broadcast_to(c, sizes.shape) for c in stats)
        except ValueError:
            raise ValueError(f"{name}: file columns differ in length") from None
        negative = np.flatnonzero(sizes < 0)
        if negative.size:
            raise ValueError(f"file {pattern % int(negative[0])!r} has negative size")
        store = _CorpusStore(pattern, seed, seed_name, sizes, (awl, asw, mf))
        return cls._over(store, name)

    @classmethod
    def _stage(cls, name: str, source: "Catalogue", kept: np.ndarray, prefix: str,
               tag: str, sizes: np.ndarray, stats: StatColumns) -> "Catalogue":
        """A stage's output: file ``j`` continues ``source``'s file
        ``kept[j]`` as ``prefix + path`` with seed ``stable_seed(seed, tag)``,
        ``sizes[j]`` bytes (non-negative) and the stats of row ``j``."""
        store = _StageStore(source._store, source._store_positions(kept), prefix,
                            tag, np.asarray(sizes, dtype=np.int64), stats)
        return cls._over(store, name)

    def _store_positions(self, indices=None) -> np.ndarray:
        """Store positions of this catalogue's files (all, or at ``indices``)."""
        if self._index is None:
            n = len(self._sizes)
            return np.arange(n) if indices is None else np.asarray(indices, dtype=np.int64)
        return self._index if indices is None else self._index[indices]

    def _views(self, indices=None) -> list[VirtualFile]:
        return self._store.views(self._store_positions(indices).tolist())

    def _stat_columns(self) -> StatColumns:
        """This catalogue's three stat columns, gathered from the store."""
        index, columns = self._index, self._store.stats
        if index is None:
            awl, asw, mf = (c[:len(self)] for c in columns)
        else:
            awl, asw, mf = (c[index] for c in columns)
        return awl, asw, mf

    def stat_map(self, field: str, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``fn`` of this catalogue's ``field`` stat column, computed once per
        store position.

        ``fn`` maps a float64 column to a float64 column elementwise and
        never returns NaN.  The store keeps one memo per ``(field, fn)``,
        NaN where not yet computed, and fills it only at the positions
        asked for: a slice of a large store computes its own files, and
        every catalogue over the store reuses them.
        """
        store = self._store
        memo = store.memos.get((field, fn))
        if memo is None:
            memo = store.memos[field, fn] = np.full(len(store.sizes), np.nan)
        idx = self._store_positions()
        values = memo[idx]
        todo = np.isnan(values)
        if todo.any():
            missing = idx[todo]
            column = store.stats[_STAT_FIELDS.index(field)]
            values[todo] = memo[missing] = fn(column[missing])
        return values

    def _take(self, indices: Sequence[int] | np.ndarray, name: str) -> "Catalogue":
        """Slice holding the files at ``indices``, in the order given.

        A step-1 ``range`` within bounds is a run (:meth:`_run`), whose
        columns are views of this catalogue's; any other indices are
        checked to be distinct and in range, and gathered.
        """
        if (isinstance(indices, range) and indices.step == 1
                and 0 <= indices.start <= indices.stop <= len(self)):
            return self._run(indices.start, indices.stop, name)
        idx = np.asarray(indices, dtype=np.int64)
        n = len(self)
        if idx.size:
            ordered = np.sort(idx)
            if (ordered[0] < 0 or ordered[-1] >= n
                    or (ordered[1:] == ordered[:-1]).any()):
                raise ValueError(
                    f"{name}: slice positions must be distinct and within "
                    f"the {n} files of {self.name!r}"
                )
        out = Catalogue.__new__(Catalogue)
        out._init(self._store, self._store_positions(idx), self._sizes[idx], idx, name)
        return out

    def _run(self, a: int, b: int, name: str) -> "Catalogue":
        """Slice holding files ``a..b-1`` (``0 <= a <= b <= len(self)``).

        Its size column and store index are numpy views of this
        catalogue's, so the run copies no column; it equals
        ``_take(list(range(a, b)), name)`` in every field.
        """
        positions = np.arange(a, b, dtype=np.int64)
        index = positions if self._index is None else self._index[a:b]
        out = Catalogue.__new__(Catalogue)
        out._init(self._store, index, self._sizes[a:b], positions, name)
        return out

    def _prefix(self, k: int, name: str) -> "Catalogue":
        """Slice holding the first ``k`` files (``0 <= k <= len(self)``)."""
        out = Catalogue.__new__(Catalogue)
        index = None if self._index is None else self._index[:k]
        out._init(self._store, index, self._sizes[:k], None, name, self._cum[:k])
        return out

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[VirtualFile]:
        return iter(self._views())

    def __getitem__(self, idx: int) -> VirtualFile:
        if isinstance(idx, slice):
            return self._views(np.arange(len(self))[idx])
        n = len(self)
        if not -n <= idx < n:
            raise IndexError("catalogue index out of range")
        return self._views([idx % n])[0]

    @property
    def files(self) -> Sequence[VirtualFile]:
        return tuple(self._views())

    def paths(self) -> list[str]:
        """File paths in catalogue order, worked out without building views."""
        return self._store.paths(self._store_positions().tolist())

    @property
    def positions(self) -> np.ndarray:
        """Positions, in the catalogue this one was sliced from, of its files.

        A catalogue built from files is its own parent, and a prefix holds
        its parent's first files: both report ``0..n-1``.  Masks over the
        parent index with these, e.g. to exclude drawn files from the next
        :meth:`sample_by_volume`.
        """
        if self._positions is None:
            return np.arange(len(self))
        return self._positions

    @property
    def total_size(self) -> int:
        return int(self._cum[-1]) if len(self) else 0

    @property
    def max_file_size(self) -> int:
        return int(self._sizes.max()) if len(self) else 0

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
            h.update(len(self).to_bytes(8, "little"))
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
            return self._prefix(len(self), f"{self.name}[:all]")
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
        n = len(self)
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
        keep = [i for i, f in enumerate(self) if predicate(f)]
        return self._take(keep, f"{self.name}[filtered]")

    def sorted_by_size(self, *, descending: bool = False) -> "Catalogue":
        """Size-ordered slice, ties by path (the paper builds initial probes
        'among the smallest' files, §4)."""
        sizes = self._sizes.tolist()
        paths = self.paths()
        order = sorted(range(len(sizes)), key=lambda i: (sizes[i], paths[i]),
                       reverse=descending)
        return self._take(order, f"{self.name}[by-size]")

    @staticmethod
    def concat(parts: Sequence["Catalogue"], name: str = "concat") -> "Catalogue":
        """Concatenate catalogues; the result holds the parts' own views.

        Paths must stay unique.  They are checked when a part was built
        from files or two parts share a store; parts over distinct
        generated stores are unique by construction.
        """
        if not parts:
            return Catalogue([], name=name)
        pieces = [(p._store, p._store_positions()) for p in parts]
        stores = [s for s, _ in pieces]
        if (len({id(s) for s in stores}) < len(stores)
                or any(isinstance(s, _FileStore) for s in stores)):
            _check_unique(path for s, i in pieces for path in s.paths(i.tolist()))
        return Catalogue._over(_ConcatStore(pieces), name)

    def partition_volumes(self, n_parts: int) -> list["Catalogue"]:
        """Split into ``n_parts`` contiguous, ≈equal-volume catalogues.

        Models staging data "equally across 100 EBS storage volumes" (§5.1).
        """
        from repro.packing import uniform_layout

        layouts = uniform_layout(self._sizes, n_bins=n_parts)
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


def volume_of(units: Iterable) -> int:
    """Bytes in ``units``: a catalogue's total from its column, else the sum
    of the units' sizes."""
    if isinstance(units, Catalogue):
        return units.total_size
    return sum(u.size for u in units)
