"""Virtual files, segments and catalogues."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.sim.random import RngStream, stable_seed, stable_seeds

if TYPE_CHECKING:  # pragma: no cover
    from repro.packing.index import BinLayout

__all__ = ["TextStats", "VirtualFile", "Segment", "Catalogue"]

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

    def materialize(self, renderer=None) -> bytes:
        """Render this unit's exact bytes."""
        return self.content


#: The stats of a unit with no bytes: the :class:`TextStats` defaults.
_DEFAULT_STATS = astuple(TextStats())


# -- column stores -------------------------------------------------------------


class _Store:
    """The columns of a catalogue's files, shared by it and all its slices.

    A store holds the int64 ``sizes`` and the three float64 stat columns
    (``stats``); subclasses work out each position's path and content
    seed from their own rule.  A view of a position (a
    :class:`VirtualFile`, or a packed store's :class:`Segment`) is built
    the first time it is read and cached, so every catalogue, segment and
    plan bin over the store hands out the same object for the same
    position.
    """

    def __init__(self, sizes: np.ndarray, stats: StatColumns) -> None:
        self.sizes = sizes
        self.stats = stats
        self._views: dict[int, Any] = {}   # VirtualFile, or a packed store's Segment
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


class _PackedStore(_Store):
    """A packed layout: row ``r`` is the ``r``-th non-empty bin, bin ``k``
    of the layouts, named ``{prefix}/unit{k}``, whose members are the
    ``source`` positions ``indices[r]``.

    A row's size is the bin's ``used`` total, which the packer holds as
    the exact member sum.  Its stats are the members' volume-weighted
    means, computed for every row on first read of :attr:`stats`, so a
    workload that never reads them (grep) never aggregates them.  A row's
    view is a :class:`Segment`.
    """

    def __init__(self, source: "Catalogue", bins: list[int],
                 indices: list[Sequence[int]], sizes: np.ndarray,
                 prefix: str, digits: int) -> None:
        self.sizes = sizes
        self._views = {}
        self.memos = {}
        self.source = source
        self.bins = bins
        self.indices = indices
        self.prefix = prefix
        self.digits = digits

    def __getattr__(self, name: str) -> StatColumns:
        if name != "stats":
            raise AttributeError(name)
        store = self.source._store
        columns: tuple[list[float], ...] = ([], [], [])
        for total, positions in zip(self.sizes.tolist(), self.indices):
            if total == 0:
                for column, value in zip(columns, _DEFAULT_STATS):
                    column.append(value)
                continue
            idx = self.source._store_positions(positions)
            w = store.sizes[idx] / total
            # The same products as a per-member loop, summed by the same sum().
            for column, c in zip(columns, store.stats):
                column.append(sum((w * c[idx]).tolist()))
        self.stats = TextStats._column(*columns)
        return self.stats

    def paths(self, positions: list[int]) -> list[str]:
        prefix, digits, bins = self.prefix, self.digits, self.bins
        return [f"{prefix}/unit{bins[p]:0{digits}d}" for p in positions]

    def _build(self, positions: list[int]) -> None:
        new = Segment.__new__
        views = self._views
        for p, name, size in zip(positions, self.paths(positions),
                                 self.sizes[positions].tolist()):
            seg = new(Segment)
            seg.name = name
            seg._store = self
            seg._row = p
            seg._size = size
            seg._members = None
            views[p] = seg


class Segment:
    """A reshaped unit file: the concatenation of member virtual files.

    The paper's applications "do not need to be further modified to be
    capable to consume the concatenated larger input files" (§1), so a
    segment materialises as members joined by a newline.

    A segment is the view of one row of a packed catalogue
    (:meth:`Catalogue._packed`), built on first read and cached per row:
    its size and :meth:`stats` are the row's columns, and :attr:`members`
    are the packed catalogue's own views.  It compares, hashes and prints
    as ``Segment(name, members)``.
    """

    __slots__ = ("name", "_store", "_row", "_size", "_members")
    name: str
    _store: _PackedStore
    _row: int
    _size: int
    _members: tuple[VirtualFile, ...] | None

    @property
    def members(self) -> tuple[VirtualFile, ...]:
        if self._members is None:
            store = self._store
            self._members = tuple(store.source._views(store.indices[self._row]))
        return self._members

    @property
    def size(self) -> int:
        return self._size

    def stats(self) -> TextStats:
        """Volume-weighted aggregate statistics of the members."""
        row = self._row
        return TextStats(*(c[row].item() for c in self._store.stats))

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


# -- catalogues ---------------------------------------------------------------------


class Catalogue:
    """Ordered, immutable collection of virtual files, stored as columns.

    Supports the operations the experiments need: totals, slicing by count
    or by volume (probe construction, §4), random volume samples without
    replacement (§5.1/§5.2 refits), and size histograms (Fig. 1).

    A catalogue is a column store shared by all its slices plus the store
    positions it holds.  The store keeps the int64 sizes and the three
    stat columns; a corpus store derives each file's path and content seed
    from a path pattern and a seed rule (the constructor), a stage output
    from its parent's (:meth:`_stage`), and a packed layout's rows from
    the bins it packs (:meth:`_packed`), whose views are
    :class:`Segment` unit files.  A view of a position is built the first
    time it is read and cached per store position, so ``cat[i] is
    cat[i]``, and slices, segment members and plan bins hand out the
    parent's own views.  Code that only sizes, packs, plans or prices
    reads the columns and builds no view at all.

    Every catalogue derived from one — a volume head, a random sample, a
    partition, a filter or a size ordering — is an *index slice*: it
    shares the parent's store, gathers its size column from the parent's
    with numpy, and exposes the parent positions it holds as
    :attr:`positions`.  A slice only checks that its positions are
    distinct and in range.  A head, a partition, a uniform plan bin or a
    runner's batch is a *run* of consecutive files, and a run's size
    column and store index are views of the parent's, not copies.
    """

    def __init__(self, name: str, pattern: str, seed: int, seed_name: str,
                 sizes: np.ndarray, stats: StatColumns) -> None:
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
    def _stage(cls, name: str, source: "Catalogue", kept: np.ndarray, prefix: str,
               tag: str, sizes: np.ndarray, stats: StatColumns) -> "Catalogue":
        """A stage's output: file ``j`` continues ``source``'s file
        ``kept[j]`` as ``prefix + path`` with seed ``stable_seed(seed, tag)``,
        ``sizes[j]`` bytes (non-negative) and the stats of row ``j``."""
        store = _StageStore(source._store, source._store_positions(kept), prefix,
                            tag, np.asarray(sizes, dtype=np.int64), stats)
        return cls._over(store, name)

    def _packed(self, layouts: Sequence["BinLayout"], prefix: str, *,
                digits: int) -> "Catalogue":
        """The packed layout of this catalogue: one :class:`Segment` per
        non-empty bin, named ``{prefix}/unit{k}``.

        ``k`` is the bin's position among all ``layouts``, zero-padded to
        ``digits``; the bin's ``indices`` are positions in this catalogue.
        """
        bins, indices, used = [], [], []
        for k, l in enumerate(layouts):
            if l.indices:
                bins.append(k)
                indices.append(l.indices)
                used.append(l.used)
        store = _PackedStore(self, bins, indices, np.array(used, dtype=np.int64),
                             prefix, digits)
        return Catalogue._over(store, prefix)

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

        A corpus, a stage or a packed layout is its own parent, and a
        prefix holds its parent's first files: they report ``0..n-1``.
        Masks over the parent index with these, e.g. to exclude drawn
        files from the next :meth:`sample_by_volume`.
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

        Paths must stay unique.  They are checked when two parts share a
        store; parts over distinct stores are not checked.
        """
        if not parts:
            return Catalogue(name, "%d", 0, name, np.empty(0, dtype=np.int64),
                             TextStats._column(*_DEFAULT_STATS))
        pieces = [(p._store, p._store_positions()) for p in parts]
        if len({id(s) for s, _ in pieces}) < len(pieces):
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
