"""Virtual files, segments and catalogues."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.packing.bins import Item
from repro.sim.random import RngStream

__all__ = ["TextStats", "VirtualFile", "Segment", "Catalogue"]


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
            raise ValueError("text statistics must be positive and finite")
        if not 0.0 <= self.markup_fraction < 1.0:
            raise ValueError("markup fraction must be in [0, 1)")


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

    # -- packing interop ---------------------------------------------------

    def as_item(self) -> Item:
        """Packing-layer view of this file."""
        return Item(key=self.path, size=self.size)

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
    """Ordered, immutable-ish collection of virtual files.

    Supports the operations the experiments need: totals, slicing by count
    or by volume (probe construction, §4), random volume samples without
    replacement (§5.1/§5.2 refits), and size histograms (Fig. 1).
    """

    def __init__(self, files: Iterable[VirtualFile], name: str = "catalogue") -> None:
        self._files: list[VirtualFile] = list(files)
        self.name = name
        seen: set[str] = set()
        for f in self._files:
            if f.path in seen:
                raise ValueError(f"duplicate path in catalogue: {f.path!r}")
            seen.add(f.path)
        self._sizes = np.array([f.size for f in self._files], dtype=np.int64)
        self._cum = np.cumsum(self._sizes) if self._files else np.array([])
        self._fingerprint: str | None = None

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
    def total_size(self) -> int:
        return int(self._cum[-1]) if len(self._files) else 0

    @property
    def max_file_size(self) -> int:
        return int(self._sizes.max()) if len(self._files) else 0

    def items(self) -> list[Item]:
        """Packing items for every file, in order."""
        return [f.as_item() for f in self._files]

    def sizes(self) -> np.ndarray:
        """File sizes in catalogue order as a cached ``np.int64`` column.

        This is the packing engine's fast path: the ``*_layout`` kernels
        consume it directly, so reshaping and provisioning never materialise
        per-file :class:`Item` dataclasses.  Treat the array as read-only.
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
            return Catalogue([], name=f"{self.name}[:0B]")
        if volume >= self.total_size:
            return Catalogue(self._files, name=f"{self.name}[:all]")
        k = int(bisect.bisect_left(self._cum, volume)) + 1
        return Catalogue(self._files[:k], name=f"{self.name}[:{volume}B]")

    def sample_by_volume(
        self, volume: int, rng: RngStream, *, exclude: set[str] | None = None
    ) -> "Catalogue":
        """Random sample of ≈``volume`` bytes without replacement.

        Files already in ``exclude`` are never drawn, supporting the paper's
        repeated non-overlapping samples ("10 random samples (without
        replacement) of 2 GB", §5.1).
        """
        if volume < 0:
            raise ValueError("sample volume must be non-negative")
        pool = [f for f in self._files if not exclude or f.path not in exclude]
        order = list(range(len(pool)))
        rng.shuffle(order)
        picked: list[int] = []
        acc = 0
        for i in order:
            if acc >= volume:
                break
            picked.append(i)
            acc += pool[i].size
        # Restore catalogue order so downstream packing sees original order.
        return Catalogue([pool[i] for i in sorted(picked)],
                         name=f"{self.name}[sample {volume}B]")

    def filter(self, predicate) -> "Catalogue":
        """Files satisfying ``predicate`` (original order preserved)."""
        return Catalogue([f for f in self._files if predicate(f)],
                         name=f"{self.name}[filtered]")

    def sorted_by_size(self, *, descending: bool = False) -> "Catalogue":
        """Size-ordered copy (the paper builds initial probes 'among the
        smallest' files, §4)."""
        ordered = sorted(self._files, key=lambda f: (f.size, f.path),
                         reverse=descending)
        return Catalogue(ordered, name=f"{self.name}[by-size]")

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
        return [
            Catalogue(
                [self._files[j] for j in l.indices], name=f"{self.name}/part{i}"
            )
            for i, l in enumerate(layouts)
        ]

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
