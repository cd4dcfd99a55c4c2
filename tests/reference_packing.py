"""Reference (pre-engine) packing heuristics, kept as the equivalence oracle.

These are the original O(n·B) implementations that shipped before the
indexed engine (:mod:`repro.packing.index`): ``first_fit`` scans a NumPy
free-space array per item, the other three are pure-Python scans.  They
work on the :class:`Item`/:class:`Bin` value objects defined here, which
production code no longer uses — every production packer is a ``*_layout``
kernel over a size column.  ``tests/test_packing_equivalence.py`` asserts
that every kernel produces byte-identical bin assignments to the functions
here, so the engine can never silently drift from classic first-fit
semantics.  :func:`validate_layouts` is the partition check every packing
test applies to a kernel's result.

Do not "optimise" this module: its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.packing import BinLayout, PackingError

__all__ = [
    "Item",
    "Bin",
    "validate_layouts",
    "first_fit",
    "first_fit_decreasing",
    "pack_into_n_bins",
    "subset_sum_first_fit",
    "uniform_bins",
]


@dataclass(frozen=True)
class Item:
    """A packable unit: one input file (or pre-merged segment).

    ``key`` identifies the item in the source catalogue (e.g. a virtual file
    path); ``size`` is in bytes.  Items are immutable so the same list can be
    fed to several heuristics for comparison.
    """

    key: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise PackingError(f"item {self.key!r} has negative size {self.size}")


@dataclass
class Bin:
    """A capacitated container of items.

    ``capacity`` may be ``None`` for uncapacitated (balance-only) bins.
    ``used`` is maintained incrementally so adding items stays O(1) even in
    bins holding tens of thousands of files; mutate ``items`` only through
    :meth:`add` / :meth:`append_unchecked`.
    """

    capacity: int | None
    items: list[Item] = field(default_factory=list)
    _used: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._used = sum(it.size for it in self.items)

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        if self.capacity is None:
            raise PackingError("uncapacitated bin has no free space notion")
        return self.capacity - self._used

    def fits(self, item: Item) -> bool:
        """True when the item fits the remaining capacity."""
        return self.capacity is None or item.size <= self.free

    def add(self, item: Item) -> None:
        """Place an item, enforcing the capacity."""
        if not self.fits(item):
            raise PackingError(
                f"item {item.key!r} ({item.size} B) does not fit: "
                f"used={self._used}, capacity={self.capacity}"
            )
        self.items.append(item)
        self._used += item.size

    def append_unchecked(self, item: Item) -> None:
        """Add without the capacity check (balance-only / overflow paths)."""
        self.items.append(item)
        self._used += item.size

    def __len__(self) -> int:
        return len(self.items)


def validate_layouts(sizes: Sequence[int], layouts: Sequence[BinLayout]) -> None:
    """Assert that ``layouts`` is a true partition of the ``sizes`` column.

    Checks: every index appears exactly once, every bin's ``used`` is the
    sum of its members, no bin exceeds its capacity, and total volume is
    conserved.  Raises :class:`~repro.packing.PackingError` otherwise.
    """
    placed = sorted(i for l in layouts for i in l.indices)
    if placed != list(range(len(sizes))):
        raise PackingError(
            f"packing is not a partition of {len(sizes)} items "
            f"({len(placed)} placements)"
        )
    for l in layouts:
        if l.used != sum(sizes[i] for i in l.indices):
            raise PackingError(f"bin load {l.used} is not the sum of its members")
        if l.capacity is not None and l.used > l.capacity:
            raise PackingError(f"bin over capacity: used={l.used} > {l.capacity}")
    if sum(l.used for l in layouts) != sum(sizes):
        raise PackingError("packing does not conserve total volume")


def first_fit(items: Sequence[Item], capacity: int) -> list[Bin]:
    """Classic first-fit with a per-item vectorised free-space scan."""
    if capacity <= 0:
        raise PackingError(f"capacity must be positive, got {capacity}")
    bins: list[Bin] = []          # all bins, in creation order
    regular: list[Bin] = []       # non-oversized bins, in creation order
    free = np.empty(0, dtype=np.int64)
    for item in items:
        if item.size > capacity:
            solo = Bin(capacity=item.size)
            solo.add(item)
            bins.append(solo)
            continue
        n = len(regular)
        idx = -1
        if n:
            fits_mask = free[:n] >= item.size
            pos = int(np.argmax(fits_mask))
            if fits_mask[pos]:
                idx = pos
        if idx >= 0:
            regular[idx].append_unchecked(item)
            free[idx] -= item.size
        else:
            b = Bin(capacity=capacity)
            b.add(item)
            bins.append(b)
            regular.append(b)
            if len(regular) > free.shape[0]:
                grown = np.empty(max(16, 2 * free.shape[0]), dtype=np.int64)
                grown[: free.shape[0]] = free
                free = grown
            free[len(regular) - 1] = capacity - item.size
    return bins


def first_fit_decreasing(items: Sequence[Item], capacity: int) -> list[Bin]:
    """First-fit on items sorted by size, descending (ties broken by key)."""
    ordered = sorted(items, key=lambda it: (-it.size, it.key))
    return first_fit(ordered, capacity)


def pack_into_n_bins(
    items: Sequence[Item],
    n_bins: int,
    capacity: int,
    *,
    strict: bool = False,
) -> list[Bin]:
    """First-fit into exactly ``n_bins``; overflow spills into min(used)."""
    if n_bins <= 0:
        raise PackingError(f"need at least one bin, got {n_bins}")
    if capacity <= 0:
        raise PackingError(f"capacity must be positive, got {capacity}")
    bins = [Bin(capacity=capacity) for _ in range(n_bins)]
    overflow: list[Item] = []
    for item in items:
        for b in bins:
            if b.fits(item):
                b.add(item)
                break
        else:
            overflow.append(item)
    if overflow:
        if strict:
            raise PackingError(
                f"{len(overflow)} items do not fit into {n_bins} bins of {capacity} B"
            )
        for item in overflow:
            target = min(bins, key=lambda b: b.used)
            target.capacity = None if target.capacity is None else max(
                target.capacity, target.used + item.size
            )
            target.append_unchecked(item)
    return bins


def subset_sum_first_fit(
    items: Sequence[Item],
    unit_size: int,
    *,
    preserve_order: bool = True,
) -> list[Bin]:
    """The paper's merge heuristic: per-bin greedy best-fill passes."""
    if unit_size <= 0:
        raise PackingError(f"unit size must be positive, got {unit_size}")
    if preserve_order:
        return first_fit(items, unit_size)

    remaining = sorted(items, key=lambda it: (-it.size, it.key))
    bins: list[Bin] = []
    # Oversized files first: each gets its own bin.
    while remaining and remaining[0].size > unit_size:
        solo = Bin(capacity=remaining[0].size)
        solo.add(remaining.pop(0))
        bins.append(solo)
    while remaining:
        b = Bin(capacity=unit_size)
        # Greedy descending scan: take every item that still fits.  Because
        # the list is sorted by size, one pass approximates subset-sum well.
        kept: list[Item] = []
        for it in remaining:
            if b.fits(it):
                b.add(it)
            else:
                kept.append(it)
        remaining = kept
        bins.append(b)
    return bins


def uniform_bins(
    items: Sequence[Item],
    n_bins: int,
    *,
    preserve_order: bool = True,
) -> list[Bin]:
    """Balanced binning: threshold splitter / greedy min(used) scans."""
    if n_bins <= 0:
        raise PackingError(f"need at least one bin, got {n_bins}")
    items = list(items)
    bins = [Bin(capacity=None) for _ in range(n_bins)]
    if not items:
        return bins
    total = sum(it.size for it in items)

    if preserve_order:
        share = total / n_bins
        idx = 0
        running = 0
        for it in items:
            # Advance to the next bin when this one has met its share, but
            # never beyond the last bin.
            while idx < n_bins - 1 and running + it.size / 2 >= share * (idx + 1):
                idx += 1
            bins[idx].append_unchecked(it)
            running += it.size
        return bins

    for it in sorted(items, key=lambda i: (-i.size, i.key)):
        target = min(bins, key=lambda b: b.used)
        target.append_unchecked(it)
    return bins
