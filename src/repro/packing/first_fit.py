"""First-fit bin packing, on the indexed engine.

First-fit scans bins in creation order and places each item into the first
bin with room, opening a new bin when none fits.  Sorting the items by size
first (first-fit-decreasing) gives a better approximation ratio
(11/9 OPT + 6/9), but the paper deliberately avoids it for the POS workload
because it front-loads large files into the earliest bins and large files
degrade the memory-bound tagger (§5.2).  That sorted variant is
:func:`~repro.packing.subset_sum.subset_sum_layout` with
``preserve_order=False``, so the ablation bench can contrast the two.

Implementation
--------------
The placement question "leftmost bin with free ≥ size" is answered by a
:class:`~repro.packing.index.FreeSpaceIndex` segment tree in O(log B), so a
full pack is O(n log B) instead of the classic O(n·B) per-item scans.
:func:`first_fit_layout` adds a constant-factor trick on top: bins are
*closed* into the tree only once a later bin opens, and the single open bin
is tracked in two local integers.  Because bins close nearly full, the
overwhelmingly common case — the item goes into the newest bin — costs two
integer compares and a list append, with the tree only consulted when some
closed bin genuinely has room (``size ≤ tree max``).  Placement is exactly
classic first-fit; the property tests hold every layout byte-identical to
the O(n·B) oracle kept in the test suite.

:func:`pack_into_n_bins_layout`, first-fit into a fixed number of bins,
needs no kernel of its own: it is :func:`first_fit_layout` cut at
``n_bins`` regular bins, plus a spill (the argument is in its docstring).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from repro.packing.index import BinLayout, FreeSpaceIndex, PackingError

__all__ = ["first_fit_layout", "pack_into_n_bins_layout"]


def first_fit_layout(sizes: Sequence[int], capacity: int) -> list[BinLayout]:
    """First-fit: pack ``sizes`` (in order) into capacity-bound bins.

    Items larger than ``capacity`` get a dedicated oversized bin of their own
    (the paper's corpora contain a long tail — e.g. a 43 MB article among
    10 kB files — and an unsplittable oversized file must still be placed).
    Returns bins in creation order as :class:`BinLayout` index lists.
    """
    if capacity <= 0:
        raise PackingError(f"capacity must be positive, got {capacity}")
    layouts: list[BinLayout] = []      # all bins, in creation order
    regular: list[BinLayout] = []      # non-oversized bins, tree slot order
    index = FreeSpaceIndex()
    closed_max = -1                    # == index.max_free(), cached locally
    open_list: list[int] | None = None
    open_free = -1
    for i, size in enumerate(sizes):
        if size > closed_max:
            if size <= open_free:
                open_list.append(i)
                open_free -= size
                continue
            if size > capacity:
                layouts.append(BinLayout(capacity=size, indices=[i], used=size))
                continue
            # Close the open bin into the tree and open a fresh one.
            if open_list is not None:
                index.append(open_free)
                closed_max = index.max_free()
            open_list = [i]
            open_free = capacity - size
            bl = BinLayout(capacity=capacity, indices=open_list, used=0)
            layouts.append(bl)
            regular.append(bl)
        else:
            # Some closed bin (all left of the open bin) has room: classic
            # first-fit sends the item to the leftmost such bin.
            slot = index.first_fit_slot(size)
            index.consume(slot, size)
            regular[slot].indices.append(i)
            closed_max = index.max_free()
    for slot in range(len(index)):
        regular[slot].used = capacity - index.free_of(slot)
    if open_list is not None:
        regular[-1].used = capacity - open_free
    return layouts


def _decreasing_order(sizes: Sequence[int], keys: Sequence[str] | None) -> list[int]:
    """Index permutation sorting by size descending, ties by key (or index)."""
    if keys is not None:
        return sorted(range(len(sizes)), key=lambda i: (-sizes[i], keys[i]))
    return sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))


def pack_into_n_bins_layout(
    sizes: Sequence[int],
    n_bins: int,
    capacity: int,
    *,
    strict: bool = False,
) -> list[BinLayout]:
    """First-fit ``sizes`` (in order) into exactly ``n_bins`` bins of ``capacity``.

    This is the provisioning step of §5.2: the deadline model prescribes a
    per-instance volume ``x0`` and an instance count ``i0 = ceil(V/ceil(x0))``;
    the data set is then packed into ``i0`` bins, in its *original order*.

    Fixed-bin first-fit is first-fit: open-ended first-fit opens bin k only
    once bins 0..k−1 hold items, so its first ``n_bins`` regular bins are
    exactly the fixed bins (padded with empty bins when it opens fewer),
    and every other item — one it put in a later bin, or an oversized one
    it gave a bin of its own — is exactly an item no fixed bin takes.  So
    this runs :func:`first_fit_layout` and keeps those bins.

    When the capacity turns out too tight for first-fit (possible because
    first-fit wastes some space), the leftover items spill in index order
    into the least-loaded bin (ties to the lowest), widening its capacity —
    unless ``strict``, which raises
    :class:`~repro.packing.index.PackingError` instead.
    """
    if n_bins <= 0:
        raise PackingError(f"need at least one bin, got {n_bins}")
    layouts: list[BinLayout] = []
    overflow: list[int] = []
    for l in first_fit_layout(sizes, capacity):
        if l.capacity == capacity and len(layouts) < n_bins:
            layouts.append(l)
        else:
            overflow.extend(l.indices)
    layouts += [BinLayout(capacity=capacity) for _ in range(n_bins - len(layouts))]
    if overflow:
        if strict:
            raise PackingError(
                f"{len(overflow)} items do not fit into {n_bins} bins of {capacity} B"
            )
        for i in sorted(overflow):
            l = min(layouts, key=attrgetter("used"))    # first minimum: lowest slot
            l.indices.append(i)
            l.used += sizes[i]
            l.capacity = max(l.capacity, l.used)
    return layouts
