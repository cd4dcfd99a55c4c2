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
:func:`first_fit_layout` adds two constant-factor tricks on top:

* the single open bin is tracked in two local integers, and a bin is
  *closed* only once a later bin opens.  Because bins close nearly full,
  the overwhelmingly common case — the item goes into the newest bin —
  costs two integer compares and a list append;
* a closed bin first joins a window of the ``_WINDOW`` (4) most recently
  closed bins, a short list, and enters the tree only when it ages out.
  Small unit sizes close many bins that later small files back-fill, and
  those files mostly fit the newest: fig. 4's 1 MB pack of a 5 GB grep
  head makes 1,849 tree descents, against 16,080 with every closed bin in
  the tree.

Every tree bin lies left of the window, and the window left of the open
bin, so an item no larger than the tree's max free space goes to the
tree's leftmost fitting bin, one that fits no tree bin goes to the first
window bin that fits, and only then to the open bin or a new one.  One
cached maximum over tree and window keeps the common case at two
compares.  Placement is exactly classic first-fit and the worst case is
still O(n log B); the property tests hold every layout byte-identical to
the O(n·B) oracle kept in the test suite.

First-fit in original order is online, so the pack of a prefix is the
prefix of the pack: :func:`cut_first_fit` cuts it, and
:class:`~repro.packing.cache.PackingCache` answers nested heads with it.

:func:`pack_into_n_bins_layout`, first-fit into a fixed number of bins,
needs no kernel of its own: it is :func:`first_fit_layout` cut at
``n_bins`` regular bins, plus a spill (the argument is in its docstring).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.packing.index import BinLayout, FreeSpaceIndex, PackingError

__all__ = ["first_fit_layout", "cut_first_fit", "pack_into_n_bins_layout"]

#: Closed bins kept out of the tree, newest last.  Small items that fit a
#: recently closed bin are placed by a scan of this short list instead of a
#: tree descent; 2 to 8 timed alike on fig. 4's 1 MB grep pack (1 and 16
#: were slower), and 4 sits in the middle.
_WINDOW = 4


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
    regular: list[BinLayout] = []      # non-oversized bins, in creation order
    index = FreeSpaceIndex()           # slot k holds regular[k]
    tree_max = -1                      # == index.max_free(), cached locally
    recent: list[BinLayout] = []       # newest closed bins, oldest first ...
    recent_free: list[int] = []        # ... and their free space
    closed_max = -1                    # max(tree_max, *recent_free)
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
            # Close the open bin into the window (the oldest window bin
            # ages into the tree) and open a fresh one.  Moving a bin from
            # the window to the tree leaves the max over both unchanged.
            if open_list is not None:
                if len(recent) == _WINDOW:
                    recent.pop(0)
                    index.append(recent_free.pop(0))
                    tree_max = index.max_free()
                recent.append(regular[-1])
                recent_free.append(open_free)
                if open_free > closed_max:
                    closed_max = open_free
            open_list = [i]
            open_free = capacity - size
            bl = BinLayout(capacity=capacity, indices=open_list, used=0)
            layouts.append(bl)
            regular.append(bl)
            continue
        # Some closed bin (all left of the open bin) has room: classic
        # first-fit sends the item to the leftmost such bin.  Tree bins lie
        # left of the window, so the tree answers whenever it can.
        if size <= tree_max:
            slot = index.first_fit_slot(size)
            index.consume(slot, size)
            regular[slot].indices.append(i)
            tree_max = index.max_free()
        else:
            j = 0
            while recent_free[j] < size:
                j += 1
            recent_free[j] -= size
            recent[j].indices.append(i)
        closed_max = max(tree_max, *recent_free)
    for slot in range(len(index)):
        regular[slot].used = capacity - index.free_of(slot)
    for bl, free in zip(recent, recent_free):
        bl.used = capacity - free
    if open_list is not None:
        regular[-1].used = capacity - open_free
    return layouts


def cut_first_fit(layouts: Sequence[BinLayout], sizes: Sequence[int],
                  k: int) -> list[BinLayout]:
    """:func:`first_fit_layout` of ``sizes[:k]``, cut from ``layouts``, the
    first-fit layout of all of ``sizes`` at the same capacity.

    First-fit in original order is online: item ``i`` is placed from the
    bins items ``0..i-1`` left behind.  So the pack of a prefix is the
    prefix of the pack: the bins opened before item ``k``, each holding
    its members below ``k``.  Bins left whole are shared with ``layouts``
    (treat both as immutable); a trimmed bin's ``used`` drops by the sizes
    it loses, so it stays exact.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    out: list[BinLayout] = []
    for l in layouts:
        idx = l.indices
        if idx[0] >= k:
            break                      # this bin and every later one open after k
        if idx[-1] < k:
            out.append(l)
            continue
        j = bisect_left(idx, k)
        out.append(BinLayout(capacity=l.capacity, indices=idx[:j],
                             used=l.used - int(sizes[idx[j:]].sum())))
    return out


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
