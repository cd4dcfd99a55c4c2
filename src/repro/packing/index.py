"""The indexed packing engine's data structures.

Every capacitated packer in this package reduces to two bin queries:

``first_fit_slot(size)``
    leftmost bin whose free space is at least ``size`` — classic first-fit.
``best_fit_slot(size)``
    fullest bin that still takes ``size`` (smallest sufficient free space,
    ties to the leftmost) — the subset-sum greedy question, and the warm
    pool's lease placement.

:class:`FreeSpaceIndex` answers both in O(log B) amortised for B bins: a
power-of-two max-segment-tree over per-bin free space drives
``first_fit_slot``, and a lazily maintained sorted free-list with
``bisect`` drives ``best_fit_slot``.  The sorted list is only materialised
on first use, so first-fit pays nothing for it.  The fixed-bin packer's
overflow spill needs neither: it is a min over its own bins' loads.

:class:`BinLayout` is the result format of every packer: bins as lists of
*item indices* into the size column the caller packed, so million-file
catalogues are packed and regrouped without a per-file object.
:class:`PackingError` is the one error every packer raises.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

__all__ = ["FreeSpaceIndex", "BinLayout", "PackingError"]

_NEG = -1  # sentinel for empty tree slots (all real free values are >= 0)


class PackingError(ValueError):
    """Raised for infeasible packings (oversized items, bad capacities)."""


@dataclass(slots=True)
class BinLayout:
    """A packed bin in columnar form: indices into the caller's size array.

    ``indices`` is a list, or a ``range`` when the bin is one run of the
    input (:func:`~repro.packing.uniform_layout`); readers only iterate,
    index and take ``len`` of it.

    ``capacity`` is the bin's byte limit (``None`` = uncapacitated, for
    balance-only bins); ``used`` is the exact sum of member sizes,
    maintained by the kernels.  :meth:`Segment.from_layouts
    <repro.vfs.files.Segment.from_layouts>` takes each segment's size from
    it, so materialising a layout re-sums no member sizes; every kernel
    (and :class:`~repro.packing.cache.PackingCache` derivation) must keep
    it exact.
    """

    capacity: int | None
    indices: list[int] | range = field(default_factory=list)
    used: int = 0


class FreeSpaceIndex:
    """Max-segment-tree + sorted free-list over a growing set of bins.

    Bins are registered with :meth:`append` in creation order; the slot
    number returned is the bin's permanent index, and both queries
    break ties toward the lowest slot — the classic scans' "first bin
    encountered" semantics exactly.
    """

    __slots__ = ("_n", "_cap", "_tree", "_free", "_sorted")

    def __init__(self) -> None:
        self._n = 0
        self._cap = 1                      # leaf capacity, always a power of two
        self._tree: list[int] = [_NEG, _NEG]
        self._free: list[int] = []
        self._sorted: list[tuple[int, int]] | None = None  # lazy (free, slot)

    # -- registration ------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def append(self, free: int) -> int:
        """Register a new bin; returns its slot (= creation index)."""
        slot = self._n
        if slot == self._cap:
            self._grow()
        self._free.append(free)
        self._n = slot + 1
        tree = self._tree
        pos = self._cap + slot
        tree[pos] = free
        pos >>= 1
        while pos:
            left = tree[2 * pos]
            right = tree[2 * pos + 1]
            top = left if left >= right else right
            if tree[pos] == top:
                break
            tree[pos] = top
            pos >>= 1
        if self._sorted is not None:
            insort(self._sorted, (free, slot))
        return slot

    def _grow(self) -> None:
        cap = self._cap * 2
        tree = [_NEG] * (2 * cap)
        tree[cap : cap + self._n] = self._free
        for pos in range(cap - 1, 0, -1):
            left = tree[2 * pos]
            right = tree[2 * pos + 1]
            tree[pos] = left if left >= right else right
        self._cap = cap
        self._tree = tree

    # -- queries -----------------------------------------------------------

    def max_free(self) -> int:
        """Largest free space over all bins (−1 when no bins exist)."""
        return self._tree[1]

    def free_of(self, slot: int) -> int:
        """Remaining free space of bin ``slot``."""
        return self._free[slot]

    def first_fit_slot(self, size: int) -> int:
        """Leftmost bin with free ≥ ``size`` (−1 if none).  O(log B)."""
        tree = self._tree
        if tree[1] < size:
            return -1
        pos = 1
        cap = self._cap
        while pos < cap:
            pos *= 2
            if tree[pos] < size:
                pos += 1
        return pos - cap

    def best_fit_slot(self, size: int) -> int:
        """Fullest bin with free ≥ ``size`` (−1 if none).

        Backed by a sorted (free, slot) list probed with ``bisect``; among
        bins of equal free space the lowest slot wins.
        """
        if self._sorted is None:
            self._sorted = sorted((f, s) for s, f in enumerate(self._free))
        arr = self._sorted
        k = bisect_left(arr, (size, -1))
        if k == len(arr):
            return -1
        return arr[k][1]

    # -- updates -----------------------------------------------------------

    def consume(self, slot: int, nbytes: int) -> None:
        """Place ``nbytes`` into ``slot``: its free space shrinks by ``nbytes``."""
        old_free = self._free[slot]
        new_free = old_free - nbytes
        self._free[slot] = new_free
        tree = self._tree
        pos = self._cap + slot
        tree[pos] = new_free
        pos >>= 1
        while pos:
            left = tree[2 * pos]
            right = tree[2 * pos + 1]
            top = left if left >= right else right
            if tree[pos] == top:
                break
            tree[pos] = top
            pos >>= 1
        if self._sorted is not None:
            arr = self._sorted
            arr.pop(bisect_left(arr, (old_free, slot)))
            insort(arr, (new_free, slot))
