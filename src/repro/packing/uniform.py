"""Uniform (balanced) binning — the §5.2 schedule improvement.

After the deadline model prescribes an instance count ``i``, the paper
improves on capacity-driven first-fit by "uniformly distributing the data to
each instance": every instance gets ≈``V/i`` bytes, which lowers the maximum
bin volume and therefore the chance of missing the deadline at identical
cost (Fig. 8(b)).

The heuristic here is greedy longest-processing-time-style balancing when
order may be broken — each item (largest first) lands on the currently
lightest bin, found through the engine's
:meth:`~repro.packing.index.FreeSpaceIndex.lightest` heap in O(log B) — and
a volume-threshold splitter when the original file order must be preserved
(the POS workload case), which is a single O(n) streaming pass.
"""

from __future__ import annotations

from typing import Sequence

from repro.packing.first_fit import _decreasing_order
from repro.packing.index import BinLayout, FreeSpaceIndex, PackingError

__all__ = ["uniform_layout"]


def uniform_layout(
    sizes: Sequence[int],
    n_bins: int,
    *,
    preserve_order: bool = True,
) -> list[BinLayout]:
    """Distribute ``sizes`` across exactly ``n_bins`` bins of ≈equal volume.

    With ``preserve_order`` the items are streamed in order and a bin is
    closed once it reaches the ideal share ``total/n_bins`` (the last bin
    absorbs rounding).  Without it, a greedy balance pass assigns each item
    (largest first, equal sizes in index order) to the currently lightest
    bin — tighter balance, broken order.

    Returned layouts are uncapacitated (``capacity=None``); balance, not
    capacity, is the constraint.
    """
    if n_bins <= 0:
        raise PackingError(f"need at least one bin, got {n_bins}")
    layouts = [BinLayout(capacity=None) for _ in range(n_bins)]
    if not sizes:
        return layouts
    total = sum(sizes)

    if preserve_order:
        # Stream in order, closing a bin once it has met its ideal share
        # total/n (the last bin absorbs rounding).  Float arithmetic matches
        # the classic splitter exactly.
        share = total / n_bins
        idx = 0
        running = 0
        current = layouts[0]
        for i, size in enumerate(sizes):
            while idx < n_bins - 1 and running + size / 2 >= share * (idx + 1):
                idx += 1
                current = layouts[idx]
            current.indices.append(i)
            current.used += size
            running += size
        return layouts

    index = FreeSpaceIndex()
    for _ in range(n_bins):
        index.append(0)
    for i in _decreasing_order(sizes, None):
        slot = index.lightest()
        size = sizes[i]
        index.add_load(slot, size)
        layouts[slot].indices.append(i)
        layouts[slot].used += size
    return layouts
