"""Uniform (balanced) binning — the §5.2 schedule improvement.

After the deadline model prescribes an instance count ``i``, the paper
improves on capacity-driven first-fit by "uniformly distributing the data to
each instance": every instance gets ≈``V/i`` bytes, which lowers the maximum
bin volume and therefore the chance of missing the deadline at identical
cost (Fig. 8(b)).

The split keeps the original file order (the POS workload case): item ``i``
lands in the bin whose share interval holds its midpoint
``running_i + size_i/2``, so one ``searchsorted`` over the share boundaries
places every item at once.  Each bin is then one run of the input, so
its indices are a ``range``: a catalogue slices a run as views of its
columns (:meth:`~repro.vfs.Catalogue._take`), with no index list built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.packing.index import BinLayout, PackingError

__all__ = ["uniform_layout"]


def uniform_layout(sizes: Sequence[int] | np.ndarray, n_bins: int) -> list[BinLayout]:
    """Distribute ``sizes`` in order across exactly ``n_bins`` bins of ≈equal volume.

    The items are streamed in order and a bin is closed once it has met
    the ideal share ``total/n_bins``: item ``i`` goes to bin
    ``#{k in 1..n_bins-1 : share·k <= running_i + size_i/2}`` (the last
    bin absorbs rounding).  The midpoints and boundaries are the same
    float products a streaming loop compares, so the split is exact.

    ``sizes`` may be a list or an int64 column, which is used as given.
    Returned layouts are uncapacitated (``capacity=None``); balance, not
    capacity, is the constraint.  Bin ``b``'s indices are the run
    ``range(start_b, start_{b+1})``.
    """
    if n_bins <= 0:
        raise PackingError(f"need at least one bin, got {n_bins}")
    n = len(sizes)
    if not n:
        return [BinLayout(capacity=None) for _ in range(n_bins)]
    arr = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(arr)
    share = int(ends[-1]) / n_bins
    midpoints = (ends - arr) + arr / 2
    bins = np.searchsorted(share * np.arange(1, n_bins), midpoints, side="right")
    # Bins are non-decreasing along the items: bin b holds one index run.
    starts = np.searchsorted(bins, np.arange(n_bins + 1), side="left").tolist()
    loads = np.concatenate(([0], ends))[starts].tolist()
    return [BinLayout(capacity=None, indices=range(a, b), used=used_b - used_a)
            for a, b, used_a, used_b in zip(starts, starts[1:], loads, loads[1:])]
