"""Bin-packing heuristics used to reshape text corpora.

The paper merges many small files into unit files of a preferred size using
the *subset-sum first-fit* heuristic (Vazirani, Introduction to Approximation
Algorithms), and distributes data across EC2 instances with first-fit in
original order or with uniform (balanced) bins.  This package implements all
of those; the subset-sum merge without ``preserve_order`` is
first-fit-decreasing, for the ablation in §5.2 of the paper (sorted order
gives fuller bins but front-loads large files, which hurts the memory-bound
POS tagger).

Every heuristic is a ``*_layout`` kernel: it takes a column of sizes and
returns :class:`BinLayout` index lists, in O(n log B) on a shared indexed
engine (:class:`FreeSpaceIndex`, a max-segment-tree over per-bin free
space).  The results depend only on the size column, which is all the
paper's mechanisms read.  The original O(n·B) scans are kept in the test
suite as the equivalence oracle for the property tests.

Public API
----------
- :class:`BinLayout`, :class:`FreeSpaceIndex`, :class:`PackingError` — the
  result format, the bin index and the packers' error.
- :func:`first_fit_layout` — classic capacitated first-fit into an
  open-ended list of bins.
- :func:`pack_into_n_bins_layout` — first-fit into a *fixed* number of bins
  (capacity = prescribed per-instance volume).
- :func:`uniform_layout` — order-preserving balanced split into ``n`` bins
  (one vectorised ``searchsorted``, no bin index).
- :func:`subset_sum_layout` — the paper's merge heuristic.
- :func:`derive_multiples_layout` — derive ``P^{V}_{s1..sn}`` probe
  groupings from a base packing at ``s0`` without re-running the packer
  (§4).
- :class:`PackingCache` — campaign-scoped memoisation with automatic
  derive-from-base routing for multiple-of-``s0`` sizes.
"""

from repro.packing.cache import PackingCache
from repro.packing.first_fit import first_fit_layout, pack_into_n_bins_layout
from repro.packing.index import BinLayout, FreeSpaceIndex, PackingError
from repro.packing.subset_sum import derive_multiples_layout, subset_sum_layout
from repro.packing.uniform import uniform_layout

__all__ = [
    "PackingError",
    "BinLayout",
    "FreeSpaceIndex",
    "PackingCache",
    "first_fit_layout",
    "pack_into_n_bins_layout",
    "uniform_layout",
    "subset_sum_layout",
    "derive_multiples_layout",
]
