"""Subset-sum first-fit merging — the paper's reshaping heuristic (§4).

The goal is to group original small files into *unit files* whose size is as
close as possible to a desired unit size ``s``.  The paper cites the
subset-sum first-fit heuristic [Vazirani]: fill one bin at a time, greedily
adding the files that keep the bin as full as possible without overflowing.

Two entry points:

* :func:`subset_sum_layout` — the merge itself, producing bins whose
  contents will be concatenated into unit files.
* :func:`derive_multiples_layout` — the §4 trick: after packing once at the
  base unit size ``s0``, probes at sizes ``s1..sn`` that are *multiples* of
  ``s0`` are derived by coalescing consecutive base bins, avoiding a
  re-pack ("this approach is convenient since we avoid rerunning the first
  fit bin packing algorithm, but can be sensitive to the quality of the
  original bins").

Implementation
--------------
The classic bin-at-a-time greedy pass ("take every remaining item, in
descending size order, that still fits the current bin") is *provably*
first-fit over the descending item order: the items entering bin 0 are
exactly those that fit its running free space, the items skipped form the
stream bin 1 sees, and so on by induction.  The engine therefore reuses the
O(n log B) :func:`~repro.packing.first_fit.first_fit_layout` kernel on a
sorted index permutation instead of re-scanning the remainder list per bin
(O(n·B)).  The property tests pin this equivalence bin by bin against the
O(n·B) oracle kept in the test suite.
"""

from __future__ import annotations

from typing import Sequence

from repro.packing.first_fit import _decreasing_order, first_fit_layout
from repro.packing.index import BinLayout, PackingError

__all__ = ["subset_sum_layout", "derive_multiples_layout"]


def subset_sum_layout(
    sizes: Sequence[int],
    unit_size: int,
    *,
    preserve_order: bool = True,
    keys: Sequence[str] | None = None,
) -> list[BinLayout]:
    """Merge ``sizes`` into bins of at most ``unit_size`` bytes each.

    With ``preserve_order`` (the paper's default for the POS workload,
    §5.2), items stream in their given order and are placed first-fit.
    Without it, a greedy best-fill pass is made per bin: repeatedly take the
    largest remaining item that still fits (the classic subset-sum
    approximation), which produces fuller bins at the cost of reordering —
    this is first-fit-decreasing.  ``keys`` supplies the tie-break for
    equal sizes (falling back to index order, which coincides with key
    order for catalogue columns).

    Items larger than ``unit_size`` become single-item oversized bins; the
    reshaper never splits a file ("the largest (unsplittable) file", §5).
    """
    if unit_size <= 0:
        raise PackingError(f"unit size must be positive, got {unit_size}")
    if preserve_order:
        return first_fit_layout(sizes, unit_size)
    order = _decreasing_order(sizes, keys)
    layouts = first_fit_layout([sizes[i] for i in order], unit_size)
    for l in layouts:
        l.indices = [order[j] for j in l.indices]
    return layouts


def derive_multiples_layout(
    base_layouts: Sequence[BinLayout],
    factors: Sequence[int],
) -> dict[int, list[BinLayout]]:
    """Derive probe packings at multiples of the base unit size.

    Given layouts packed at unit size ``s0``, return for each factor ``k``
    in ``factors`` a packing at unit size ``k*s0`` built by coalescing ``k``
    consecutive base bins.  The returned mapping is keyed by factor.

    This mirrors §4: ``s1..sn`` are "conveniently chosen as multiples of s0
    such that we perform the bin packing once"; the quality of the derived
    bins inherits the quality of the base bins.  Coalesced bins can exceed
    ``k*s0`` only when a base bin held an oversized item; the capacity is
    widened rather than failing, so a derived bin's capacity is
    ``max(k*s0, used)``.  ``s0`` is the smallest base capacity: an
    oversized base bin is exactly as wide as its one item, which is wider
    than ``s0``.
    """
    if not base_layouts:
        return {k: [] for k in factors}
    base_cap = min(l.capacity or l.used for l in base_layouts)
    out: dict[int, list[BinLayout]] = {}
    for k in factors:
        if k < 1:
            raise PackingError(f"factor must be >= 1, got {k}")
        merged: list[BinLayout] = []
        for start in range(0, len(base_layouts), k):
            group = base_layouts[start : start + k]
            indices: list[int] = []
            for gl in group:
                indices.extend(gl.indices)
            used = sum(gl.used for gl in group)
            merged.append(
                BinLayout(capacity=max(base_cap * k, used), indices=indices, used=used)
            )
        out[k] = merged
    return out
