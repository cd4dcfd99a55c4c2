"""Tests for the bin-packing kernels."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.packing import (
    BinLayout,
    PackingError,
    derive_multiples_layout,
    first_fit_layout,
    pack_into_n_bins_layout,
    subset_sum_layout,
    uniform_layout,
)
from tests.reference_packing import Bin, Item, validate_layouts

size_lists = st.lists(st.integers(min_value=0, max_value=5000), min_size=0, max_size=60)


def members(sizes, layout):
    """Member sizes of one layout, in placement order."""
    return [sizes[i] for i in layout.indices]


def optimal_bins(sizes, cap) -> int:
    """Fewest bins of ``cap`` holding ``sizes`` (each ≤ cap), by search."""
    order = sorted(sizes, reverse=True)

    def fits(loads, i):
        if i == len(order):
            return True
        tried = set()
        for b, load in enumerate(loads):
            if load + order[i] <= cap and load not in tried:
                tried.add(load)        # bins of equal load are interchangeable
                loads[b] += order[i]
                if fits(loads, i + 1):
                    return True
                loads[b] -= order[i]
        return False

    n = max(1, -(-sum(order) // cap)) if order else 0
    while not fits([0] * n, 0):
        n += 1
    return n


class TestItemBin:
    """The oracle's value objects (tests/reference_packing.py)."""

    def test_negative_size_rejected(self):
        with pytest.raises(PackingError):
            Item(key="x", size=-1)

    def test_bin_add_and_free(self):
        b = Bin(capacity=10)
        b.add(Item("a", 4))
        assert b.used == 4 and b.free == 6

    def test_bin_overflow_rejected(self):
        b = Bin(capacity=10)
        b.add(Item("a", 8))
        with pytest.raises(PackingError):
            b.add(Item("b", 3))

    def test_uncapacitated_free_rejected(self):
        with pytest.raises(PackingError):
            _ = Bin(capacity=None).free

    def test_validate_detects_duplicate(self):
        layouts = [BinLayout(5, [0], 1), BinLayout(5, [0], 1)]
        with pytest.raises(PackingError):
            validate_layouts([1], layouts)

    def test_validate_detects_missing(self):
        with pytest.raises(PackingError):
            validate_layouts([3], [BinLayout(capacity=5)])


class TestFirstFit:
    def test_basic_placement(self):
        layouts = first_fit_layout([4, 4, 4], capacity=8)
        assert [l.used for l in layouts] == [8, 4]

    def test_original_order_preserved_within_scan(self):
        # 6 opens bin0; 5 opens bin1; 2 goes back into bin0 (first fit).
        layouts = first_fit_layout([6, 5, 2], capacity=8)
        assert [l.indices for l in layouts] == [[0, 2], [1]]

    def test_oversized_gets_solo_bin(self):
        layouts = first_fit_layout([20, 1], capacity=8)
        assert layouts[0].used == 20 and len(layouts[0].indices) == 1
        assert layouts[1].used == 1

    def test_bad_capacity(self):
        with pytest.raises(PackingError):
            first_fit_layout([1], capacity=0)

    def test_empty_input(self):
        assert first_fit_layout([], capacity=10) == []

    @given(size_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=120)
    def test_is_partition(self, sizes, cap):
        validate_layouts(sizes, first_fit_layout(sizes, cap))

    @given(size_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=120)
    def test_no_two_bins_fit_together_invariant(self, sizes, cap):
        """Classic FF invariant: at most one bin can be <= half full
        (excluding oversized solo bins)."""
        bins = [l for l in first_fit_layout(sizes, cap) if l.used <= cap]
        under_half = sum(1 for l in bins if l.used * 2 <= cap)
        # zero-size items can create a degenerate all-zero first bin
        if all(l.used > 0 for l in bins):
            assert under_half <= 1


class TestFirstFitDecreasing:
    """First-fit-decreasing is the order-breaking subset-sum merge."""

    def test_sorted_order(self):
        sizes = [1, 9, 5]
        layouts = subset_sum_layout(sizes, 10, preserve_order=False)
        assert members(sizes, layouts[0])[0] == 9

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=8),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=150, deadline=None)
    # FFD 3 bins, OPT 2: [45, 17, 10] and [32, 21, 19] fill both exactly
    @example([32, 21, 10, 45, 19, 17], 72)
    def test_within_11_9_opt_plus_6_9(self, sizes, cap):
        """Dósa's tight bound FFD ≤ 11/9·OPT + 6/9, against a brute-forced
        OPT on inputs small enough to search (oversized items excluded:
        each takes a bin of its own in every packing)."""
        sizes = [s for s in sizes if s <= cap]
        ffd = subset_sum_layout(sizes, cap, preserve_order=False)
        assert 9 * len(ffd) <= 11 * optimal_bins(sizes, cap) + 6

    @given(size_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=80)
    # FFD 3 bins, first-fit 2: ([331, 291], [187, 145, 145, 145], [145])
    # against ([145, 145, 145, 331], [145, 187, 291])
    @example([145, 145, 145, 331, 145, 187, 291], 766)
    def test_never_more_bins_than_ff_plus_margin(self, sizes, cap):
        """FFD can use *more* bins than first-fit in original order (the
        example), but only by a margin: FFD ≤ 11/9·OPT + 6/9 ≤ 11/9·FF +
        6/9, since first-fit never beats OPT (oversized solo bins, the
        same in both, only widen the margin)."""
        ffd = subset_sum_layout(sizes, cap, preserve_order=False)
        ff = first_fit_layout(sizes, cap)
        assert 9 * len(ffd) <= 11 * len(ff) + 6

    def test_first_fit_beats_ffd_on_the_example(self):
        sizes, cap = [145, 145, 145, 331, 145, 187, 291], 766
        assert len(subset_sum_layout(sizes, cap, preserve_order=False)) == 3
        assert len(first_fit_layout(sizes, cap)) == 2

    @given(size_lists, st.integers(min_value=1, max_value=4000))
    @settings(max_examples=80)
    def test_is_partition(self, sizes, cap):
        validate_layouts(sizes, subset_sum_layout(sizes, cap, preserve_order=False))


class TestPackIntoNBins:
    def test_fixed_count(self):
        layouts = pack_into_n_bins_layout([3, 3, 3, 3], n_bins=2, capacity=6)
        assert len(layouts) == 2
        validate_layouts([3, 3, 3, 3], layouts)

    def test_overflow_spills_to_lightest(self):
        layouts = pack_into_n_bins_layout([5, 5, 5], n_bins=2, capacity=5)
        assert len(layouts) == 2
        assert sum(l.used for l in layouts) == 15

    def test_strict_overflow_raises(self):
        with pytest.raises(PackingError):
            pack_into_n_bins_layout([5, 5, 5], n_bins=2, capacity=5, strict=True)

    def test_zero_bins_rejected(self):
        with pytest.raises(PackingError):
            pack_into_n_bins_layout([1], n_bins=0, capacity=5)

    @given(
        size_lists,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=100)
    def test_partition_and_count(self, sizes, n, cap):
        layouts = pack_into_n_bins_layout(sizes, n_bins=n, capacity=cap)
        assert len(layouts) == n
        assert sum(l.used for l in layouts) == sum(sizes)


class TestUniformBins:
    def test_balanced_in_order(self):
        layouts = uniform_layout([2, 2, 2, 2, 2, 2], n_bins=3)
        assert [l.used for l in layouts] == [4, 4, 4]
        # order preserved: concatenating bins recovers the input order
        assert [i for l in layouts for i in l.indices] == list(range(6))

    def test_zero_bins_rejected(self):
        with pytest.raises(PackingError):
            uniform_layout([1], n_bins=0)

    def test_empty_items(self):
        layouts = uniform_layout([], n_bins=3)
        assert len(layouts) == 3 and all(l.used == 0 for l in layouts)

    @given(size_lists, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_partition_exact_count(self, sizes, n):
        layouts = uniform_layout(sizes, n_bins=n)
        assert len(layouts) == n
        validate_layouts(sizes, layouts)


class TestSubsetSumFirstFit:
    def test_merges_to_unit(self):
        sizes = [400, 300, 300, 600]
        layouts = subset_sum_layout(sizes, unit_size=1000)
        validate_layouts(sizes, layouts)
        assert all(l.used <= 1000 for l in layouts)

    def test_greedy_mode_fills_better(self):
        # order-preserving FF: [700], [300, 300], [400] -> 3 bins
        # greedy subset-sum: [700,300], [400,300] -> 2 bins
        sizes = [700, 300, 300, 400]
        ordered = subset_sum_layout(sizes, 1000, preserve_order=True)
        greedy = subset_sum_layout(sizes, 1000, preserve_order=False)
        assert len(greedy) <= len(ordered)
        validate_layouts(sizes, greedy)

    def test_oversized_isolated_in_greedy_mode(self):
        layouts = subset_sum_layout([5000, 10], 1000, preserve_order=False)
        assert layouts[0].used == 5000 and len(layouts[0].indices) == 1

    def test_bad_unit(self):
        with pytest.raises(PackingError):
            subset_sum_layout([1], 0)

    @given(size_lists, st.integers(min_value=1, max_value=4000), st.booleans())
    @settings(max_examples=120)
    def test_partition_any_mode(self, sizes, unit, order):
        validate_layouts(sizes, subset_sum_layout(sizes, unit, preserve_order=order))


class TestDeriveMultiples:
    def test_coalesces_consecutive(self):
        base = subset_sum_layout([100] * 10, unit_size=100)
        assert len(base) == 10
        derived = derive_multiples_layout(base, [2, 5])
        assert len(derived[2]) == 5
        assert len(derived[5]) == 2
        assert all(l.used == 200 for l in derived[2])

    def test_partition_preserved(self):
        sizes = [30, 70, 20, 80, 50, 50]
        base = subset_sum_layout(sizes, unit_size=100)
        for layouts in derive_multiples_layout(base, [1, 2, 3]).values():
            validate_layouts(sizes, layouts)

    def test_factor_one_is_identityish(self):
        base = subset_sum_layout([10, 20, 30], unit_size=60)
        d1 = derive_multiples_layout(base, [1])[1]
        assert [l.used for l in d1] == [l.used for l in base]

    def test_oversized_base_bin_keeps_capacities_regular(self):
        # Base bins at 100: [60, 30], [430 (oversized)], [90], [50].
        sizes = [60, 430, 30, 90, 50]
        base = first_fit_layout(sizes, 100)
        assert [l.capacity for l in base] == [100, 430, 100, 100]
        derived = derive_multiples_layout(base, [2])[2]
        # k·s0 = 200, widened only where the oversized item needs it.
        assert [(l.capacity, l.used) for l in derived] == [(520, 520), (200, 140)]
        validate_layouts(sizes, derived)

    def test_empty_base(self):
        assert derive_multiples_layout([], [2]) == {2: []}

    def test_bad_factor(self):
        base = subset_sum_layout([10], 20)
        with pytest.raises(PackingError):
            derive_multiples_layout(base, [0])
