"""Property tests: the indexed kernels are byte-identical to the reference.

Every ``*_layout`` kernel built on :class:`~repro.packing.index.FreeSpaceIndex`
must place every item into exactly the same bin, in the same order, with the
same bin capacities, as the original O(n·B) implementations preserved in
``tests/reference_packing.py`` — across random size columns, capacities,
bin counts and both ``preserve_order`` settings.  Each result is
additionally checked with :func:`~tests.reference_packing.validate_layouts`.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.packing import (
    FreeSpaceIndex,
    PackingCache,
    PackingError,
    first_fit_layout,
    pack_into_n_bins_layout,
    subset_sum_layout,
    uniform_layout,
)
from tests import reference_packing as reference
from tests.reference_packing import Item, validate_layouts


def keys_of(sizes) -> list[str]:
    """Zero-padded keys: key order is index order for up to 10,000 items."""
    return [f"f{i:04d}" for i in range(len(sizes))]


def items_of(sizes) -> list[Item]:
    return [Item(key=k, size=s) for k, s in zip(keys_of(sizes), sizes)]


def assert_identical(sizes, got, want):
    """Bin-by-bin equality: capacity, load, and member keys in order."""
    keys = keys_of(sizes)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.capacity == w.capacity
        assert g.used == w.used
        assert [keys[i] for i in g.indices] == [it.key for it in w.items]


size_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=5000),
    ),
    min_size=0,
    max_size=120,
)
capacities = st.integers(min_value=1, max_value=4000)
bin_counts = st.integers(min_value=1, max_value=15)


class TestFirstFitEquivalence:
    @given(sizes=size_lists, capacity=capacities)
    @settings(max_examples=150, deadline=None)
    def test_first_fit(self, sizes, capacity):
        got = first_fit_layout(sizes, capacity)
        assert_identical(sizes, got, reference.first_fit(items_of(sizes), capacity))
        validate_layouts(sizes, got)

    @given(sizes=size_lists, capacity=capacities)
    @settings(max_examples=100, deadline=None)
    def test_first_fit_decreasing(self, sizes, capacity):
        got = subset_sum_layout(sizes, capacity, preserve_order=False,
                                keys=keys_of(sizes))
        assert_identical(
            sizes, got, reference.first_fit_decreasing(items_of(sizes), capacity)
        )
        validate_layouts(sizes, got)

    @given(sizes=size_lists, capacity=capacities)
    @settings(max_examples=100, deadline=None)
    def test_duplicate_sizes_tie_break(self, sizes, capacity):
        # Heavy duplication stresses the (-size, key) tie-break.
        sizes = [s % 7 for s in sizes]
        got = subset_sum_layout(sizes, capacity, preserve_order=False,
                                keys=keys_of(sizes))
        assert_identical(
            sizes, got, reference.first_fit_decreasing(items_of(sizes), capacity)
        )

    @given(sizes=size_lists, capacity=capacities, ties=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_unordered_subset_sum_is_ffd(self, sizes, capacity, ties):
        # Without keys the tie-break falls back to index order, which is key
        # order here: the keyless merge production runs is exactly FFD.
        if ties:
            sizes = [s % 7 for s in sizes]
        got = subset_sum_layout(sizes, capacity, preserve_order=False)
        assert_identical(
            sizes, got, reference.first_fit_decreasing(items_of(sizes), capacity)
        )


class TestSubsetSumEquivalence:
    @given(
        sizes=size_lists,
        unit=capacities,
        preserve_order=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_subset_sum(self, sizes, unit, preserve_order):
        got = subset_sum_layout(sizes, unit, preserve_order=preserve_order)
        want = reference.subset_sum_first_fit(
            items_of(sizes), unit, preserve_order=preserve_order
        )
        assert_identical(sizes, got, want)
        validate_layouts(sizes, got)


class TestPackIntoNBinsEquivalence:
    @given(sizes=size_lists, n_bins=bin_counts, capacity=capacities)
    @settings(max_examples=200, deadline=None)
    def test_pack_into_n_bins(self, sizes, n_bins, capacity):
        got = pack_into_n_bins_layout(sizes, n_bins, capacity)
        want = reference.pack_into_n_bins(items_of(sizes), n_bins, capacity)
        assert_identical(sizes, got, want)
        validate_layouts(sizes, got)

    @given(sizes=size_lists, n_bins=bin_counts)
    @settings(max_examples=100, deadline=None)
    def test_tight_capacity_forces_overflow(self, sizes, n_bins):
        # Capacity chosen so a large share of items overflow into the spill
        # path, which must match the reference's min(used) scan exactly.
        capacity = max(1, sum(sizes) // (2 * n_bins) or 1)
        got = pack_into_n_bins_layout(sizes, n_bins, capacity)
        want = reference.pack_into_n_bins(items_of(sizes), n_bins, capacity)
        assert_identical(sizes, got, want)
        validate_layouts(sizes, got)


class TestUniformEquivalence:
    @given(sizes=size_lists, n_bins=bin_counts)
    @settings(max_examples=200, deadline=None)
    # item 1's midpoint 2 + 2/2 equals the boundary share·1 = 3: the tie
    # moves it to bin 1
    @example(sizes=[2, 2, 2, 2, 1], n_bins=3)
    # all-zero sizes: every midpoint meets every boundary, so every item
    # lands in the last bin
    @example(sizes=[0, 0, 0, 0], n_bins=3)
    # more bins than items: some bins stay empty
    @example(sizes=[5, 5], n_bins=5)
    # one item larger than the share takes a bin of its own
    @example(sizes=[1, 30, 1, 1, 1], n_bins=3)
    def test_uniform(self, sizes, n_bins):
        got = uniform_layout(sizes, n_bins)
        want = reference.uniform_bins(items_of(sizes), n_bins)
        assert_identical(sizes, got, want)
        validate_layouts(sizes, got)


class TestColumnarPaths:
    """Kernels on a catalogue's size column agree with the oracle on its files."""

    @given(capacity=st.integers(min_value=1_000, max_value=400_000))
    @settings(max_examples=50, deadline=None)
    def test_layout_matches_bins(self, capacity):
        from repro.corpus import text_400k_like

        cat = text_400k_like(scale=5e-4, seed=capacity % 7)
        paths = [f.path for f in cat]
        items = [Item(key=f.path, size=f.size) for f in cat]
        sizes = cat.sizes().tolist()
        for got, want in [
            (first_fit_layout(sizes, capacity), reference.first_fit(items, capacity)),
            (subset_sum_layout(sizes, capacity, preserve_order=False),
             reference.first_fit_decreasing(items, capacity)),
        ]:
            assert [[paths[i] for i in l.indices] for l in got] == [
                [it.key for it in b.items] for b in want
            ]
            assert [l.used for l in got] == [b.used for b in want]
            assert [l.capacity for l in got] == [b.capacity for b in want]


class TestOverflowSpillRegression:
    def test_thousands_of_overflow_items_spill_balanced(self):
        """Regression for the O(overflow·B) min() rescan: thousands of
        items overflowing into few bins must stay fast and balanced."""
        rnd = random.Random(7)
        sizes = [rnd.randint(1, 100) for _ in range(5000)]
        layouts = pack_into_n_bins_layout(sizes, 8, capacity=50)
        validate_layouts(sizes, layouts)
        # The spill heap must keep loads near-balanced: no bin may exceed
        # the ideal share by more than one max-size item.
        loads = [l.used for l in layouts]
        assert max(loads) - min(loads) <= 100
        # And the result still matches the reference scan exactly.
        want = reference.pack_into_n_bins(items_of(sizes), 8, capacity=50)
        assert_identical(sizes, layouts, want)

    def test_strict_overflow_raises(self):
        with pytest.raises(PackingError):
            pack_into_n_bins_layout([10, 10, 10], 1, capacity=15, strict=True)


class TestFreeSpaceIndex:
    def test_first_fit_slot_leftmost(self):
        fsi = FreeSpaceIndex()
        for free in [5, 20, 10, 20]:
            fsi.append(free)
        assert fsi.first_fit_slot(6) == 1
        assert fsi.first_fit_slot(21) == -1
        assert fsi.first_fit_slot(0) == 0
        fsi.consume(1, 18)  # free now [5, 2, 10, 20]
        assert fsi.first_fit_slot(6) == 2
        assert fsi.max_free() == 20

    def test_best_fit_slot_smallest_sufficient(self):
        fsi = FreeSpaceIndex()
        for free in [50, 8, 30, 8]:
            fsi.append(free)
        assert fsi.best_fit_slot(7) == 1     # smallest free >= 7, lowest slot
        assert fsi.best_fit_slot(9) == 2
        assert fsi.best_fit_slot(51) == -1
        fsi.consume(1, 8)                    # slot 1 now full
        assert fsi.best_fit_slot(7) == 3

    def test_lightest_tracks_loads(self):
        fsi = FreeSpaceIndex()
        for _ in range(3):
            fsi.append(0)
        fsi.add_load(0, 5)
        fsi.add_load(1, 2)
        assert fsi.lightest() == 2
        fsi.add_load(2, 10)
        assert fsi.lightest() == 1
        fsi.add_load(1, 100)
        assert fsi.lightest() == 0

    def test_growth_keeps_answers(self):
        fsi = FreeSpaceIndex()
        for i in range(100):
            fsi.append(i)
        # Leftmost slot with free >= 37 is slot 37 itself.
        assert fsi.first_fit_slot(37) == 37
        assert fsi.max_free() == 99
        assert len(fsi) == 100

    def test_brute_force_agreement(self):
        rnd = random.Random(3)
        fsi = FreeSpaceIndex()
        frees = []
        for _ in range(400):
            op = rnd.random()
            if op < 0.4 or not frees:
                f = rnd.randint(0, 50)
                fsi.append(f)
                frees.append(f)
            elif op < 0.8:
                s = rnd.randint(0, 60)
                want = next((i for i, f in enumerate(frees) if f >= s), -1)
                assert fsi.first_fit_slot(s) == want
                s2 = rnd.randint(0, 60)
                fitting = [(f, i) for i, f in enumerate(frees) if f >= s2]
                assert fsi.best_fit_slot(s2) == (min(fitting)[1] if fitting else -1)
            else:
                i = rnd.randrange(len(frees))
                take = rnd.randint(0, frees[i])
                fsi.consume(i, take)
                frees[i] -= take


class TestPackingCache:
    def _cat(self, n=200, seed=5):
        from repro.corpus import text_400k_like

        return text_400k_like(scale=n / 400_000, seed=seed)

    def test_exact_hit(self):
        cat = self._cat()
        cache = PackingCache()
        a = cache.pack_layout(cat, 10_000)
        b = cache.pack_layout(cat, 10_000)
        assert a is b
        assert cache.stats()["hits"] == 1

    def test_multiple_of_base_is_derived(self):
        cat = self._cat()
        cache = PackingCache()
        base = cache.pack_layout(cat, 10_000)
        derived = cache.pack_layout(cat, 30_000)
        assert cache.stats()["derived"] == 1
        # Derived = groups of 3 consecutive base bins.
        merged = [i for l in derived for i in l.indices]
        assert merged == [i for l in base for i in l.indices]
        from repro.packing import derive_multiples_layout

        assert [l.indices for l in derive_multiples_layout(base, [3])[3]] == [
            l.indices for l in derived
        ]

    def test_derive_from_restriction(self):
        cat = self._cat()
        cache = PackingCache()
        cache.pack_layout(cat, 10_000)
        # derive_from pinning a non-divisor forces a direct pack.
        cache.pack_layout(cat, 25_000, derive_from=10_000)
        assert cache.stats()["derived"] == 0

    def test_same_size_column_shares_entries(self):
        a, b = self._cat(seed=5), self._cat(seed=5)
        assert a.fingerprint() == b.fingerprint()
        cache = PackingCache()
        cache.pack_layout(a, 10_000)
        cache.pack_layout(b, 10_000)
        assert cache.stats()["hits"] == 1

    def test_eviction_bound(self):
        cat = self._cat()
        cache = PackingCache(max_entries=2)
        for s in [1000, 3000, 7000, 11000]:
            cache.pack_layout(cat, s, derive_from=1)
        assert len(cache) <= 2
