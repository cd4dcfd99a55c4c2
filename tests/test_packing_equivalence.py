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
    cut_first_fit,
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


@st.composite
def window_cases(draw):
    """Size columns that work first-fit's window of recently closed bins.

    Rounds of large items close bins with room left, then runs of small
    items back-fill them: some land in window bins, some in bins already
    aged into the tree.  Size-0 and oversized items are mixed in, and the
    capacity is sometimes 1.
    """
    capacity = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=200)))
    large = st.integers(min_value=capacity // 2 + 1, max_value=capacity)
    small = st.integers(min_value=0, max_value=max(1, capacity // 6))
    odd = st.one_of(st.just(0),
                    st.integers(min_value=capacity + 1, max_value=3 * capacity + 1))
    sizes: list[int] = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        sizes += draw(st.lists(large, min_size=0, max_size=10))
        sizes += draw(st.lists(st.one_of(small, small, small, odd),
                               min_size=0, max_size=40))
    return sizes, capacity


def assert_same_layouts(got, want):
    assert [(l.capacity, l.indices, l.used) for l in got] == [
        (l.capacity, l.indices, l.used) for l in want]


class TestFirstFitWindow:
    """first-fit keeps its newest closed bins out of the segment tree; the
    placement must still be classic first-fit."""

    @given(case=window_cases())
    @settings(max_examples=300, deadline=None)
    @example(case=([0, 0, 2, 0], 1))
    @example(case=([1, 1, 1, 5, 0, 1], 1))
    # six bins close with room 1..6 left; the small items then reach the
    # tree (oldest bins) and the window (newest) in turn
    @example(case=([9, 8, 7, 6, 5, 4, 10, 1, 6, 2, 5, 3, 4, 0, 25, 1], 10))
    def test_matches_reference(self, case):
        sizes, capacity = case
        got = first_fit_layout(sizes, capacity)
        assert_identical(sizes, got, reference.first_fit(items_of(sizes), capacity))
        validate_layouts(sizes, got)

    def test_grep_head_pack_rarely_descends_the_tree(self, monkeypatch):
        """The 1 MB pack of the benchmark's grep head (fig. 4's 5 GB head of
        ``html_18mil_like(scale=7e-3, seed=2010)``, 106,474 files in 4,479
        bins) asks the tree 1,849 times; with every closed bin in the tree
        it asked 16,080 times."""
        from repro.corpus import html_18mil_like
        from repro.units import GB, MB

        head = html_18mil_like(scale=7e-3, seed=2010).head_by_volume(5 * GB)
        calls = []
        descend = FreeSpaceIndex.first_fit_slot
        monkeypatch.setattr(FreeSpaceIndex, "first_fit_slot",
                            lambda index, size: calls.append(size)
                            or descend(index, size))
        layouts = first_fit_layout(head.sizes().tolist(), 1 * MB)
        assert (len(head), len(layouts)) == (106_474, 4_479)
        assert len(calls) <= 2_000


class TestPrefixCut:
    """First-fit in original order is online: the pack of a prefix is the
    cut of the pack."""

    @given(case=window_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=([], 5))
    @example(case=([7, 0, 3, 12, 0, 2, 6], 6))
    def test_cut_is_the_prefix_pack(self, case):
        sizes, capacity = case
        full = first_fit_layout(sizes, capacity)
        for k in range(len(sizes) + 1):
            assert_same_layouts(cut_first_fit(full, sizes, k),
                                first_fit_layout(sizes[:k], capacity))

    def test_cut_leaves_the_full_pack_alone(self):
        sizes = [4, 4, 3, 1, 1]
        full = first_fit_layout(sizes, 5)
        before = [(l.capacity, list(l.indices), l.used) for l in full]
        cut_first_fit(full, sizes, 3)
        assert [(l.capacity, l.indices, l.used) for l in full] == before


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


class TestFixedBinReduction:
    """The fixed-bin packer is open-ended first-fit plus a spill: its bins
    are first-fit's first ``n_bins`` regular bins, and the items first-fit
    puts anywhere else spill.  These cases aim at the edges of that
    argument: oversized items (first-fit's own bins, which no fixed bin
    takes), size-0 items, and bin counts on both sides of first-fit's."""

    mixed_sizes = st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=0),
            st.integers(min_value=1, max_value=300),
            st.integers(min_value=1_000, max_value=3_000),   # over capacity
        ),
        min_size=0,
        max_size=120,
    )

    @given(sizes=mixed_sizes, n_bins=st.integers(min_value=1, max_value=15),
           capacity=st.integers(min_value=300, max_value=999))
    @settings(max_examples=200, deadline=None)
    @example(sizes=[0, 0, 0], n_bins=2, capacity=300)
    @example(sizes=[1_000, 0, 5, 2_000, 0], n_bins=1, capacity=300)
    def test_oversized_and_empty_items(self, sizes, n_bins, capacity):
        got = pack_into_n_bins_layout(sizes, n_bins, capacity)
        want = reference.pack_into_n_bins(items_of(sizes), n_bins, capacity)
        assert_identical(sizes, got, want)
        validate_layouts(sizes, got)

    @given(sizes=size_lists, capacity=capacities,
           offset=st.integers(min_value=-5, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_bin_count_around_first_fits(self, sizes, capacity, offset):
        # n_bins below first-fit's count forces a spill, above it pads
        # empty bins.  Either way each fixed bin starts with the items of
        # first-fit's bin in the same slot; spilled items follow them.
        regular = [l for l in first_fit_layout(sizes, capacity)
                   if l.capacity == capacity]
        n_bins = max(1, len(regular) + offset)
        got = pack_into_n_bins_layout(sizes, n_bins, capacity)
        want = reference.pack_into_n_bins(items_of(sizes), n_bins, capacity)
        assert_identical(sizes, got, want)
        for fixed, open_ended in zip(got, regular):
            assert fixed.indices[:len(open_ended.indices)] == open_ended.indices

    @given(sizes=mixed_sizes, n_bins=st.integers(min_value=1, max_value=15),
           capacity=st.integers(min_value=300, max_value=999))
    @settings(max_examples=150, deadline=None)
    def test_strict_error_counts_the_reference_overflow(self, sizes, n_bins, capacity):
        try:
            reference.pack_into_n_bins(items_of(sizes), n_bins, capacity, strict=True)
        except PackingError as err:
            with pytest.raises(PackingError) as got:
                pack_into_n_bins_layout(sizes, n_bins, capacity, strict=True)
            assert str(got.value) == str(err)
        else:
            got_bins = pack_into_n_bins_layout(sizes, n_bins, capacity, strict=True)
            assert_identical(sizes, got_bins, reference.pack_into_n_bins(
                items_of(sizes), n_bins, capacity))


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

    def test_smaller_head_is_cut_from_a_direct_pack(self):
        cat = self._cat(n=400)
        cache = PackingCache()
        full = cache.pack_layout(cat, 10_000)
        head = cat.head_by_volume(cat.total_size // 3)
        cut = cache.pack_layout(head, 10_000)
        assert cache.stats()["cut"] == 1 and cache.stats()["derived"] == 1
        assert len(cut) < len(full)
        assert_same_layouts(cut, first_fit_layout(head.sizes().tolist(), 10_000))

    def test_cut_probe_sets_equal_direct_ones(self):
        """Nested heads built largest first from one cache give the
        segments, names and sizes of probe sets built one by one."""
        from repro.perfmodel import build_probe_set

        cat = self._cat(n=400)
        sizes = [8_000, 16_000, 40_000, 25_000]
        volumes = [int(cat.sizes()[:n].sum()) for n in (60, 250, 400)]
        cache = PackingCache()
        shared = {v: build_probe_set(cat, v, sizes, cache=cache)
                  for v in sorted(volumes, reverse=True)}
        assert cache.stats()["cut"] == 4      # 8,000 and 25,000, twice each
        for v in volumes:
            alone = build_probe_set(cat, v, sizes)
            for s in sizes:
                got, want = shared[v].variants[s], alone.variants[s]
                assert [(u.name, u.size, [m.path for m in u.members]) for u in got] == [
                    (u.name, u.size, [m.path for m in u.members]) for u in want]
                assert list(got) == list(want)

    def test_derived_entries_are_never_cut(self):
        cat = self._cat(n=400)
        cache = PackingCache()
        cache.pack_layout(cat, 10_000)
        cache.pack_layout(cat, 30_000)              # derived from 10,000
        head = cat.head_by_volume(cat.total_size // 2)
        got = cache.pack_layout(head, 30_000, derive_from=7_000)
        assert cache.stats()["cut"] == 0
        assert_same_layouts(got, first_fit_layout(head.sizes().tolist(), 30_000))
