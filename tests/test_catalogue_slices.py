"""Derived catalogues are index slices; packed segments take the packer's sizes;
a probe is priced once.

The oracles below are the file-by-file loops the slices replace: every
derived catalogue was rebuilt from its list of files, with exclusion by
path.  A slice must equal the oracle's files and name in everything the
program reads: the file objects themselves, the size column, the running
total, the fingerprint and the name.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StaticProvisioner, reshape
from repro.corpus import html_18mil_like, text_400k_like
from repro.experiments import exp_grep
from repro.packing import first_fit_layout, pack_into_n_bins_layout, uniform_layout
from repro.perfmodel import ProbeCampaign, build_probe_set, collect_sample_points
from repro.perfmodel.regression import fit_affine
from repro.sim.random import RngStream
from repro.units import HOUR, KB
from repro.vfs import Catalogue, Segment
from tests.catalogues import Files as Oracle
from tests.catalogues import make_catalogue

# -- oracles: the per-file loops the slices replace ----------------------------


def oracle_head(cat: Catalogue | Oracle, volume: int) -> Oracle:
    files = list(cat)
    total = sum(f.size for f in files)
    if volume <= 0:
        return Oracle([], f"{cat.name}[:0B]")
    if volume >= total:
        return Oracle(files, f"{cat.name}[:all]")
    k = bisect.bisect_left(np.cumsum([f.size for f in files]), volume) + 1
    return Oracle(files[:k], f"{cat.name}[:{volume}B]")


def oracle_sample(cat: Catalogue, volume: int, rng: RngStream,
                  exclude: set[str]) -> Oracle:
    pool = [f for f in cat if f.path not in exclude]
    order = list(range(len(pool)))
    rng.shuffle(order)
    picked: list[int] = []
    acc = 0
    for i in order:
        if acc >= volume:
            break
        picked.append(i)
        acc += pool[i].size
    return Oracle([pool[i] for i in sorted(picked)], f"{cat.name}[sample {volume}B]")


def oracle_partition(cat: Catalogue, n_parts: int) -> list[Oracle]:
    files = list(cat)
    layouts = uniform_layout([f.size for f in files], n_bins=n_parts)
    return [Oracle([files[j] for j in l.indices], f"{cat.name}/part{i}")
            for i, l in enumerate(layouts)]


def assert_same(got: Catalogue, want: Catalogue | Oracle) -> None:
    ref = want.columns() if isinstance(want, Oracle) else want
    files = list(want)
    assert got.name == want.name
    assert len(got) == len(files)
    assert all(a is b for a, b in zip(got, files))
    assert got.sizes().dtype == ref.sizes().dtype
    assert np.array_equal(got.sizes(), ref.sizes())
    assert got._cum.dtype == ref._cum.dtype
    assert np.array_equal(got._cum, ref._cum)
    assert got.total_size == ref.total_size
    assert got.fingerprint() == ref.fingerprint()


def catalogue_of(sizes: list[int]) -> Catalogue:
    return make_catalogue(sizes, pattern="f%04d", name="c")


sizes_strategy = st.lists(st.integers(min_value=0, max_value=1000), max_size=40)


def volume_for(sizes: list[int], pick: int) -> int:
    """0, the whole total, past it, or something inside."""
    total = sum(sizes)
    return [0, total, total + 1 + pick, pick % (total + 1)][pick % 4]


class TestSlicesMatchOracle:
    @given(sizes_strategy, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_head_by_volume(self, sizes, pick):
        cat = catalogue_of(sizes)
        volume = volume_for(sizes, pick)
        assert_same(cat.head_by_volume(volume), oracle_head(cat, volume))

    @given(sizes_strategy, st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80)
    def test_sample_by_volume(self, sizes, pick, seed):
        cat = catalogue_of(sizes)
        volume = volume_for(sizes, pick)
        got = cat.sample_by_volume(volume, RngStream(seed))
        assert_same(got, oracle_sample(cat, volume, RngStream(seed), set()))
        if volume == 0:
            assert len(got) == 0
        if volume > cat.total_size:
            assert len(got) == len(cat)

    @given(sizes_strategy, st.lists(st.integers(min_value=0, max_value=800),
                                    min_size=1, max_size=5),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_chained_exclusions(self, sizes, volumes, seed):
        cat = catalogue_of(sizes)
        taken = np.zeros(len(cat), dtype=bool)
        taken_paths: set[str] = set()
        for i, volume in enumerate(volumes):
            got = cat.sample_by_volume(volume, RngStream(seed + i), exclude=taken)
            want = oracle_sample(cat, volume, RngStream(seed + i), taken_paths)
            assert_same(got, want)
            assert not taken[got.positions].any()
            taken[got.positions] = True
            taken_paths.update(f.path for f in want)
            assert_same(got.head_by_volume(volume // 2),
                        oracle_head(want, volume // 2))
        assert int(taken.sum()) == len(taken_paths)

    @given(sizes_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_partition_volumes(self, sizes, n_parts):
        cat = catalogue_of(sizes)
        got = cat.partition_volumes(n_parts)
        want = oracle_partition(cat, n_parts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)

    def test_filter_and_sorted_by_size(self):
        cat = catalogue_of([30, 10, 20, 10, 0])
        assert_same(cat.filter(lambda f: f.size >= 20),
                    Oracle([cat[0], cat[2]], "c[filtered]"))
        for descending in (False, True):
            want = sorted(cat, key=lambda f: (f.size, f.path), reverse=descending)
            assert_same(cat.sorted_by_size(descending=descending),
                        Oracle(want, "c[by-size]"))


class TestSlicePositions:
    def test_positions_index_the_parent(self):
        cat = catalogue_of(list(range(1, 60)))
        sample = cat.sample_by_volume(400, RngStream(2))
        assert [cat[i] for i in sample.positions] == list(sample)
        assert np.array_equal(cat.positions, np.arange(len(cat)))
        head = sample.head_by_volume(100)
        assert np.array_equal(head.positions, np.arange(len(head)))
        parts = cat.partition_volumes(3)
        assert np.array_equal(np.concatenate([p.positions for p in parts]),
                              np.arange(len(cat)))

    @pytest.mark.parametrize("indices", [[0, 0], [-1], [5], [3, 1, 3]])
    def test_take_rejects_bad_positions(self, indices):
        with pytest.raises(ValueError, match="slice positions"):
            catalogue_of([1, 2, 3, 4, 5])._take(indices, "bad")

    @pytest.mark.parametrize("exclude", [{"f0000"}, np.zeros(4, dtype=bool),
                                         np.zeros(5, dtype=int)])
    def test_exclude_must_be_a_mask_over_the_catalogue(self, exclude):
        with pytest.raises(ValueError, match="boolean mask"):
            catalogue_of([1, 2, 3, 4, 5]).sample_by_volume(3, RngStream(1),
                                                           exclude=exclude)

    @pytest.mark.parametrize("n", [10, 1_000, 126_000])
    def test_array_shuffle_draws_the_list_permutation(self, n):
        """Vectorised sampling relies on this: same length, same permutation."""
        as_list = list(range(n))
        RngStream(7).shuffle(as_list)
        as_array = np.arange(n)
        RngStream(7).shuffle(as_array)
        assert as_array.tolist() == as_list


# -- segments sized by the packer ----------------------------------------------


def assert_segments_sized(units) -> int:
    segments = [u for u in units if isinstance(u, Segment)]
    for seg in segments:
        assert type(seg.size) is int
        assert seg.size == sum(m.size for m in seg.members)
    return len(segments)


class TestSegmentsSizedByPacker:
    @pytest.fixture(scope="class")
    def catalogue(self):
        return text_400k_like(scale=1e-3)

    def test_probe_set(self, catalogue):
        ps = build_probe_set(catalogue, 200 * KB, [5 * KB, 10 * KB, 15 * KB, 40 * KB])
        assert sum(assert_segments_sized(ps.variants[s])
                   for s in (5 * KB, 10 * KB, 15 * KB, 40 * KB)) > 0

    @pytest.mark.parametrize("preserve_order", [True, False])
    def test_reshape(self, catalogue, preserve_order):
        plan = reshape(catalogue, 20 * KB, preserve_order=preserve_order)
        assert assert_segments_sized(plan.units) == plan.n_units
        assert plan.units[0].name == "reshaped/unit000000"

    def test_sample_points(self, catalogue):
        campaign, _ = twin_campaign()
        seen: list = []
        measure = campaign.measure

        def recording(units, directory):
            seen.extend(units)
            return measure(units, directory)

        campaign.measure = recording
        collect_sample_points(campaign, catalogue, RngStream(4), n_samples=3,
                              sample_volume=60 * KB, unit_size=10 * KB)
        assert assert_segments_sized(seen) > 0

# -- a probe is priced once ----------------------------------------------------


def twin_campaign(repeats: int = 4) -> tuple[ProbeCampaign, exp_grep.GrepTestbed]:
    tb = exp_grep.make_testbed(seed=5, scale=2e-4, repeats=repeats)
    return tb.campaign, tb


class TestPricedOnce:
    @pytest.mark.parametrize("label", ["orig", 100 * KB])
    def test_measure_equals_repeated_runs(self, label):
        campaign, tb = twin_campaign()
        _, twin = twin_campaign()
        units = build_probe_set(tb.catalogue, 500 * KB, [100 * KB]).variants[label]
        twin_units = build_probe_set(twin.catalogue, 500 * KB,
                                     [100 * KB]).variants[label]
        m = campaign.measure(units, "probes/x")
        twin.volume.store("probes/x")
        direct = tuple(
            twin.service.run(twin.instance, twin_units, twin.workload,
                             storage=twin.volume, directory="probes/x")
            for _ in range(campaign.repeats))
        assert m.values == direct
        assert tb.cloud.now == twin.cloud.now

    def test_charge_after_price_is_run(self):
        _, tb = twin_campaign()
        _, twin = twin_campaign()
        units = tb.catalogue._take(range(20), "first20")
        breakdown = tb.workload.price(units)
        for _ in range(3):
            assert (tb.service.charge(tb.instance, breakdown, tb.workload)
                    == twin.service.run(twin.instance,
                                        twin.catalogue._take(range(20), "first20"),
                                        twin.workload))


# -- the planner trusts a catalogue's unique paths -------------------------------


class TestPlannerTakesCatalogue:
    @pytest.fixture(scope="class")
    def provisioner(self):
        x = np.array([1e5, 1e6, 5e6, 1e7])
        return StaticProvisioner(fit_affine(x, 3.086 + 0.725482e-4 * x))

    @pytest.mark.parametrize("strategy", ["first-fit", "uniform", "hour-pack"])
    def test_catalogue_plan_equals_list_plan(self, provisioner, strategy):
        # A catalogue's bins are index slices holding the files that the
        # packer's layout lists, with the times predicted from its totals.
        cat = html_18mil_like(scale=2e-4)
        deadline = 2 * 3600.0
        got = provisioner.plan(cat, deadline, strategy=strategy)
        sizes = [f.size for f in cat]
        n = provisioner.instances_for(sum(sizes), deadline)
        layouts = {
            "first-fit": lambda: pack_into_n_bins_layout(
                sizes, n_bins=n, capacity=int(provisioner.volume_for(deadline))),
            "uniform": lambda: uniform_layout(sizes, n_bins=n),
            "hour-pack": lambda: first_fit_layout(
                sizes, int(provisioner.volume_for(HOUR))),
        }[strategy]()
        files = list(cat)
        assert all(isinstance(b, Catalogue) for b in got.assignments)
        assert [[id(f) for f in b] for b in got.assignments] == \
               [[id(files[j]) for j in l.indices] for l in layouts]
        assert got.predicted_times == [float(provisioner.predictor.predict(l.used))
                                       for l in layouts]
        assert (got.deadline, got.planning_deadline, got.strategy) == \
               (deadline, deadline, strategy)
