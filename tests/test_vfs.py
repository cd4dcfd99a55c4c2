"""Tests for the virtual file system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PosTaggerApplication, UnitColumns
from repro.apps.postagger import token_work
from repro.packing import first_fit_layout
from repro.sim.random import RngStream
from repro.vfs import Catalogue, TextStats, VirtualFile
from tests.catalogues import make_catalogue as build, segment


def vfile(path: str, size: int, seed: int = 1, **stats) -> VirtualFile:
    return VirtualFile(path=path, size=size, stats=TextStats(**stats), content_seed=seed)


def one_file(size: int, **stats) -> Catalogue:
    return build([size], TextStats(**stats))


def tokens(size: int, **stats) -> int:
    return int(token_work(UnitColumns(one_file(size, **stats)))[0][0])


class TestTextStats:
    def test_tokens_scale_with_bytes(self):
        assert tokens(6000, avg_word_len=5.0) == 1000

    def test_markup_discounted(self):
        assert tokens(1000, markup_fraction=0.5) < tokens(1000, markup_fraction=0.0)

    def test_sentences_nonzero_for_nonempty(self):
        app = PosTaggerApplication()
        assert app.estimate_work(UnitColumns(one_file(100))).sentences >= 1
        assert app.estimate_work(UnitColumns(one_file(0))).sentences == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TextStats(avg_word_len=0)
        with pytest.raises(ValueError):
            TextStats(markup_fraction=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["avg_word_len", "avg_sentence_words",
                                       "markup_fraction"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            TextStats(**{field: value})


class TestVirtualFile:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            vfile("a", -1)

    def test_materialize_exact_size(self):
        f = vfile("a.txt", 500, seed=42)
        data = f.materialize()
        assert len(data) == 500

    def test_materialize_deterministic(self):
        f = vfile("a.txt", 300, seed=7)
        assert f.materialize() == f.materialize()

    def test_materialize_seed_sensitivity(self):
        a = vfile("a.txt", 300, seed=1).materialize()
        b = vfile("b.txt", 300, seed=2).materialize()
        assert a != b

    def test_renderer_size_mismatch_rejected(self):
        f = vfile("a.txt", 100)
        with pytest.raises(ValueError):
            f.materialize(renderer=lambda vf: b"short")


class TestSegment:
    def test_size_is_member_sum(self):
        seg = segment(build([100, 50]), [0, 1])
        assert seg.size == 150 and len(seg.members) == 2

    def test_materialize_concatenates(self):
        c = build([40, 30])
        seg = segment(c, [0, 1])
        data = seg.materialize()
        assert data == c[0].materialize() + b"\n" + c[1].materialize()

    def test_empty_segment(self):
        seg = segment(build([0]), [0])
        assert seg.size == 0 and seg.materialize() == b""

    def test_stats_volume_weighted(self):
        c = build([900, 100], [TextStats(avg_sentence_words=10.0),
                               TextStats(avg_sentence_words=30.0)])
        seg = segment(c, [0, 1])
        assert seg.stats().avg_sentence_words == pytest.approx(12.0)


def make_catalogue(sizes):
    return build(sizes, pattern="f%04d")


class TestCatalogue:
    def test_totals(self):
        c = make_catalogue([10, 20, 30])
        assert len(c) == 3
        assert c.total_size == 60
        assert c.max_file_size == 30

    def test_sizes_column_packs_by_index(self):
        c = make_catalogue([12, 5, 9])
        assert c.sizes().tolist() == [12, 5, 9]
        layouts = first_fit_layout(c.sizes().tolist(), capacity=20)
        assert [[c[i].path for i in l.indices] for l in layouts] == [
            ["f0000", "f0001"], ["f0002"]]

    def test_duplicate_paths_rejected(self):
        c = make_catalogue([1, 2])
        with pytest.raises(ValueError):
            Catalogue.concat([c, c._take([1], "again")])

    def test_head_by_volume(self):
        c = make_catalogue([10, 20, 30, 40])
        h = c.head_by_volume(25)
        assert [f.size for f in h] == [10, 20]

    def test_head_by_volume_exact_boundary(self):
        c = make_catalogue([10, 20, 30])
        assert [f.size for f in c.head_by_volume(30)] == [10, 20]

    def test_head_by_volume_overshoot(self):
        c = make_catalogue([10, 20])
        assert len(c.head_by_volume(10**9)) == 2

    def test_head_by_volume_nonpositive(self):
        assert len(make_catalogue([5]).head_by_volume(0)) == 0

    def test_sample_by_volume_reaches_target(self):
        c = make_catalogue([100] * 50)
        s = c.sample_by_volume(1000, RngStream(3))
        assert s.total_size >= 1000
        assert s.total_size <= 1100  # at most one extra file

    def test_sample_without_replacement_exclusion(self):
        c = make_catalogue([100] * 10)
        s1 = c.sample_by_volume(300, RngStream(3))
        taken = np.zeros(len(c), dtype=bool)
        taken[s1.positions] = True
        s2 = c.sample_by_volume(300, RngStream(4), exclude=taken)
        assert not ({f.path for f in s1} & {f.path for f in s2})

    @pytest.mark.parametrize("arrange", ["concat", "by-size"])
    def test_sample_keeps_catalogue_order(self, arrange):
        a = build([100 + i for i in range(20)], pattern="a/%02d", name="a")
        z = build([10 + i for i in range(20)], pattern="z/%02d", name="z")
        if arrange == "concat":
            c = Catalogue.concat([z, a])
        else:
            c = Catalogue.concat([a, z]).sorted_by_size()
        position = {f.path: i for i, f in enumerate(c)}
        everything = c.sample_by_volume(c.total_size, RngStream(5))
        assert [f.path for f in everything] == [f.path for f in c]
        part = [position[f.path] for f in c.sample_by_volume(900, RngStream(5))]
        assert part == sorted(part) and len(part) > 1

    def test_sample_deterministic(self):
        c = make_catalogue([100] * 30)
        a = [f.path for f in c.sample_by_volume(500, RngStream(9))]
        b = [f.path for f in c.sample_by_volume(500, RngStream(9))]
        assert a == b

    def test_partition_volumes_conserves(self):
        c = make_catalogue([10, 20, 30, 40, 50])
        parts = c.partition_volumes(3)
        assert len(parts) == 3
        assert sum(p.total_size for p in parts) == c.total_size

    def test_size_histogram_counts(self):
        c = make_catalogue([5, 15, 15, 25])
        edges, counts = c.size_histogram(bin_width=10)
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 1

    def test_size_histogram_max_size_filter(self):
        c = make_catalogue([5, 500])
        _, counts = c.size_histogram(bin_width=10, max_size=100)
        assert counts.sum() == 1

    def test_size_histogram_bad_width(self):
        with pytest.raises(ValueError):
            make_catalogue([1]).size_histogram(0)

    def test_describe(self):
        d = make_catalogue([10, 30]).describe()
        assert d["files"] == 2 and d["total"] == 40 and d["max"] == 30

    def test_empty_catalogue(self):
        c = make_catalogue([])
        assert c.total_size == 0 and c.max_file_size == 0
        assert c.describe()["files"] == 0

    @given(st.lists(st.integers(min_value=1, max_value=1000), max_size=30),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60)
    def test_head_by_volume_is_minimal_prefix(self, sizes, vol):
        c = make_catalogue(sizes)
        h = c.head_by_volume(vol)
        if h.total_size < vol:
            assert len(h) == len(c)  # exhausted
        elif len(h) > 0:
            # dropping the last file would fall below the target
            assert h.total_size - h[len(h) - 1].size < vol
