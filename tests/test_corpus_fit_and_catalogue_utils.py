"""Tests for catalogue utilities and unit helpers."""

import pytest

from repro.units import fmt_bytes, fmt_seconds
from repro.vfs import Catalogue
from tests.catalogues import make_catalogue


def catalogue_of(sizes):
    return make_catalogue(sizes, pattern="f%04d")


class TestCatalogueUtilities:
    def test_filter(self):
        cat = catalogue_of([10, 2000, 30, 4000])
        big = cat.filter(lambda f: f.size > 100)
        assert [f.size for f in big] == [2000, 4000]

    def test_sorted_by_size(self):
        cat = catalogue_of([30, 10, 20])
        assert [f.size for f in cat.sorted_by_size()] == [10, 20, 30]
        assert [f.size for f in cat.sorted_by_size(descending=True)] == [30, 20, 10]

    def test_sorted_copy_leaves_original(self):
        cat = catalogue_of([30, 10])
        cat.sorted_by_size()
        assert [f.size for f in cat] == [30, 10]

    def test_concat(self):
        a = catalogue_of([1, 2])
        b = make_catalogue([3], pattern="g%d", name="g")
        merged = Catalogue.concat([a, b])
        assert merged.total_size == 6
        assert len(merged) == 3

    def test_concat_duplicate_paths_rejected(self):
        a = catalogue_of([1])
        with pytest.raises(ValueError):
            Catalogue.concat([a, a])


class TestUnitFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(1_500_000) == "1.5 MB"
        assert fmt_bytes(43_000_000_000) == "43 GB"
        assert fmt_bytes(2_500) == "2.5 kB"

    def test_fmt_seconds(self):
        assert fmt_seconds(2.5) == "2.5s"
        assert fmt_seconds(125) == "2m 05s"
        assert fmt_seconds(3725) == "1h 02m 05s"
