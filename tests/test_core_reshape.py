"""Tests for the reshaper."""

import pytest

from repro.core import reshape
from repro.corpus import text_400k_like
from repro.units import KB
from repro.vfs import Segment


@pytest.fixture()
def catalogue():
    return text_400k_like(scale=1e-3)


class TestReshape:
    def test_volume_conserved(self, catalogue):
        plan = reshape(catalogue, 10 * KB)
        assert plan.total_size == catalogue.total_size

    def test_every_file_appears_once(self, catalogue):
        plan = reshape(catalogue, 10 * KB)
        members = [m.path for u in plan.units for m in u.members]
        assert sorted(members) == sorted(f.path for f in catalogue)

    def test_fewer_units_than_files(self, catalogue):
        plan = reshape(catalogue, 10 * KB)
        assert plan.n_units < len(catalogue)
        assert plan.n_input_files == len(catalogue)

    def test_units_respect_target(self, catalogue):
        plan = reshape(catalogue, 10 * KB)
        for u in plan.units:
            assert u.size <= 10 * KB or len(u.members) == 1  # oversized solo

    def test_none_keeps_original(self, catalogue):
        plan = reshape(catalogue, None)
        assert plan.unit_size is None
        assert plan.n_units == len(catalogue)
        assert not isinstance(plan.units[0], Segment)

    def test_fill_stats(self, catalogue):
        plan = reshape(catalogue, 20 * KB)
        stats = plan.fill_stats()
        assert 0.5 < stats["mean_fill"] <= 1.0
        assert stats["target"] == 20 * KB

    def test_fill_stats_for_orig(self, catalogue):
        assert reshape(catalogue, None).fill_stats()["mean_fill"] is None

    def test_order_preserved_by_default(self, catalogue):
        plan = reshape(catalogue, 10 * KB)
        firsts = [u.members[0].path for u in plan.units]
        # first members of consecutive units are in catalogue order
        assert firsts == sorted(firsts)

    def test_bad_unit_size(self, catalogue):
        with pytest.raises(ValueError):
            reshape(catalogue, 0)

    def test_greedy_mode_fuller_bins(self, catalogue):
        ordered = reshape(catalogue, 10 * KB, preserve_order=True)
        greedy = reshape(catalogue, 10 * KB, preserve_order=False)
        assert greedy.n_units <= ordered.n_units
