"""A run of consecutive files is a view of its catalogue's columns.

``Catalogue._take(range(a, b))`` must equal ``_take(list(range(a, b)))`` in
everything the program reads, while sharing the parent's size column;
uniform bins, volume partitions and the runners' probe chunks and batches
are such runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.cloud.failures import FailureModel
from repro.core import StaticProvisioner, derived_catalogue
from repro.corpus import html_18mil_like, text_400k_like
from repro.packing import uniform_layout
from repro.perfmodel.regression import fit_affine
from repro.runner import (
    DynamicPolicy,
    FaultPolicy,
    execute_fault_tolerant,
    execute_with_monitoring,
)
from repro.runner.core import _split_point
from repro.sim.random import RngStream
from repro.vfs import Catalogue
from repro.vfs import files as vfs_files
from tests.test_catalogue_slices import assert_same, catalogue_of, sizes_strategy
from tests.test_core_workflow import grep_stage
from tests.reference_runners import _split_point as loop_split_point
from tests.reference_runners import (
    execute_fault_tolerant_reference,
    execute_with_monitoring_reference,
)
from tests.test_dynamic_hour_boundary import Scripted
from tests.test_runner_core_differential import assert_ledgers_equal, assert_reports_equal

_STATS = ("avg_word_len", "avg_sentence_words", "markup_fraction")


def assert_run_equals_list(cat: Catalogue, a: int, b: int) -> Catalogue:
    got = cat._take(range(a, b), "run")
    want = cat._take(list(range(a, b)), "run")
    assert_same(got, want)
    assert got.positions.dtype == want.positions.dtype
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got._store_positions(), want._store_positions())
    for field in _STATS:
        assert np.array_equal(got.stat_map(field, np.sqrt), want.stat_map(field, np.sqrt))
    for g, w in zip(got._stat_columns(), want._stat_columns()):
        assert np.array_equal(g, w)
    if len(got):
        assert np.shares_memory(got.sizes(), cat.sizes())
    return got


def bounds(data, n: int) -> tuple[int, int]:
    a = data.draw(st.integers(min_value=0, max_value=n))
    return a, data.draw(st.integers(min_value=a, max_value=n))


class TestRunEqualsIndexList:
    @given(sizes_strategy, st.data())
    @settings(max_examples=80)
    def test_files(self, sizes, data):
        cat = catalogue_of(sizes)
        assert_run_equals_list(cat, *bounds(data, len(cat)))

    @given(sizes_strategy)
    @settings(max_examples=30)
    def test_empty_and_full(self, sizes):
        cat = catalogue_of(sizes)
        for a, b in [(0, 0), (len(cat), len(cat)), (0, len(cat))]:
            assert_run_equals_list(cat, a, b)

    @given(sizes_strategy, st.integers(min_value=0, max_value=20_000),
           st.integers(min_value=0, max_value=2**32), st.data())
    @settings(max_examples=60)
    def test_head_and_sample(self, sizes, volume, seed, data):
        cat = catalogue_of(sizes)
        for part in (cat.head_by_volume(volume),
                     cat.sample_by_volume(volume, RngStream(seed))):
            run = assert_run_equals_list(part, *bounds(data, len(part)))
            # A run of a run indexes the same store positions.
            assert_run_equals_list(run, *bounds(data, len(run)))

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 40), (17, 93), (60, None)])
    def test_stage_and_concat(self, a, b):
        source = html_18mil_like(scale=2e-5, seed=3)
        stage = derived_catalogue(source, grep_stage(), "t")
        joined = Catalogue.concat([source.head_by_volume(source.total_size // 2),
                                   stage], name="joined")
        for cat in (stage, joined):
            assert_run_equals_list(cat, a, len(cat) if b is None else b)

    @pytest.mark.parametrize("indices", [range(1, 4), range(-1, 1)])
    def test_out_of_bounds_range_is_still_checked(self, indices):
        with pytest.raises(ValueError, match="slice positions"):
            catalogue_of([1, 2, 3])._take(indices, "bad")

    def test_other_ranges_are_index_lists(self):
        cat = catalogue_of([1, 2, 3])
        assert cat._take(range(2, -1, -2), "odd").positions.tolist() == [2, 0]


class TestUniformRuns:
    @given(sizes_strategy, st.integers(min_value=1, max_value=9))
    @settings(max_examples=80)
    def test_column_and_list_give_equal_bins(self, sizes, n_bins):
        from_list = uniform_layout(sizes, n_bins)
        from_column = uniform_layout(np.array(sizes, dtype=np.int64), n_bins)
        assert [(l.capacity, l.used, list(l.indices)) for l in from_list] == \
               [(l.capacity, l.used, list(l.indices)) for l in from_column]

    def test_plan_bins_share_the_catalogue_column(self):
        cat = text_400k_like(scale=1e-3)
        x = np.array([1e5, 1e6, 5e6])
        plan = StaticProvisioner(fit_affine(x, 0.3 + 0.8e-4 * x)).plan(
            cat, 30.0, strategy="uniform")
        assert plan.n_instances > 1
        for b in plan.assignments:
            assert np.shares_memory(b.sizes(), cat.sizes())
        assert np.array_equal(np.concatenate([b.positions for b in plan.assignments]),
                              np.arange(len(cat)))

    @given(sizes_strategy, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40)
    def test_segments_over_runs(self, sizes, n_bins):
        cat = catalogue_of(sizes)
        runs = uniform_layout(cat.sizes(), n_bins)
        lists = [dataclasses.replace(l, indices=list(l.indices)) for l in runs]
        got = cat._packed(runs, "u", digits=3)
        want = cat._packed(lists, "u", digits=3)
        assert list(got) == list(want)
        for g, w in zip(got, want):
            assert g.size == w.size and len(g.members) == len(w.members)
            assert g.stats() == w.stats()
            assert all(m is n for m, n in zip(g.members, w.members))


# -- runners cut catalogue bins as runs -----------------------------------------


@given(sizes_strategy, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_split_point_is_the_loops(sizes, fraction):
    cat = catalogue_of(sizes)
    want = loop_split_point(list(cat), fraction)
    assert _split_point(cat, fraction) == want


def pos_plan(scale: float, deadline: float):
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.327 + 0.865e-4 * x)
    plan = StaticProvisioner(model).plan(text_400k_like(scale=scale), deadline,
                                         strategy="uniform")
    listed = dataclasses.replace(plan, assignments=[list(b) for b in plan.assignments])
    return plan, listed


def count_views(monkeypatch) -> list[int]:
    built = [0]
    build = vfs_files._Store._build

    def counting(store, positions):
        built[0] += len(positions)
        return build(store, positions)

    monkeypatch.setattr(vfs_files._Store, "_build", counting)
    return built


WORKLOAD = Workload("postag", PosTaggerApplication(), PosCostProfile())


class TestRunnersCutRuns:
    """A catalogue bin runs as the reference loops ran its list of views."""

    @pytest.mark.parametrize("replace_at", ["immediately", "hour-boundary"])
    def test_straggler_runs_equal_the_reference_loop(self, monkeypatch, replace_at):
        # Bins of about 0.4 h: an hour-boundary hand-over falls mid-bin.
        plan, listed = pos_plan(0.05, 2500.0)
        policy = DynamicPolicy(probe_fraction=0.2, slow_threshold=0.7,
                               replace_at=replace_at)
        slow = 2 * plan.n_instances
        ref_cloud = Cloud(seed=3, heterogeneity=Scripted(slow))
        want, want_events = execute_with_monitoring_reference(
            ref_cloud, WORKLOAD, listed, policy=policy)
        built = count_views(monkeypatch)
        cloud = Cloud(seed=3, heterogeneity=Scripted(slow))
        got, events = execute_with_monitoring(cloud, WORKLOAD, plan, policy=policy)
        assert built[0] == 0
        assert_reports_equal(got, want)
        assert_ledgers_equal(cloud, ref_cloud)
        assert events == want_events
        assert events and all(0 < e.at_progress < 1 for e in events)

    def test_crash_batches_equal_the_reference_loop(self, monkeypatch):
        plan, listed = pos_plan(0.01, 400.0)
        policy = FaultPolicy(batch_units=25, detection_timeout=60.0,
                             replacement_penalty=180.0, max_crashes_per_bin=12)

        def cloud():
            return Cloud(seed=7, failure_model=FailureModel(mtbf_hours=0.08))

        ref_cloud = cloud()
        want, want_events = execute_fault_tolerant_reference(
            ref_cloud, WORKLOAD, listed, policy=policy)
        built = count_views(monkeypatch)
        new_cloud = cloud()
        got, events = execute_fault_tolerant(new_cloud, WORKLOAD, plan, policy=policy)
        assert built[0] == 0
        assert_reports_equal(got, want)
        assert_ledgers_equal(new_cloud, ref_cloud)
        assert events and events == want_events
