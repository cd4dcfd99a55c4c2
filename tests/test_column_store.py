"""Catalogues store columns; file and segment objects are views built on access.

A catalogue is a column store shared by all its slices plus the store
positions it holds.  A ``VirtualFile`` view (a ``Segment`` view, for a
packed layout) is built the first time a position is read and cached, so
the same position always yields the same object, through the catalogue,
its slices, the segments packed from it and the bins planned from it.
Sizing, packing, planning and pricing read the columns only: the timed
paths of the benchmark's three workloads build no view at all.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps import UnitColumns
from repro.core import StaticProvisioner, WorkflowStage, derived_catalogue, reshape
from repro.corpus import html_18mil_like, text_400k_like
from repro.experiments import exp_grep, exp_matrix, exp_pos
from repro.obs.ledger import capture_runs
from repro.perfmodel import build_probe_set
from repro.perfmodel.regression import fit_affine
from repro.sim.random import RngStream, stable_seed
from repro.units import HOUR, KB
from repro.vfs import Catalogue, TextStats, VirtualFile
from repro.vfs import files as vfs_files
from tests.catalogues import make_catalogue, pack
from tests.reference_segments import segment_stats


@pytest.fixture
def views_built(monkeypatch):
    """A list that grows by one ``(store, position)`` entry per view built,
    file views and segment views alike."""
    built: list[tuple] = []
    for cls in (vfs_files._Store, vfs_files._PackedStore):
        def counting(store, positions, build=cls.__dict__["_build"]):
            built.extend((store, p) for p in positions)
            return build(store, positions)

        monkeypatch.setattr(cls, "_build", counting)
    return built


# -- no timed path builds a view ---------------------------------------------


class TestTimedPathsBuildNoView:
    def test_grep_fig4_and_fig6(self, views_built):
        tb = exp_grep.make_testbed(seed=5, scale=1e-3)
        with capture_runs():
            exp_grep.fig4(tb)
            exp_grep.fig6(tb, n_devices=10)
        assert views_built == []

    def test_pos_fig8(self, views_built):
        fraction = 1 / 32
        tb = exp_pos.make_testbed(11, scale=0.87 * fraction)
        with capture_runs():
            _, out = exp_pos.fig8(tb, deadline=HOUR * fraction)
        assert views_built == []
        plan = out["variants"]["8a_first_fit_model3"]["plan"]
        assert all(isinstance(b, Catalogue) for b in plan.assignments)

    def test_matrix_cell_on_the_fanout_shape(self, views_built):
        with capture_runs():
            _, stats = exp_matrix.matrix_sweep(
                ["spot-lease"], shapes=("fanout",), regimes=("eviction-storm",),
                seeds=(11,), processes=1)
        assert views_built == []
        assert stats["stacks"]["spot-lease"]["cells"][0]["bins"] > 0


# -- one object per position ----------------------------------------------------


def _stage(name, ratio, strips=False):
    return WorkflowStage(name=name, workload=None, predictor=None,
                         output_ratio=ratio, strips_markup=strips)


def _catalogues():
    corpus = html_18mil_like(scale=1e-4, seed=3)
    stage = derived_catalogue(corpus, _stage("x", 0.5, strips=True), seed_tag="x")
    other = derived_catalogue(corpus, _stage("y", 0.25), seed_tag="y")
    files = make_catalogue([10 + i for i in range(20)], name="files")
    packed = reshape(corpus, 30 * KB).units
    return {"corpus": corpus, "stage": stage, "files": files, "packed": packed,
            "concat": Catalogue.concat([stage, other, files, packed], name="cat")}


@pytest.mark.parametrize("kind", ["corpus", "stage", "files", "packed", "concat"])
def test_a_position_is_one_object(kind, views_built):
    cat = _catalogues()[kind]
    n = len(cat)
    assert cat[0] is cat[0] and cat[n - 1] is cat[-1]
    assert list(cat) == list(cat.files) and all(
        a is b for a, b in zip(cat, cat.files))
    built = len(views_built)
    assert built > 0                   # every store builds its views on read
    list(cat)
    assert len(views_built) == built   # cached, not rebuilt


@pytest.mark.parametrize("kind", ["corpus", "stage", "files", "packed", "concat"])
def test_slices_hold_the_parents_views(kind):
    cat = _catalogues()[kind]
    parent = list(cat)
    slices = [cat.head_by_volume(cat.total_size // 3),
              cat.sample_by_volume(cat.total_size // 2, RngStream(4)),
              cat.sorted_by_size(), cat.sorted_by_size(descending=True),
              cat.filter(lambda f: f.size % 2 == 0),
              *cat.partition_volumes(3)]
    for part in slices:
        held = [parent[i] for i in part.positions]
        assert all(a is b for a, b in zip(part, held, strict=True))
        nested = part.head_by_volume(part.total_size // 2)
        assert all(a is b for a, b in zip(nested, part))


def test_segments_and_plan_bins_hold_the_parents_views():
    cat = text_400k_like(scale=1e-3)
    parent = {id(f) for f in cat}
    plan = reshape(cat, 20 * KB)
    assert {id(m) for u in plan.units for m in u.members} == parent
    probes = build_probe_set(cat, 200 * KB, [5 * KB, 40 * KB])
    head = probes.variants["orig"]
    for s in (5 * KB, 40 * KB):
        assert sorted(id(m) for u in probes.variants[s] for m in u.members) == \
               sorted(id(f) for f in head)
    x = np.array([1e4, 1e5, 1e6])
    provisioner = StaticProvisioner(fit_affine(x, 0.5 + 1e-4 * x))
    bins = provisioner.plan(cat, 3600.0, strategy="uniform").assignments
    assert [id(f) for b in bins for f in b] == [id(f) for f in cat]
    assert sum(len(b) for b in bins) == len(cat)


def test_concat_holds_the_parts_views():
    parts = _catalogues()
    stage, files, corpus = parts["stage"], parts["files"], parts["corpus"]
    both = Catalogue.concat([stage, files], name="both")
    assert all(a is b for a, b in zip(both, [*stage, *files], strict=True))
    nested = Catalogue.concat([both, corpus])
    assert all(a is b for a, b in zip(nested, [*stage, *files, *corpus], strict=True))


# -- views equal the constructors' files ------------------------------------------


def _oracle(view: VirtualFile) -> VirtualFile:
    return VirtualFile(path=view.path, size=view.size,
                       stats=TextStats(view.stats.avg_word_len,
                                       view.stats.avg_sentence_words,
                                       view.stats.markup_fraction),
                       content_seed=view.content_seed)


def test_stage_views_continue_their_parents():
    corpus = html_18mil_like(scale=1e-4, seed=3)
    first = derived_catalogue(corpus, _stage("a", 0.5), seed_tag="a")
    second = derived_catalogue(Catalogue.concat([first, corpus], name="in"),
                               _stage("b", 0.5, strips=True), seed_tag="b")
    by_path = {f"b/{p.path}": p for p in [*first, *corpus]}
    assert len(second) > 0
    for view in second:
        parent = by_path[view.path]
        assert view.content_seed == stable_seed(parent.content_seed, "b")
        assert view.stats == dataclasses.replace(parent.stats, markup_fraction=0.0)
        oracle = _oracle(view)
        assert view == oracle and hash(view) == hash(oracle)
        assert repr(view) == repr(oracle)
        assert pickle.dumps(view) == pickle.dumps(oracle)


def test_store_segments_equal_member_segments():
    # Two packs of one catalogue hold equal segments over the same views,
    # with the stats of the per-member loop.
    cat = text_400k_like(scale=1e-3)
    first, again = reshape(cat, 20 * KB).units, reshape(cat, 20 * KB).units
    for i in range(min(50, len(first))):
        seg, built = first[i], again[i]
        assert seg is not built
        assert seg == built and hash(seg) == hash(built) and repr(seg) == repr(built)
        assert pickle.loads(pickle.dumps(seg)) == built
        assert seg.size == built.size and len(seg.members) == len(built.members)
        assert [v.hex() for v in dataclasses.astuple(seg.stats())] == \
               [v.hex() for v in dataclasses.astuple(segment_stats(built.members))]


def test_store_segment_stats_read_no_view(views_built):
    cat = text_400k_like(scale=1e-3)
    units = reshape(cat, 20 * KB).units
    [u.stats() for u in units]
    # Only the segment views themselves are built, never a member's.
    assert [store for store, _ in views_built] == [units._store] * len(units)
    del views_built[:]
    UnitColumns(pack(cat, [[0, 1], [2]])).avg_sentence_words
    assert views_built == []
    assert len(units[0].members) > 1


def test_catalogue_units_price_like_their_files():
    cat = html_18mil_like(scale=1e-4, seed=3).sample_by_volume(5_000_000, RngStream(1))
    columns, files = UnitColumns(cat), list(cat)
    np.testing.assert_array_equal(columns.size, [f.size for f in files])
    for name in ("avg_word_len", "avg_sentence_words", "markup_fraction"):
        listed = np.array([getattr(f.stats, name) for f in files])
        assert getattr(columns, name).tobytes() == listed.tobytes()
