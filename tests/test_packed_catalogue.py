"""A packed layout is one catalogue: a row per non-empty bin, a segment view per row.

The row's stat columns are computed from the source catalogue's columns
and must equal the per-member loop (:mod:`tests.reference_segments`) bit
for bit, whatever the source is: a corpus, a head, a sample, a stage's
output or a concatenation, with 0-byte files, 0-byte bins and one-file
bins among them.  A row's segment is built once, its members are the
source catalogue's own views, and both pickle.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkflowStage, derived_catalogue, reshape
from repro.corpus import text_400k_like
from repro.packing import BinLayout
from repro.sim.random import RngStream
from repro.units import KB
from repro.vfs import Catalogue, Segment, TextStats
from tests.catalogues import make_catalogue, pack
from tests.reference_segments import segment_stats

_FIELDS = ("avg_word_len", "avg_sentence_words", "markup_fraction")

stats_strategy = st.builds(
    TextStats,
    avg_word_len=st.floats(min_value=0.5, max_value=20.0),
    avg_sentence_words=st.floats(min_value=0.1, max_value=80.0),
    markup_fraction=st.floats(min_value=0.0, max_value=0.95),
)
files_strategy = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(min_value=0, max_value=5_000)),
              stats_strategy),
    min_size=1, max_size=40)


def _source(kind: str, files: list, data) -> Catalogue:
    cat = make_catalogue([s for s, _ in files], [t for _, t in files], name="src")
    if kind == "head":
        return cat.head_by_volume(data.draw(st.integers(0, cat.total_size + 1)))
    if kind == "sample":
        seed = data.draw(st.integers(0, 2**16))
        return cat.sample_by_volume(data.draw(st.integers(0, cat.total_size)),
                                    RngStream(seed))
    if kind == "stage":
        stage = WorkflowStage(name="st", workload=None, predictor=None,  # type: ignore[arg-type]
                              output_ratio=data.draw(st.floats(0.0, 1.0)),
                              strips_markup=data.draw(st.booleans()))
        return derived_catalogue(cat, stage, seed_tag="st")
    if kind == "concat":
        other = make_catalogue([7, 0, 300], TextStats(avg_sentence_words=31.5),
                               pattern="o/%d", name="other")
        return Catalogue.concat([cat, other], name="both")
    return cat


def _bins(n: int, data) -> list[list[int]]:
    """The positions ``0..n-1`` shuffled and cut into bins of 1-12 (numpy
    sums eight or more terms in another order than ``sum()``)."""
    order = data.draw(st.permutations(range(n)))
    bins: list[list[int]] = []
    while order:
        k = data.draw(st.integers(1, 12))
        bins.append(list(order[:k]))
        order = order[k:]
    return bins


@given(files_strategy, st.sampled_from(["corpus", "head", "sample", "stage", "concat"]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_packed_stats_equal_the_member_loop_bit_for_bit(files, kind, data):
    source = _source(kind, files, data)
    bins = _bins(len(source), data)
    packed = pack(source, bins)
    views = list(source)
    assert len(packed) == len(bins)
    assert packed.sizes().tolist() == [sum(views[j].size for j in b) for b in bins]
    columns = packed._stat_columns()
    for row, b in enumerate(bins):
        want = segment_stats([views[j] for j in b])
        got = np.array([c[row] for c in columns])
        assert got.view(np.int64).tolist() == \
            np.array([getattr(want, f) for f in _FIELDS]).view(np.int64).tolist()
        seg = packed[row]
        assert seg.stats() == want


def test_empty_bins_are_skipped_but_numbered():
    cat = make_catalogue([0, 0, 5])
    packed = cat._packed([BinLayout(None, [], 0), BinLayout(None, [0, 1], 0),
                          BinLayout(None, [], 0), BinLayout(None, [2], 5)],
                         "u", digits=2)
    assert packed.paths() == ["u/unit01", "u/unit03"]
    assert packed.sizes().tolist() == [0, 5]
    assert packed[0].stats() == TextStats()          # a 0-byte bin has the defaults
    assert packed[0].materialize() == b"\n"          # two empty members, joined


def test_a_row_is_one_segment_over_the_sources_views():
    cat = text_400k_like(scale=1e-3)
    head = cat.head_by_volume(cat.total_size // 2)
    packed = reshape(head, 20 * KB).units
    views = [head[j] for j in range(len(head))]
    for i in range(len(packed)):
        seg = packed[i]
        assert seg is packed[i] and seg is packed[i - len(packed)]
        assert isinstance(seg, Segment)
    # Every member is one of the source's own views, each held once.
    members = [m for seg in packed for m in seg.members]
    assert sorted(map(id, members)) == sorted(map(id, views))
    assert all(m is f for m, f in zip(members, head._views(
        [j for b in packed._store.indices for j in b])))


@pytest.mark.parametrize("unit", [20 * KB, 200 * KB])
def test_packed_catalogue_and_segment_pickle(unit):
    packed = reshape(text_400k_like(scale=1e-3), unit).units
    again = pickle.loads(pickle.dumps(packed))
    assert list(again) == list(packed)
    assert again.sizes().tolist() == packed.sizes().tolist()
    assert again.paths() == packed.paths()
    assert [c.tobytes() for c in again._stat_columns()] == \
           [c.tobytes() for c in packed._stat_columns()]
    seg = packed[len(packed) // 2]
    copy = pickle.loads(pickle.dumps(seg))
    assert copy == seg and hash(copy) == hash(seg) and repr(copy) == repr(seg)
    assert copy.size == seg.size and copy.stats() == seg.stats()
    assert copy.materialize() == seg.materialize()
