"""POS pricing does each file's token work once.

Pricing one bin runs the tagger's ``estimate_work`` and the cost
profile's ``breakdown`` over the same :class:`UnitColumns`; both read
:func:`token_work`, which runs once per columns object.  Its context scale
``max(avg_sentence_words, 1) ** (e-1)`` is memoised per position of a
catalogue's store (a packed layout's too), filled only where a bin asks,
so a file priced under several plans is computed once.  Every memoised
value must be bit-identical to the direct map.
"""

import math

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication, UnitColumns
from repro.apps import postagger
from repro.cloud.service import Workload
from repro.core import WorkflowStage, derived_catalogue, reshape
from repro.corpus import html_18mil_like, text_400k_like
from repro.experiments import exp_pos
from repro.sim.random import RngStream
from repro.units import HOUR, KB
from repro.vfs import Catalogue, Segment, TextStats
from tests.catalogues import make_catalogue

POS = Workload("postag", PosTaggerApplication(), PosCostProfile())


def direct_scale(units) -> np.ndarray:
    """The context scale unit by unit, from each unit's own stats."""
    stats = [u.stats() if isinstance(u, Segment) else u.stats for u in units]
    return np.array([math.pow(max(s.avg_sentence_words, 1.0),
                              postagger.CONTEXT_EXPONENT - 1.0) for s in stats])


def memo_scale(units) -> np.ndarray:
    return UnitColumns(units).per_file("avg_sentence_words", postagger._context_scale)


def test_token_work_runs_once_per_columns(monkeypatch):
    calls = []
    work = postagger._token_work

    def counting(units):
        calls.append(units)
        return work(units)

    monkeypatch.setattr(postagger, "_token_work", counting)
    cat = text_400k_like(scale=2e-4, seed=4)
    columns = UnitColumns(cat)
    POS.app.estimate_work(columns)
    POS.profile.breakdown(columns)
    assert calls == [columns]
    assert postagger.token_work(columns) is postagger.token_work(columns)
    POS.price(cat)
    assert len(calls) == 2            # a new columns object works afresh


def _stage(ratio: float) -> WorkflowStage:
    return WorkflowStage(name="s", workload=None, predictor=None,  # type: ignore[arg-type]
                         output_ratio=ratio)


def _unit_sets():
    corpus = text_400k_like(scale=1e-3, seed=9)
    stage = derived_catalogue(corpus, _stage(0.5), seed_tag="s")
    widths = (0.5, 1.0, 7.25, 18.0, 41.5)
    files = make_catalogue([100 * i for i in range(len(widths))],
                           [TextStats(avg_sentence_words=w) for w in widths],
                           pattern="f%d", name="files")
    return {
        "corpus": corpus,
        "head": corpus.head_by_volume(corpus.total_size // 3),
        "take": corpus.sample_by_volume(corpus.total_size // 4, RngStream(2)),
        "stage": stage,
        "concat": Catalogue.concat([stage, corpus.head_by_volume(50 * KB)]),
        "files": files,
        "segments": reshape(corpus, 20 * KB).units,
    }


@pytest.mark.parametrize("kind", sorted(_unit_sets()))
def test_memoised_scale_is_bit_identical(kind):
    units = _unit_sets()[kind]
    want = direct_scale(list(units))
    first, again = memo_scale(units), memo_scale(units)
    assert len(first) == len(units) > 1
    np.testing.assert_array_equal(first.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(again.view(np.int64), want.view(np.int64))


def test_slice_fills_only_its_positions():
    corpus = html_18mil_like(scale=1e-4, seed=5)
    part = corpus.partition_volumes(4)[2]
    memo_scale(part)
    (memo,) = corpus._store.memos.values()
    filled = np.flatnonzero(~np.isnan(memo))
    np.testing.assert_array_equal(filled, part.positions)
    memo_scale(corpus.head_by_volume(1))    # one more file, nothing else
    assert np.count_nonzero(~np.isnan(memo)) == len(part) + 1


def test_fig8_computes_each_files_scale_once(monkeypatch):
    """At perfbench's pos-deadline scale fig8 prices every file under four
    plans and the probes, yet takes each file's power once."""
    fraction = 0.125
    tb = exp_pos.make_testbed(11, scale=0.87 * fraction)
    calls = []
    power = math.pow

    def counting(x, y):
        calls.append(x)
        return power(x, y)

    monkeypatch.setattr(math, "pow", counting)
    exp_pos.fig8(tb, deadline=HOUR * fraction)
    assert len(tb.catalogue) == 43_500
    assert len(calls) == 43_500
