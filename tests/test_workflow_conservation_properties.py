"""Property tests: stage-chaining volume accounting conserves bytes.

The DAG scheduler trusts that the bytes :meth:`TextWorkflow.stage_volumes`
*predicts* for a stage are exactly the bytes :func:`derived_catalogue`
*materialises* for it — through linear chains, fan-out broadcasts and
fan-in sums alike.  These properties pin that contract so predicted and
actual volumes can never drift apart (the old per-file truncation leaked
up to a byte per file and compounded per stage).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Workload
from repro.core import WorkflowStage, derived_catalogue
from repro.dag import WorkflowGraph
from repro.perfmodel.regression import fit_affine
from tests.catalogues import make_catalogue


def _predictor():
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, 0.1 + 1e-8 * x)


def _stage(name, ratio):
    return WorkflowStage(
        name=name,
        workload=Workload("grep", GrepApplication(), GrepCostProfile()),
        predictor=_predictor(), output_ratio=ratio)


def _catalogue(sizes):
    return make_catalogue(sizes, pattern="f%d.html", name="prop")


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=10**7), min_size=1, max_size=40)
ratio_strategy = st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False, allow_infinity=False)


class TestDerivedCatalogueConservation:
    @given(sizes_strategy, ratio_strategy)
    @settings(max_examples=120, deadline=4000)
    def test_total_is_exactly_the_predicted_output(self, sizes, ratio):
        src = _catalogue(sizes)
        out = derived_catalogue(src, _stage("s", ratio), seed_tag="s")
        assert out.total_size == int(src.total_size * ratio)

    @given(sizes_strategy, ratio_strategy)
    @settings(max_examples=60, deadline=4000)
    def test_no_negative_or_phantom_files(self, sizes, ratio):
        src = _catalogue(sizes)
        out = derived_catalogue(src, _stage("s", ratio), seed_tag="s")
        assert all(f.size > 0 for f in out)
        assert len(out) <= len(src)

    @given(sizes_strategy,
           st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1,
                    max_size=4))
    @settings(max_examples=60, deadline=4000)
    def test_chained_ratios_conserve_through_every_hop(self, sizes, ratios):
        """Stage-N materialised input == stage-(N-1) materialised output,
        and both equal the workflow's stage_volumes prediction."""
        g = WorkflowGraph()
        prev = None
        for i, r in enumerate(ratios):
            g.add_stage(_stage(f"s{i}", r), after=[prev] if prev else None)
            prev = f"s{i}"
        cat = _catalogue(sizes)
        predicted = g.stage_volumes(cat.total_size)
        cur = cat
        for i, _ in enumerate(ratios):
            assert cur.total_size == predicted[f"s{i}"]
            cur = derived_catalogue(cur, g.stage(f"s{i}"), seed_tag=f"s{i}")

    @given(sizes_strategy, ratio_strategy, ratio_strategy)
    @settings(max_examples=60, deadline=4000)
    def test_fan_out_fan_in_does_not_double_count(self, sizes, ra, rb):
        """A broadcast producer feeds both branches its full output; the
        fan-in consumes exactly the sum of the branch outputs."""
        g = WorkflowGraph()
        g.add_stage(_stage("src", 1.0))
        g.add_stage(_stage("a", ra), after=["src"])
        g.add_stage(_stage("b", rb), after=["src"])
        g.add_stage(_stage("join", 1.0), after=["a", "b"])
        cat = _catalogue(sizes)
        predicted = g.stage_volumes(cat.total_size)
        src_out = derived_catalogue(cat, g.stage("src"), seed_tag="src")
        # broadcast: both branches see the same (full) producer output
        assert predicted["a"] == src_out.total_size
        assert predicted["b"] == src_out.total_size
        out_a = derived_catalogue(src_out, g.stage("a"), seed_tag="a")
        out_b = derived_catalogue(src_out, g.stage("b"), seed_tag="b")
        # fan-in: the join's input is the exact sum, no bytes made or lost
        assert predicted["join"] == out_a.total_size + out_b.total_size

    @given(sizes_strategy, ratio_strategy)
    @settings(max_examples=30, deadline=4000)
    def test_deterministic(self, sizes, ratio):
        src = _catalogue(sizes)
        a = derived_catalogue(src, _stage("s", ratio), seed_tag="s")
        b = derived_catalogue(src, _stage("s", ratio), seed_tag="s")
        assert [(f.path, f.size, f.content_seed) for f in a] == \
               [(f.path, f.size, f.content_seed) for f in b]
