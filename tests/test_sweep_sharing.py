"""Sweep cells share the immutable corpus and DAG data plane they derive.

Inside :func:`~repro.experiments.sweep.run_sweep` a memo
(:mod:`repro.vfs.memo`) lets every cell reuse one seeded corpus, one set
of stage catalogues per workflow shape and one on-demand baseline per
(shape, seed).  These tests pin the memo's scope, the number of builds
it saves, and that sharing changes no result: rows equal those of
pooled runs, of cells run one at a time with no sweep open, and digests
recorded before the memo existed.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.core import workflow
from repro.corpus import datasets, html_18mil_like, text_400k_like
from repro.dag import fanout_pipeline, linear_pipeline
from repro.experiments import exp_chaos, exp_dag, exp_matrix, exp_spot
from repro.experiments.sweep import Cell, run_sweep
from repro.obs.ledger import capture_runs
from repro.vfs.memo import ByIdentity, shared, sweep_memo


def corpus_is_shared() -> bool:
    """Sweep cell: do two equal corpus calls return the same object?"""
    return html_18mil_like(scale=1e-5, seed=5) is html_18mil_like(1e-5, 5)


def _digest(stats: dict) -> str:
    """Digest of a sweep's rows; its SLO verdicts are pinned elsewhere
    (``tests/test_cli_goldens.py``) and are not JSON."""
    rows = {k: v for k, v in stats.items() if k != "slo"}
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _sorted_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))


class TestMemoScope:
    def test_outside_a_sweep_equal_calls_build_afresh(self):
        assert html_18mil_like(scale=1e-5, seed=5) is not \
            html_18mil_like(scale=1e-5, seed=5)
        assert not corpus_is_shared()

    def test_inside_a_sweep_equal_calls_share(self):
        res = run_sweep([Cell("tests.test_sweep_sharing:corpus_is_shared")]
                        * 2, processes=1)
        assert res.rows == [True, True]

    def test_pool_workers_share_within_their_process(self):
        res = run_sweep([Cell("tests.test_sweep_sharing:corpus_is_shared")]
                        * 2, processes=2)
        assert res.processes == 2 and res.rows == [True, True]

    def test_memo_closed_after_sweep_returns(self):
        run_sweep([Cell("tests.test_sweep_sharing:corpus_is_shared")],
                  processes=1)
        assert not corpus_is_shared()

    def test_memo_closed_after_a_cell_raises(self):
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_sweep([Cell("tests.test_sweep:failing_cell")], processes=1)
        assert not corpus_is_shared()

    def test_nested_memo_restores_the_outer_one(self):
        with sweep_memo():
            outer = shared("k", object)
            with sweep_memo():
                assert shared("k", object) is not outer
            assert shared("k", object) is outer
        assert shared("k", object) is not shared("k", object)

    def test_builders_key_by_argument_values(self):
        with sweep_memo():
            assert text_400k_like(1e-4) is text_400k_like(scale=1e-4,
                                                          seed=2011)
            assert text_400k_like(1e-4) is not text_400k_like(1e-4, seed=1)

    def test_identity_key_holds_and_matches_only_its_object(self):
        a, b = html_18mil_like(1e-5), html_18mil_like(1e-5)
        assert ByIdentity(a) == ByIdentity(a)
        assert ByIdentity(a) != ByIdentity(b)
        assert ByIdentity(a).obj is a


class TestStageData:
    def test_stage_data_matches_the_scheduler_flow(self):
        cat = html_18mil_like(scale=1e-5, seed=3)
        g = fanout_pipeline()
        data = workflow.stage_data(g, cat)
        assert list(data) == [s.name for s in g.stages()]
        assert data["filter"].input is cat
        joined = list(data["tag"].output) + list(data["tokenize"].output)
        assert list(data["aggregate"].input) == joined
        for name, d in data.items():
            assert d.output.total_size == int(
                d.input.total_size * g.stage(name).output_ratio)

    def test_shared_by_catalogue_identity_and_data_signature(self):
        cat = html_18mil_like(scale=1e-5, seed=3)
        twin = html_18mil_like(scale=1e-5, seed=3)
        with sweep_memo():
            first = workflow.stage_data(linear_pipeline(), cat)
            assert workflow.stage_data(linear_pipeline(), cat) is first
            assert workflow.stage_data(linear_pipeline(), twin) is not first
            assert workflow.stage_data(linear_pipeline(keep=0.3),
                                       cat) is not first
            assert workflow.stage_data(fanout_pipeline(), cat) is not first

    def test_data_signature_names_what_derivation_reads(self):
        sig = linear_pipeline().data_signature()
        assert sig[0] == ("filter", 0.4, False, ())
        assert sig[1] == ("extract", 0.95, True, ("filter",))
        assert fanout_pipeline().data_signature()[-1][3] == ("tag",
                                                             "tokenize")


@pytest.fixture(scope="module")
def counted_matrix():
    """One 18-cell ``matrix_sweep(seeds=(11,))``, builds counted."""
    derived, built = Counter(), Counter()
    real_derive = workflow.derived_catalogue
    real_build = datasets._build_catalogue

    def derive(source, stage, seed_tag):
        derived[seed_tag] += 1
        return real_derive(source, stage, seed_tag)

    def build(name, dist, n_files, seed, **kwargs):
        built[(name, n_files, seed)] += 1
        return real_build(name, dist, n_files, seed, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        # Every module that imported the function by name is patched, so
        # a caller that bypasses stage_data is counted too.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "derived_catalogue",
                                None) is real_derive):
                mp.setattr(module, "derived_catalogue", derive)
        mp.setattr(datasets, "_build_catalogue", build)
        _, stats = exp_matrix.matrix_sweep(seeds=(11,))
    return stats, derived, built


class TestSharedWork:
    def test_matrix_derives_each_data_plane_once(self, counted_matrix):
        stats, derived, _ = counted_matrix
        assert sum(len(a["cells"]) for a in stats["stacks"].values()) == 18
        # Two shapes of five stages each: one derivation per stage.
        assert 0 < sum(derived.values()) <= 10

    def test_matrix_builds_its_corpus_once(self, counted_matrix):
        _, _, built = counted_matrix
        assert list(built.values()) == [1]


#: sha256 of ``json.dumps(stats, sort_keys=True)`` without ``stats["slo"]``,
#: recorded before cells shared anything: sharing must never change a cell.
RECORDED_ROWS = {
    "matrix": "a02141d667a0d2a3292eb07e4a59c6c15dffb91d3cb925e5ef6aad9683ee7df4",
    "dag": "e836f940b7e78f5c587b4f2435396fd91cb906395a56a1bca165c49f64dcc8b8",
}


class TestGoldenRows:
    def test_matrix_sweep_rows_bit_identical(self, counted_matrix):
        stats, _, _ = counted_matrix
        assert _digest(stats) == RECORDED_ROWS["matrix"]

    def test_dag_sweep_rows_bit_identical(self):
        _, stats = exp_dag.dag_sweep(seeds=(11,))
        assert _digest(stats) == RECORDED_ROWS["dag"]


class TestRowsEqualEverywhere:
    """Inline, pooled, and one cell at a time with no sweep open."""

    def test_matrix(self):
        kw = {"shapes": ("linear", "fanout"), "regimes": ("calm",),
              "seeds": (11,)}
        _, inline = exp_matrix.matrix_sweep(processes=1, **kw)
        _, pooled = exp_matrix.matrix_sweep(processes=2, **kw)
        assert pooled == inline
        alone = [exp_matrix.run_cell(stack, shape, "calm", seed=11)
                 for stack in exp_matrix.STACKS
                 for shape in ("linear", "fanout")]
        cells = [c for agg in inline["stacks"].values() for c in agg["cells"]]
        assert _sorted_rows(cells) == _sorted_rows(alone)

    def test_dag(self):
        kw = {"backends": ("local", "s3"), "seeds": (11,)}
        _, inline = exp_dag.dag_sweep(processes=1, **kw)
        _, pooled = exp_dag.dag_sweep(processes=2, **kw)
        assert pooled == inline
        alone = [exp_dag.run_cell(backend, shape, seed=11, mode=mode)
                 for backend in ("local", "s3")
                 for shape, mode in (("linear", "concurrent"),
                                     ("fanout", "concurrent"),
                                     ("fanout", "serial"))]
        assert _sorted_rows(inline["cells"]) == _sorted_rows(alone)

    def test_chaos(self):
        names = ["slow-ebs"]
        _, inline = exp_chaos.chaos_sweep(names, seeds=(11,), processes=1)
        _, pooled = exp_chaos.chaos_sweep(names, seeds=(11,), processes=2)
        assert pooled == inline
        alone = [exp_chaos.run_cell(name, resilience=on, seed=11)
                 for name in names for on in (True, False)]
        cells = [c for name in names for side in ("on", "off")
                 for c in inline["scenarios"][name][side]["cells"]]
        assert _sorted_rows(cells) == _sorted_rows(alone)


class TestBaselineRecordedPerSweep:
    def test_identical_sweeps_write_identical_records(self):
        kw = {"shapes": ("linear",), "regimes": ("calm",), "seeds": (11,)}
        labels = []
        for _ in range(2):
            with capture_runs() as ledger:
                exp_matrix.matrix_sweep(["fleet"], **kw)
            labels.append([r.label for r in ledger.records()])
        assert labels[0] == labels[1]
        assert len(labels[0]) == 4
        assert "matrix.baseline.linear" in labels[0]

    def test_identical_spot_sweeps_write_identical_records(self):
        labels = []
        for _ in range(2):
            with capture_runs() as ledger:
                exp_spot.spot_sweep(["calm"], seeds=(11,))
            labels.append([r.label for r in ledger.records()])
        assert labels[0] == labels[1]
        assert len(labels[0]) == 14
        assert labels[0].count("execute_plan") == 1
