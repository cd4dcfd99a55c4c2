"""Corpus and stage catalogues are column stores built from checked columns.

The oracles below are the per-object builds the column stores replace:
every file went through the ``TextStats`` and ``VirtualFile``
constructors (each re-checking its own fields), every content seed
through ``stable_seed``, and the catalogue was the list of files.
The views a column store builds on access must equal the oracle's files
in everything the program reads: each file's fields and their types,
``==``, ``hash``, ``repr``, pickled bytes, ``dataclasses.replace``, the
size column, the running total and the name.  Bad columns must fail with
the error the per-object checks raise, and the caller's garbage-collector
setting must survive every build.
"""

import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkflowStage, derived_catalogue
from repro.corpus import datasets, html_18mil_like
from repro.corpus.datasets import HTML_18MIL_DIST, TEXT_400K_DIST
from repro.sim.random import RngStream, stable_seed, stable_seeds
from repro.vfs import Catalogue, TextStats, VirtualFile
from tests.catalogues import Files, make_catalogue

# -- oracles: the per-object builds the bulk pass replaces ---------------------


def oracle_build_catalogue(name, dist, n_files, seed, *, html, sentence_mean,
                           sentence_sd, complexity_head_boost=0.0):
    rng = RngStream(seed, name=name)
    sizes = dist.ensure_max_present(dist.sample(rng.fork("sizes"), n_files))
    slens = rng.fork("complexity").normals(sentence_mean, sentence_sd, n_files)
    slens = np.clip(slens, 6.0, 45.0)
    if complexity_head_boost and n_files > 1:
        fade = np.linspace(1.0, 0.0, n_files)
        slens = slens + complexity_head_boost * fade
    width = max(6, len(str(n_files)))
    markup = 0.011 if html else 0.0
    ext = "html" if html else "txt"
    files = [
        VirtualFile(
            path=f"{name}/{i:0{width}d}.{ext}",
            size=int(sizes[i]),
            stats=TextStats(avg_word_len=7.1, avg_sentence_words=float(slens[i]),
                            markup_fraction=markup),
            content_seed=stable_seed(seed, f"{name}/{i}"),
        )
        for i in range(n_files)
    ]
    return Files(files, name)


def oracle_mixed_domain(n, seed):
    rng = RngStream(seed, name="mixed_domain")
    sizes = TEXT_400K_DIST.ensure_max_present(
        TEXT_400K_DIST.sample(rng.fork("sizes"), n))
    domains = (("headline", 10.0, 1.5), ("news", 18.0, 2.0),
               ("academic", 28.0, 3.0))
    per = n // len(domains)
    width = max(6, len(str(n)))
    files = []
    for i in range(n):
        d = min(i // max(1, per), len(domains) - 1)
        _, mean, sd = domains[d]
        slen = min(45.0, max(6.0, rng.fork(f"c{i}").normal(mean, sd)))
        files.append(VirtualFile(
            path=f"mixed_domain/{i:0{width}d}.txt",
            size=int(sizes[i]),
            stats=TextStats(avg_word_len=7.1, avg_sentence_words=float(slen)),
            content_seed=stable_seed(seed, f"mixed/{i}"),
        ))
    return Files(files, "mixed_domain")


def oracle_derived(source, stage, seed_tag):
    files_in = list(source)
    target = int(source.total_size * stage.output_ratio)
    shares = [f.size * stage.output_ratio for f in files_in]
    sizes = [int(s) for s in shares]
    rem = target - sum(sizes)
    if rem and files_in:
        n = len(files_in)
        order = sorted(range(n), key=lambda i: sizes[i] - shares[i])
        i = 0
        while rem > 0:
            sizes[order[i % n]] += 1
            rem -= 1
            i += 1
        while rem < 0:
            j = order[-1 - (i % n)]
            if sizes[j] > 0:
                sizes[j] -= 1
                rem += 1
            i += 1
    files = []
    for f, out_size in zip(files_in, sizes):
        if out_size <= 0:
            continue
        stats = f.stats
        if stage.strips_markup and stats.markup_fraction > 0:
            stats = TextStats(avg_word_len=stats.avg_word_len,
                              avg_sentence_words=stats.avg_sentence_words,
                              markup_fraction=0.0)
        files.append(VirtualFile(path=f"{stage.name}/{f.path}", size=out_size,
                                 stats=stats,
                                 content_seed=stable_seed(f.content_seed, seed_tag)))
    return Files(files, f"{source.name}->{stage.name}")


# -- comparison ----------------------------------------------------------------


def assert_same_catalogue(bulk: Catalogue, oracle: Files) -> None:
    columns = oracle.columns()
    assert bulk.name == oracle.name
    assert len(bulk) == len(oracle)
    assert bulk.sizes().dtype == np.int64
    np.testing.assert_array_equal(bulk.sizes(), columns.sizes())
    np.testing.assert_array_equal(bulk._cum, columns._cum)
    assert bulk.total_size == columns.total_size
    assert bulk.fingerprint() == columns.fingerprint()
    for a, b in zip(bulk, oracle):
        assert type(a) is type(b) is VirtualFile
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.stats == b.stats and hash(a.stats) == hash(b.stats)
        assert [type(v) for v in vars(a).values()] == [type(v) for v in vars(b).values()]
        assert [type(v) for v in vars(a.stats).values()] == \
               [type(v) for v in vars(b.stats).values()]
        assert dataclasses.replace(a) == b
        assert dataclasses.replace(a.stats, markup_fraction=0.0) == \
               dataclasses.replace(b.stats, markup_fraction=0.0)
    # Same attribute order and sharing, so the same pickled bytes.
    assert pickle.dumps(list(bulk)) == pickle.dumps(list(oracle))
    assert pickle.loads(pickle.dumps(list(bulk))) == list(oracle)


# -- corpus builds ---------------------------------------------------------------


@pytest.mark.parametrize("n_files,seed,boost", [(1, 0, 0.0), (2, 5, 4.0),
                                                (400, 2011, 4.0), (1800, 1, 0.0)])
@pytest.mark.parametrize("html", [True, False])
def test_build_catalogue_matches_per_object_build(n_files, seed, boost, html):
    dist = HTML_18MIL_DIST if html else TEXT_400K_DIST
    args = ("bulk", dist, n_files, seed)
    kwargs = dict(html=html, sentence_mean=19.0, sentence_sd=2.0,
                  complexity_head_boost=boost)
    assert_same_catalogue(datasets._build_catalogue(*args, **kwargs),
                          oracle_build_catalogue(*args, **kwargs))


def test_build_catalogue_name_is_taken_literally():
    args = ("50%/{x}", TEXT_400K_DIST, 3, 1)
    kwargs = dict(html=False, sentence_mean=16.5, sentence_sd=2.5)
    bulk = datasets._build_catalogue(*args, **kwargs)
    assert bulk[2].path == "50%/{x}/000002.txt"
    assert_same_catalogue(bulk, oracle_build_catalogue(*args, **kwargs))


@pytest.mark.parametrize("scale,seed", [(1e-4, 1), (2e-3, 7)])
def test_html_factory_matches_per_object_build(scale, seed):
    n = int(round(18_000_000 * scale))
    assert_same_catalogue(
        html_18mil_like(scale=scale, seed=seed),
        oracle_build_catalogue("html_18mil", HTML_18MIL_DIST, n, seed, html=True,
                               sentence_mean=19.0, sentence_sd=2.0))


@pytest.mark.parametrize("n,seed", [(3, 1), (400, 2012), (4000, 9)])
def test_mixed_domain_matches_per_object_build(n, seed):
    assert_same_catalogue(datasets.mixed_domain_like(scale=n / 400_000, seed=seed),
                          oracle_mixed_domain(n, seed))


# -- stage builds: int64 largest-remainder apportionment -------------------------


def _stage(name, ratio, strips=False):
    return WorkflowStage(name=name, workload=None, predictor=None,
                         output_ratio=ratio, strips_markup=strips)


def _source(sizes, markups=None):
    markups = markups or [0.0] * len(sizes)
    return make_catalogue(sizes, [TextStats(avg_sentence_words=10.0 + i % 7,
                                            markup_fraction=m)
                                  for i, m in enumerate(markups)],
                          pattern="f%d.html", name="src")


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.4, 1 / 3, 0.987, 0.99999, 1.0])
@pytest.mark.parametrize("strips", [False, True])
def test_derived_matches_per_object_build_on_a_corpus(ratio, strips):
    source = html_18mil_like(scale=5e-4, seed=3)
    stage = _stage("s", ratio, strips)
    assert_same_catalogue(derived_catalogue(source, stage, seed_tag="t"),
                          oracle_derived(source, stage, "t"))


def test_derived_reuses_parent_stats_unless_stripped():
    # The stage store gathers its parent's stat columns; only a stripping
    # stage zeroes the markup column, and only where it was positive.
    source = _source([10, 20, 30], markups=[0.0, 0.5, 0.0])
    kept = derived_catalogue(source, _stage("k", 0.5), seed_tag="k")
    assert [out.stats for out in kept] == [src.stats for src in source]
    stripped = derived_catalogue(source, _stage("x", 0.5, strips=True), seed_tag="x")
    assert [out.stats == src.stats for out, src in zip(stripped, source)] == \
           [True, False, True]
    assert stripped[1].stats == TextStats(avg_sentence_words=11.0)
    assert all(c.dtype == np.float64 for c in stripped._stat_columns())
    np.testing.assert_array_equal(stripped._stat_columns()[2], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(kept._stat_columns()[1], source._stat_columns()[1])


def test_forced_negative_remainder_claws_back_like_the_oracle():
    # 50 * 0.7 == 35.0 and 40 * 0.7 == 28.000000000000004 floor to 63 bytes,
    # but int(90 * 0.7) == 62: the remainder is -1.
    source = _source([50, 40])
    stage = _stage("neg", 0.7)
    assert int(source.total_size * 0.7) - sum(int(s * 0.7) for s in (50, 40)) == -1
    out = derived_catalogue(source, stage, seed_tag="neg")
    assert out.total_size == 62
    assert_same_catalogue(out, oracle_derived(source, stage, "neg"))


def test_remainder_of_several_bytes_per_file_is_spread_like_the_oracle():
    # Past 2**53 bytes a share is a rounded float, so the remainder can
    # exceed the file count (24 bytes over 3 files here).
    sizes = [198365995769500318, 36901807451191549, 21809812170379837]
    ratio = 0.9088184001853248
    source = _source(sizes)
    assert int(source.total_size * ratio) - sum(int(s * ratio) for s in sizes) == 24
    stage = _stage("big", ratio)
    assert_same_catalogue(derived_catalogue(source, stage, seed_tag="big"),
                          oracle_derived(source, stage, "big"))


@given(
    sizes=st.lists(st.one_of(st.just(0), st.sampled_from([1, 7, 50, 40, 1000]),
                             st.integers(min_value=0, max_value=10**7)),
                   min_size=0, max_size=40),
    ratio=st.one_of(st.sampled_from([0.0, 1.0, 0.7, 0.1, 1 / 3]),
                    st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, allow_infinity=False)),
    strips=st.booleans(),
    markup=st.sampled_from([0.0, 0.011, 0.5]),
)
@settings(max_examples=300, deadline=None)
def test_derived_matches_oracle_on_edge_cases(sizes, ratio, strips, markup):
    # Zero-size files, repeated sizes (tied fractional parts), ratios 0 and
    # 1, and sizes/ratios whose floors overshoot the target.
    source = _source(sizes, [markup * (i % 2) for i in range(len(sizes))])
    stage = _stage("s", ratio, strips)
    out = derived_catalogue(source, stage, seed_tag="s")
    assert out.total_size == int(source.total_size * ratio)
    assert_same_catalogue(out, oracle_derived(source, stage, "s"))


# -- stable_seeds ------------------------------------------------------------------


def test_stable_seeds_of_no_names_is_empty():
    assert stable_seeds(42, []) == []


@given(parent=st.integers(min_value=0, max_value=2**128 - 1),
       names=st.lists(st.text(max_size=30), max_size=20))
@settings(max_examples=200, deadline=None)
def test_stable_seeds_equals_stable_seed_per_name(parent, names):
    assert stable_seeds(parent, names) == [stable_seed(parent, n) for n in names]


# -- bad columns fail like the per-object checks -------------------------------------


def _error(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("field,bad", [
    ("avg_sentence_words", math.nan), ("avg_sentence_words", math.inf),
    ("avg_sentence_words", 0.0), ("avg_word_len", -1.0), ("avg_word_len", math.nan),
    ("markup_fraction", 1.0), ("markup_fraction", -0.1), ("markup_fraction", math.nan),
])
def test_bad_stat_column_raises_the_constructor_error(field, bad):
    columns = {"avg_word_len": np.full(4, 7.1), "avg_sentence_words": np.full(4, 18.0),
               "markup_fraction": np.zeros(4)}
    columns[field][2] = bad
    expected = _error(lambda: TextStats(**{field: bad}))
    assert _error(lambda: TextStats._column(**columns)) == expected


def test_stat_columns_broadcast_and_share_scalar_rows():
    awl, asw, mf = TextStats._column([7.1], np.array([10.0, 20.0, 30.0]), 0.011)
    assert (awl.tolist(), asw.tolist(), mf.tolist()) == \
           ([7.1] * 3, [10.0, 20.0, 30.0], [0.011] * 3)
    assert awl.strides == mf.strides == (0,)   # one shared row, no copy
    assert [c.tolist() for c in TextStats._column(5.0, 18.0, 0.0)] == \
           [[5.0], [18.0], [0.0]]
    assert [c.tolist() for c in TextStats._column([], [], 0.0)] == [[], [], []]


def _generated(sizes, stats=None):
    n = len(sizes)
    stats = stats or TextStats._column(7.1, np.full(n, 18.0), 0.0)
    return Catalogue("c", "c/%d", 0, "c", np.asarray(sizes, dtype=np.int64), stats)


def test_negative_size_raises_the_constructor_error():
    sizes = np.arange(5, dtype=np.int64) + 1
    sizes[3] = -1
    sizes[4] = -2
    expected = _error(lambda: VirtualFile(path="c/3", size=-1))
    assert _error(lambda: _generated(sizes)) == expected


def test_duplicate_path_raises_the_catalogue_error():
    # Generated stores are unique by construction; concatenations
    # repeating a file are checked.
    generated = _generated([1, 1, 1, 1])
    expected = _error(lambda: Catalogue.concat([generated, generated._take([1], "t")]))
    assert expected == "duplicate path in catalogue: 'c/1'"
    head, tail = generated._take(range(4), "h"), generated._take([1], "t")
    assert _error(lambda: Catalogue.concat([head, tail])) == expected


def test_column_lengths_must_agree():
    with pytest.raises(ValueError, match="differ in length"):
        _generated([1, 2, 3, 4, 5], TextStats._column(7.1, np.full(4, 18.0), 0.0))


def test_empty_columns_build_an_empty_catalogue():
    cat = _generated([], TextStats._column([], [], 0.0))
    assert_same_catalogue(cat, Files([], "c"))


# -- the garbage collector ------------------------------------------------------------


@pytest.fixture
def collector_restored():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:  # pragma: no cover - pytest runs with the collector on
        gc.disable()


def test_build_restores_an_enabled_collector(collector_restored):
    gc.enable()
    html_18mil_like(scale=1e-4, seed=1)
    derived_catalogue(_source([5, 6]), _stage("s", 0.5, strips=True), seed_tag="s")
    assert gc.isenabled()


def test_build_leaves_a_disabled_collector_disabled(collector_restored):
    gc.disable()
    html_18mil_like(scale=1e-4, seed=1)
    derived_catalogue(_source([5, 6]), _stage("s", 0.5, strips=True), seed_tag="s")
    assert not gc.isenabled()


def test_no_full_collection_while_a_corpus_builds_next_to_another(collector_restored):
    gc.enable()
    alive = html_18mil_like(scale=7e-3, seed=11)
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    built = html_18mil_like(scale=7e-3, seed=12)
    assert gc.get_stats()[2]["collections"] == before
    assert len(built) == len(alive) == 126_000
