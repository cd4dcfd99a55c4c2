"""Golden pricing: the columnar cost model reproduces the scalar one exactly.

``GOLDEN`` holds, per ``(workload, bin)``, every :class:`WorkAccount`
field and the breakdown's io/cpu seconds as ``float.hex``, recorded from
the former per-unit pricing loop (one ``+=`` per unit).  A one-ulp change
in one unit's term is usually absorbed by a bin's sum, so
``PER_UNIT_DIGESTS`` also pins every unit priced as its own length-1 bin.
The columnar path must match to the last bit: the figures, deadline
outcomes and bills are all functions of these numbers.
"""

import hashlib
import random

import pytest

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
    UnitColumns,
)
from repro.cloud import Workload
from repro.vfs import Catalogue, Segment, TextStats
from tests.catalogues import make_catalogue, pack


def golden_bins() -> dict:
    """A fixed mixed unit set, grouped into the bins the test prices.

    Every file is a row of one catalogue; the segments are a packed
    catalogue over it, and a bin mixing both is their concatenation.
    The empty segment is a bin of the one 0-byte file: pricing reads a
    unit's size and stats only, and a 0-byte unit has the default stats.
    """
    rng = random.Random(15)

    def vf(i, size, **stats):
        return size, TextStats(**stats)

    def drawn(i, max_size):
        return vf(i, rng.randint(0, max_size),
                  avg_word_len=rng.uniform(2.0, 9.0),
                  avg_sentence_words=rng.uniform(0.3, 70.0),
                  markup_fraction=rng.uniform(0.0, 0.95))

    singles = [
        vf(0, 0),
        vf(1, 1, avg_word_len=3.1, avg_sentence_words=0.4),
        vf(2, 799, avg_sentence_words=13.0),
        vf(3, 800, avg_word_len=4.7, avg_sentence_words=27.0),
        vf(4, 801, markup_fraction=0.41),
        vf(5, 12_345, avg_word_len=6.2, avg_sentence_words=27.3,
           markup_fraction=0.05),
        vf(6, 7_654_321, avg_word_len=5.5, avg_sentence_words=19.9),
        vf(7, 3_000_000_017, avg_sentence_words=44.4, markup_fraction=0.6),
    ]
    # Sizes whose memory penalty moves if log2(size / knee) is taken with
    # np.log2 instead of libm (seen with AVX-512 SIMD kernels).
    singles += [vf(200 + i, size, avg_sentence_words=11.0 + i)
                for i, size in enumerate((18_652, 42_487, 43_439, 64_031,
                                          112_173, 125_254))]
    members = [drawn(100 + i, 5_000) for i in range(40)]
    many = [drawn(1_000 + i, 3_000) for i in range(2_000)]
    rows = singles + members + many
    files = make_catalogue([size for size, _ in rows], [s for _, s in rows],
                           pattern="g/%05d", name="g")
    a, b = len(singles), len(singles) + len(members)
    singles = files._take(range(0, a), "singles")
    m = list(range(a, b))
    segments = pack(files, [m[:3], m[3:], [0], m[:1]], "seg")
    many = files._take(range(b, len(files)), "many")
    return {
        "mixed": Catalogue.concat([singles, segments]),
        "one-file": singles._take([5], "one-file"),
        "one-segment": segments._take([1], "one-segment"),
        "empty": files._take([], "empty"),
        "many": many,
        "all": Catalogue.concat([singles, segments, many]),
    }


def golden_pairs() -> dict:
    """(application, profile) per priced workload."""
    return {
        "grep": (GrepApplication(), GrepCostProfile()),
        "grep-hits": (GrepApplication("the", expected_hit_rate=3.7e-3),
                      GrepCostProfile()),
        "postag": (PosTaggerApplication(), PosCostProfile()),
        "extract": (ExtractorApplication(), ExtractCostProfile()),
    }


#: (files_opened, bytes_read, tokens, sentences, matches, output_bytes,
#:  context_ops, io, cpu); the floats as ``float.hex``.
GOLDEN = {
    ('grep', 'mixed'): (
        18, 3008197734, 0, 0, 0, 0,
        '0x0.0p+0', '0x1.2722e8dba2ac5p+5', '0x1.810c9f93b7352p+1'),
    ('grep', 'one-file'): (
        1, 12345, 0, 0, 0, 0,
        '0x0.0p+0', '0x1.100bed9397011p-8', '0x1.9e3abe16fc70ep-17'),
    ('grep', 'one-segment'): (
        1, 114227, 0, 0, 0, 0,
        '0x0.0p+0', '0x1.61c58c310c1d2p-8', '0x1.df1a4ead2e994p-14'),
    ('grep', 'empty'): (
        0, 0, 0, 0, 0, 0,
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('grep', 'many'): (
        2000, 2971353, 0, 0, 0, 0,
        '0x0.0p+0', '0x1.0129ef77a7966p+3', '0x1.85760feb7446ap-9'),
    ('grep', 'all'): (
        2018, 3011169087, 0, 0, 0, 0,
        '0x0.0p+0', '0x1.676d64b98c91ep+5', '0x1.816dfd17b2123p+1'),
    ('grep-hits', 'mixed'): (
        18, 3008197734, 0, 0, 11130323, 890425840,
        '0x0.0p+0', '0x1.2722e8dba2ac5p+5', '0x1.944d2f16543b7p+4'),
    ('grep-hits', 'one-file'): (
        1, 12345, 0, 0, 45, 3600,
        '0x0.0p+0', '0x1.100bed9397011p-8', '0x1.ad441b62dcef0p-14'),
    ('grep-hits', 'one-segment'): (
        1, 114227, 0, 0, 422, 33760,
        '0x0.0p+0', '0x1.61c58c310c1d2p-8', '0x1.f6630d04642c8p-11'),
    ('grep-hits', 'empty'): (
        0, 0, 0, 0, 0, 0,
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('grep-hits', 'many'): (
        2000, 2971353, 0, 0, 10002, 800160,
        '0x0.0p+0', '0x1.0129ef77a7966p+3', '0x1.786d9d6ff0866p-6'),
    ('grep-hits', 'all'): (
        2018, 3011169087, 0, 0, 11140325, 891226000,
        '0x0.0p+0', '0x1.676d64b98c91ep+5', '0x1.94ab4a7db0379p+4'),
    ('postag', 'mixed'): (
        18, 3008197734, 201258374, 4568785, 0, 1811915156,
        '0x1.2c93ed04292d8p+32', '0x1.e15e865849423p+4', '0x1.ff1bd8246d7f9p+18'),
    ('postag', 'one-file'): (
        1, 12345, 1628, 59, 0, 16605,
        '0x1.a6e02a7be0523p+14', '0x1.532972c010fcap-12', '0x1.c62f8895d549ep+0'),
    ('postag', 'one-segment'): (
        1, 114227, 9847, 259, 0, 90879,
        '0x1.a6c62a68ddcfap+17', '0x1.5fde370275a62p-10', '0x1.04f6f142c35d1p+4'),
    ('postag', 'empty'): (
        0, 0, 0, 0, 0, 0,
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('postag', 'many'): (
        2000, 2971353, 269550, 20269, 0, 2379239,
        '0x1.4ce9c04facab0p+22', '0x1.b806d2d7feafbp-2', '0x1.21eec7125ecaap+8'),
    ('postag', 'all'): (
        2018, 3011169087, 201527924, 4589054, 0, 1814294395,
        '0x1.2ce727743d194p+32', '0x1.e83ea1a3a93dap+4', '0x1.ff6453d63216fp+18'),
    ('extract', 'mixed'): (
        18, 3008197734, 0, 0, 0, 1208140085,
        '0x0.0p+0', '0x1.87c99e5d38defp+5', '0x1.20c977aec967dp+4'),
    ('extract', 'one-file'): (
        1, 12345, 0, 0, 0, 11727,
        '0x0.0p+0', '0x1.17bb849a84302p-8', '0x1.36ac0e913d54ap-14'),
    ('extract', 'one-segment'): (
        1, 114227, 0, 0, 0, 61341,
        '0x0.0p+0', '0x1.89f8e9f04d3a0p-8', '0x1.6753bb01e2f2fp-11'),
    ('extract', 'empty'): (
        0, 0, 0, 0, 0, 0,
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('extract', 'many'): (
        2000, 2971353, 0, 0, 0, 1577145,
        '0x0.0p+0', '0x1.01ab37cb9d066p+3', '0x1.24188bf097357p-6'),
    ('extract', 'all'): (
        2018, 3011169087, 0, 0, 0, 1209717230,
        '0x0.0p+0', '0x1.c8346c5020208p+5', '0x1.21127dd1c58c2p+4'),
}

#: sha256 (first 32 hex digits) over every unit of ``BINS["all"]`` priced
#: alone: "tokens sentences matches output_bytes context_ops io cpu".
PER_UNIT_DIGESTS = {
    'grep': 'da468224199c44c70c718ff5ada133a8',
    'grep-hits': 'ea95cab7e00b0a02221adb9b1c270669',
    'postag': 'c757e42e5be4e75ffa2e6795c5d6f677',
    'extract': 'e1e2d4965927f39817eb392bb1871cd9',
}

BINS = golden_bins()
PAIRS = golden_pairs()


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_columnar_pricing_matches_golden(key):
    pair, bin_name = key
    app, profile = PAIRS[pair]
    columns = UnitColumns(BINS[bin_name])
    w = app.estimate_work(columns)
    b = profile.breakdown(columns, matches=w.matches)
    got = (w.files_opened, w.bytes_read, w.tokens, w.sentences, w.matches,
           w.output_bytes, float(w.context_ops).hex(), b.io.hex(), b.cpu.hex())
    assert got == GOLDEN[key]
    assert all(type(v) is int for v in got[:6])
    assert type(w.context_ops) is float


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_each_unit_alone_matches_golden(pair):
    app, profile = PAIRS[pair]
    rows = []
    units = BINS["all"]
    for i in range(len(units)):
        columns = UnitColumns(units._take([i], f"unit{i}"))
        w = app.estimate_work(columns)
        b = profile.breakdown(columns, matches=w.matches)
        rows.append(f"{w.tokens} {w.sentences} {w.matches} {w.output_bytes} "
                    f"{float(w.context_ops).hex()} {b.io.hex()} {b.cpu.hex()}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:32]
    assert digest == PER_UNIT_DIGESTS[pair]


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_workload_price_is_the_same_pricing(pair):
    app, profile = PAIRS[pair]
    b = Workload(pair, app, profile).price(BINS["all"])
    assert (b.io.hex(), b.cpu.hex()) == GOLDEN[(pair, "all")][7:]


def test_grep_pricing_never_reads_segment_stats(monkeypatch):
    def boom(self):
        raise AssertionError("grep priced a bin through Segment.stats")

    monkeypatch.setattr(Segment, "stats", boom)
    for pair in ("grep", "grep-hits"):
        app, profile = PAIRS[pair]
        b = Workload(pair, app, profile).price(BINS["mixed"])
        assert b.io.hex() == GOLDEN[(pair, "mixed")][7]
        segments = pack(BINS["many"], [[0, 1, 2], [3]])
        Workload(pair, app, profile).price(segments)
        assert "stats" not in vars(segments._store)   # the packed stats never computed
