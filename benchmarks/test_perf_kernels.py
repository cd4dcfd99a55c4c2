"""True performance benchmarks (multi-round timings) for the hot kernels.

Unlike the figure benches, these exercise pytest-benchmark's statistics:
the packing and corpus-generation kernels are the paths that must scale to
18-million-file catalogues, and these benches guard their asymptotics.
All four packing heuristics are asymptotics-guarded here, timed on the
path production runs: a ``*_layout`` kernel over the catalogue's size
column.  Their medians are the older entries of ``BENCH_packing.json``;
the trajectory now records and gates the perfbench workloads and the
figure session, which run these kernels inside the real jobs.
"""

import time

import pytest

from repro.corpus import html_18mil_like, text_400k_like
from repro.packing import (
    PackingCache,
    first_fit_layout,
    pack_into_n_bins_layout,
    subset_sum_layout,
    uniform_layout,
)
from repro.units import KB, MB


def placed(layouts) -> int:
    return sum(len(l.indices) for l in layouts)


def test_perf_first_fit_100k_items(benchmark):
    """First-fit on a 100k-file catalogue (was 18 s quadratic; the indexed
    engine holds it well under a second)."""
    cat = html_18mil_like(scale=5.6e-3)   # ~100k files
    sizes = cat.sizes().tolist()
    layouts = benchmark(first_fit_layout, sizes, 100 * MB)
    assert placed(layouts) == len(sizes)


def test_perf_subset_sum_merge(benchmark):
    cat = text_400k_like(scale=0.1)       # 40k files
    sizes = cat.sizes().tolist()
    layouts = benchmark(subset_sum_layout, sizes, 1 * MB)
    assert placed(layouts) == len(sizes)


def test_perf_uniform_bins(benchmark):
    cat = text_400k_like(scale=0.1)
    sizes = cat.sizes().tolist()
    layouts = benchmark(uniform_layout, sizes, 27)
    assert len(layouts) == 27


def test_perf_pack_into_n_bins_100k_items(benchmark):
    """Fixed-bin first-fit (the §5.2 provisioning step) at 100k files — one
    open-ended first-fit pass (the open bin takes nearly every item in two
    compares, the segment tree the rest) plus the overflow spill, where the
    classic scan rescans all bins."""
    cat = html_18mil_like(scale=5.6e-3)   # ~100k files
    sizes = cat.sizes().tolist()
    n = 30
    capacity = int(cat.total_size / n * 1.02)
    layouts = benchmark(pack_into_n_bins_layout, sizes, n, capacity)
    assert placed(layouts) == len(sizes)


#: The §5.2 plan of the benchmark's pos-deadline input: fig8's first-fit
#: variant packs ``text_400k_like(scale=0.87 * 0.125)`` (43,500 files) into
#: 28 bins of x0 = 3,955,980 B.
POS_DEADLINE_SCALE = 0.87 * 0.125
POS_DEADLINE_BINS = 28
POS_DEADLINE_X0 = 3_955_980
MAX_FIXED_OVER_FIRST_FIT = 2.0


@pytest.mark.perf
def test_fixed_bin_packing_costs_one_first_fit(benchmark):
    """Fixed-bin first-fit is first-fit plus a spill, so on the pos-deadline
    input it costs about one :func:`first_fit_layout` pass (≈1.0× on a
    2-core shared x86 host; routing every item through the segment tree,
    as the packer once did, cost 7.4–8.6×).  Both timings come from the
    same host, so the 2× ceiling does not depend on its speed."""
    sizes = text_400k_like(scale=POS_DEADLINE_SCALE).sizes().tolist()

    def best_of(fn, *args) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    def ratio() -> float:
        fixed = best_of(pack_into_n_bins_layout, sizes, POS_DEADLINE_BINS,
                        POS_DEADLINE_X0)
        return fixed / best_of(first_fit_layout, sizes, POS_DEADLINE_X0)

    layouts = pack_into_n_bins_layout(sizes, POS_DEADLINE_BINS, POS_DEADLINE_X0)
    assert len(layouts) == POS_DEADLINE_BINS and placed(layouts) == len(sizes)
    got = benchmark.pedantic(ratio, rounds=1, iterations=1)
    print(f"\nfixed-bin / first-fit on {len(sizes):,} items: {got:.2f}x")
    assert got <= MAX_FIXED_OVER_FIRST_FIT, (
        f"fixed-bin packing took {got:.2f}x first-fit "
        f"(ceiling {MAX_FIXED_OVER_FIRST_FIT}x)")


#: Fig. 4's 5 GB probe head of the benchmark's grep-reshape input:
#: ``html_18mil_like(scale=7e-3, seed=2010)``, 106,474 files.
GREP_HEAD_SCALE = 7e-3
GREP_HEAD_SEED = 2010
MAX_SMALL_OVER_LARGE_UNIT = 5.0


@pytest.mark.perf
def test_small_unit_first_fit_stays_out_of_the_tree(benchmark):
    """Fig. 4's 1 MB pack of the grep head (4,479 bins) against the 100 MB
    pack of the same input (51 bins).  Small units close thousands of bins
    that small files later back-fill; with the newest closed bins kept out
    of the segment tree the ratio is ≈3.7× on a 2-core shared x86 host,
    and ≈6× when every closed bin went through the tree.  Both timings
    are best of 5, interleaved, on the same host, so the 5× ceiling does
    not depend on its speed."""
    from repro.units import GB

    head = html_18mil_like(scale=GREP_HEAD_SCALE, seed=GREP_HEAD_SEED)
    sizes = head.head_by_volume(5 * GB).sizes().tolist()

    def ratio() -> float:
        small = large = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            first_fit_layout(sizes, 1 * MB)
            t1 = time.perf_counter()
            first_fit_layout(sizes, 100 * MB)
            t2 = time.perf_counter()
            small, large = min(small, t1 - t0), min(large, t2 - t1)
        return small / large

    assert placed(first_fit_layout(sizes, 1 * MB)) == len(sizes)
    got = benchmark.pedantic(ratio, rounds=1, iterations=1)
    print(f"\n1 MB / 100 MB first-fit on {len(sizes):,} items: {got:.2f}x")
    assert got <= MAX_SMALL_OVER_LARGE_UNIT, (
        f"the 1 MB pack took {got:.2f}x the 100 MB pack "
        f"(ceiling {MAX_SMALL_OVER_LARGE_UNIT}x)")


#: The grep-reshape input (126k files) planned into about 30 uniform bins.
UNIFORM_PLAN_SCALE = 7e-3
UNIFORM_PLAN_BINS = 30
MAX_PLAN_OVER_UNIFORM = 2.0


@pytest.mark.perf
def test_uniform_plan_costs_one_uniform_split(benchmark):
    """A uniform plan of a catalogue is the split of its size column plus
    one run slice per bin, so it costs about one :func:`uniform_layout`
    call on the column (≈1.5× on a 2-core shared x86 host; 3.6× when the
    plan listed the column, re-arrayed it and gathered every bin by
    index).  Both timings are best of 5, interleaved, on the same host, so
    the 2× ceiling does not depend on its speed."""
    import numpy as np

    from repro.core import StaticProvisioner
    from repro.perfmodel.regression import fit_affine

    cat = html_18mil_like(scale=UNIFORM_PLAN_SCALE)
    x = np.array([1e6, 1e8, 1e9])
    provisioner = StaticProvisioner(fit_affine(x, 1e-8 * x))
    deadline = 1e-8 * cat.total_size / UNIFORM_PLAN_BINS
    plan = provisioner.plan(cat, deadline, strategy="uniform")
    n = plan.n_instances
    assert abs(n - UNIFORM_PLAN_BINS) <= 1
    assert sum(len(b) for b in plan.assignments) == len(cat)

    def ratio() -> float:
        planned = split = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            provisioner.plan(cat, deadline, strategy="uniform")
            t1 = time.perf_counter()
            uniform_layout(cat.sizes(), n)
            t2 = time.perf_counter()
            planned, split = min(planned, t1 - t0), min(split, t2 - t1)
        return planned / split

    got = benchmark.pedantic(ratio, rounds=1, iterations=1)
    print(f"\nuniform plan / uniform_layout on {len(cat):,} files: {got:.2f}x")
    assert got <= MAX_PLAN_OVER_UNIFORM, (
        f"the uniform plan took {got:.2f}x its split "
        f"(ceiling {MAX_PLAN_OVER_UNIFORM}x)")


def test_perf_uniform_bins_100k_items(benchmark):
    """Order-preserving balanced split at 100k files — one searchsorted
    over the share boundaries."""
    cat = html_18mil_like(scale=5.6e-3)
    sizes = cat.sizes().tolist()
    layouts = benchmark(uniform_layout, sizes, 30)
    assert placed(layouts) == len(sizes)
    assert len(layouts) == 30


def test_perf_probe_set_cache_hit(benchmark):
    """Repeated probe-set packing must hit the campaign cache: the base
    size packs once, multiples derive by coalescing, repeats memoise."""
    from repro.perfmodel.probes import build_probe_set

    cat = text_400k_like(scale=0.1)       # 40k files
    volume = cat.total_size // 2
    sizes = [256 * KB, 512 * KB, 1 * MB, 2 * MB]
    cache = PackingCache()
    build_probe_set(cat, volume, sizes, cache=cache)  # warm the cache

    ps = benchmark(build_probe_set, cat, volume, sizes, cache=cache)
    assert set(ps.labels()) == {"orig", *sizes}
    assert cache.stats()["hits"] > 0


def test_perf_catalogue_construction(benchmark):
    cat = benchmark(text_400k_like, 0.05)
    assert len(cat) == 20_000


def test_perf_estimate_work_pos(benchmark):
    from repro.apps import PosTaggerApplication, UnitColumns

    units = list(text_400k_like(scale=0.05))
    app = PosTaggerApplication()
    # Gather inside the timed call: columns cache their stats once read.
    work = benchmark(lambda: app.estimate_work(UnitColumns(units)))
    assert work.tokens > 0


def test_perf_first_fit_million_items(benchmark):
    """Asymptotics guard at real-paper scale: a million-file slice of the
    18 M-file corpus packs into 100 MB units in seconds, not hours."""
    cat = html_18mil_like(scale=5.6e-2)    # ~1.01 M files
    sizes = cat.sizes().tolist()

    def pack():
        return subset_sum_layout(sizes, 100 * MB)

    layouts = benchmark.pedantic(pack, rounds=1, iterations=1)
    assert placed(layouts) == len(sizes)


def test_perf_text_generation(benchmark):
    from repro.corpus import generate_text
    from repro.sim.random import RngStream

    def gen():
        return generate_text(RngStream(1), 50_000)

    text = benchmark(gen)
    assert len(text) == 50_000
