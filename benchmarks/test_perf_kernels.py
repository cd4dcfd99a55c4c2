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
    """Fixed-bin first-fit (the §5.2 provisioning step) at 100k files —
    O(n log B) on the segment tree, where the classic scan rescans all bins."""
    cat = html_18mil_like(scale=5.6e-3)   # ~100k files
    sizes = cat.sizes().tolist()
    n = 30
    capacity = int(cat.total_size / n * 1.02)
    layouts = benchmark(pack_into_n_bins_layout, sizes, n, capacity)
    assert placed(layouts) == len(sizes)


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
