"""Perf guard: corpus catalogues are built in one bulk pass.

``GrepReshape.setup`` in perfbench builds two ``html_18mil_like(scale=7e-3)``
corpora (126k files each) back to back and keeps both alive.  Built from
checked numpy columns, with each file made without per-object re-checks
and the cyclic collector paused around the object loops, the pair takes
0.95–1.41 s (median ≈1.1 s, best of 2) on a 2-core shared x86 host whose
speed drifts between runs.  Building every file through the ``TextStats``
and ``VirtualFile`` constructors, with numpy-to-Python scalar casts per
field and full collections walking both corpora mid-build, took
1.87–3.41 s there.  The 1.7 s ceiling fails every such per-object build
measured and leaves ≈1.5× headroom over the median bulk build.
"""

import time

import pytest

from repro.corpus import html_18mil_like

SCALE = 7e-3
MAX_SECONDS = 1.7
ATTEMPTS = 2   # one re-measure absorbs a noisy neighbour on shared hosts


@pytest.mark.perf
def test_two_corpora_build_in_bulk(benchmark):
    def once() -> float:
        t0 = time.perf_counter()
        first = html_18mil_like(scale=SCALE)
        second = html_18mil_like(scale=SCALE, seed=1)
        elapsed = time.perf_counter() - t0
        assert len(first) == len(second) == 126_000
        assert first[0].path == second[0].path and first[0] != second[0]
        return elapsed

    elapsed = benchmark.pedantic(
        lambda: min(once() for _ in range(ATTEMPTS)), rounds=1, iterations=1)
    print(f"\ntwo {SCALE:g}-scale HTML corpora in {elapsed:.3f} s")
    assert elapsed <= MAX_SECONDS, (
        f"building two corpora took {elapsed:.3f} s (ceiling {MAX_SECONDS} s)")
