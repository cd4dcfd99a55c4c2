"""Perf guard: derived catalogues are index slices of their parent.

A probe head, a random sample and a sample's head reuse the parent's
``VirtualFile`` objects and gather their size column with numpy; exclusion
between samples is a boolean mask over parent positions.  On the
``grep-reshape`` input (``html_18mil_like(scale=7e-3)``, 126k files) a
5 GB head plus five 1 GB samples drawn without replacement, each with its
half-volume head, takes ≈0.05 s on a 2-core shared x86 host.  Rebuilding
and re-validating every subset file by file (re-hashing each path into a
fresh set, drawing against a growing path set) took ≈0.65 s there, so the
0.25 s ceiling leaves ≥5× headroom for noise while a reintroduced
per-file path fails it.
"""

import time

import numpy as np
import pytest

from repro.corpus import html_18mil_like
from repro.sim.random import RngStream
from repro.units import GB

N_SAMPLES = 5
MAX_SECONDS = 0.25
ATTEMPTS = 2   # one re-measure absorbs a noisy neighbour on shared hosts


@pytest.mark.perf
def test_head_and_samples_by_index(benchmark):
    catalogue = html_18mil_like(scale=7e-3, seed=1)

    def once() -> float:
        t0 = time.perf_counter()
        head = catalogue.head_by_volume(5 * GB)
        taken = np.zeros(len(catalogue), dtype=bool)
        drawn = halves = 0
        for i in range(N_SAMPLES):
            sample = catalogue.sample_by_volume(1 * GB, RngStream(i),
                                                exclude=taken)
            taken[sample.positions] = True
            drawn += len(sample)
            halves += len(sample.head_by_volume(sample.total_size // 2))
        elapsed = time.perf_counter() - t0
        assert head.total_size >= 5 * GB
        assert int(taken.sum()) == drawn > halves > 0   # disjoint samples
        return elapsed

    elapsed = benchmark.pedantic(
        lambda: min(once() for _ in range(ATTEMPTS)), rounds=1, iterations=1)
    print(f"\nhead + {N_SAMPLES} samples of {len(catalogue):,} files "
          f"in {elapsed:.3f} s")
    assert elapsed <= MAX_SECONDS, (
        f"head and {N_SAMPLES} samples took {elapsed:.3f} s "
        f"(ceiling {MAX_SECONDS} s)")
