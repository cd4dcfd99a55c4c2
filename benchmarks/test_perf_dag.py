"""Perf guard: a sweep derives each DAG data plane once.

``matrix_sweep(seeds=(11,))`` runs 18 DAG cells plus two on-demand
baselines over one seeded corpus and two workflow shapes.  Inside the
sweep, the cells share the corpus and each shape's stage catalogues
(:mod:`repro.vfs.memo`), so the sweep derives at most ten stage
outputs (two shapes of five stages) where every cell used to derive its
own five.  The whole sweep takes 0.97–1.14 s on a 2-core shared x86
host (2.7–3.7 s when every cell rebuilt its data), so the 3.5 s
ceiling leaves ≥3× headroom for noise.  It is a coarse guard: the count
guard is the exact check.
"""

import sys
import time
from collections import Counter

import pytest

from repro.core import workflow
from repro.experiments.exp_matrix import matrix_sweep

MAX_DERIVATIONS = 10
MAX_SECONDS = 3.5
ATTEMPTS = 2   # one re-measure absorbs a noisy neighbour on shared hosts


@pytest.mark.perf
def test_matrix_sweep_derives_each_stage_once(benchmark, monkeypatch):
    calls: Counter = Counter()
    derive = workflow.derived_catalogue

    def counted(source, stage, seed_tag):
        calls[seed_tag] += 1
        return derive(source, stage, seed_tag)

    # Patch every module that imported the function by name, so a caller
    # that bypasses stage_data is counted too.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "derived_catalogue", None) is derive):
            monkeypatch.setattr(module, "derived_catalogue", counted)
    benchmark.pedantic(lambda: matrix_sweep(seeds=(11,)),
                       rounds=1, iterations=1)
    print(f"\nderived_catalogue calls per stage: {dict(calls)}")
    assert 0 < sum(calls.values()) <= MAX_DERIVATIONS, calls


@pytest.mark.perf
def test_matrix_sweep_wall_time(benchmark):
    def once() -> float:
        t0 = time.perf_counter()
        matrix_sweep(seeds=(11,))
        return time.perf_counter() - t0

    elapsed = benchmark.pedantic(
        lambda: min(once() for _ in range(ATTEMPTS)), rounds=1, iterations=1)
    print(f"\nmatrix_sweep(seeds=(11,)) took {elapsed:.3f} s")
    assert elapsed <= MAX_SECONDS, (
        f"matrix_sweep took {elapsed:.3f} s (ceiling {MAX_SECONDS} s)")
