"""Perf guard: the simulation core must stay at bulk-event scale.

Thresholds are deliberately ~3x below the measured medians on a shared
single-core container (engine storm ≈160-220k events/s, columnar fleet
≈0.8M member-advances/s), so scheduler noise does not flake the lane but
an accidental O(n log n) → O(n²) slip, a per-event allocation, or a
reintroduced per-member engine event fails it immediately.

* ``schedule_batch`` + ``run`` of a 100k-event storm must clear 50k
  events/s with the tracer off, and 20k events/s with a live tracer;
* the columnar uniform-fleet runner must advance a 100k-instance fleet
  in single-digit wall seconds while firing exactly two engine events.
"""

import time

import pytest

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, Workload
from repro.core import reshape
from repro.corpus import text_400k_like
from repro.obs import Tracer
from repro.sim.engine import SimulationEngine

MIN_EVENTS_PER_S = 50_000
MIN_TRACED_EVENTS_PER_S = 20_000
MAX_FLEET_SECONDS = 9.0
STORM = 100_000
ATTEMPTS = 2   # one re-measure absorbs a noisy neighbour on shared hosts


def _noop() -> None:
    pass


def _storm_rate(*, traced: bool, n: int = STORM) -> float:
    tracer = Tracer() if traced else None
    engine = SimulationEngine(tracer=tracer)
    # deterministic pseudo-random times; Weyl-ish multiplier spreads them
    times = [((i * 2654435761) & 0xFFFFF) / 16.0 for i in range(n)]
    t0 = time.perf_counter()
    engine.schedule_batch(times, _noop, "storm")
    engine.run()
    elapsed = time.perf_counter() - t0
    assert engine.events_fired == n
    return n / elapsed


def _best(fn, attempts: int = ATTEMPTS) -> float:
    return max(fn() for _ in range(attempts))


@pytest.mark.smoke
@pytest.mark.perf
def test_engine_storm_throughput(benchmark):
    rate = benchmark.pedantic(
        lambda: _best(lambda: _storm_rate(traced=False)),
        rounds=1, iterations=1)
    print(f"\nengine storm, tracer off: {rate:,.0f} events/s")
    assert rate >= MIN_EVENTS_PER_S, (
        f"engine regressed to {rate:,.0f} events/s "
        f"(floor {MIN_EVENTS_PER_S:,})")


@pytest.mark.smoke
@pytest.mark.perf
def test_engine_storm_throughput_traced(benchmark):
    rate = benchmark.pedantic(
        lambda: _best(lambda: _storm_rate(traced=True)),
        rounds=1, iterations=1)
    print(f"\nengine storm, tracer on: {rate:,.0f} events/s")
    assert rate >= MIN_TRACED_EVENTS_PER_S, (
        f"traced engine regressed to {rate:,.0f} events/s "
        f"(floor {MIN_TRACED_EVENTS_PER_S:,})")


@pytest.mark.smoke
@pytest.mark.perf
def test_columnar_100k_fleet_single_digit_seconds(benchmark):
    workload = Workload("scan", GrepApplication(), GrepCostProfile())
    units = list(reshape(text_400k_like(scale=1e-3), None).units)[:6]

    def fleet() -> tuple[float, int]:
        from repro.runner import execute_uniform_fleet

        cloud = Cloud(seed=42)
        t0 = time.perf_counter()
        report = execute_uniform_fleet(cloud, workload, 100_000, units,
                                       deadline=3600.0)
        elapsed = time.perf_counter() - t0
        assert report.n_instances == 100_000
        return elapsed, cloud.engine.events_fired

    elapsed, fired = benchmark.pedantic(fleet, rounds=1, iterations=1)
    print(f"\n100k-instance columnar fleet: {elapsed:.2f}s wall, "
          f"{fired} engine events")
    assert elapsed < MAX_FLEET_SECONDS, (
        f"100k-instance fleet took {elapsed:.1f}s (budget {MAX_FLEET_SECONDS}s)")
    # the whole campaign is a boot barrier + a completion event; anything
    # more means someone reintroduced per-member engine traffic
    assert fired == 2
