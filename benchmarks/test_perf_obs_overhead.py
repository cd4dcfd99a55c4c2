"""Perf guard: disabled observability must be (nearly) free.

Every instrumented call site pays one ``get_obs()``/``enabled`` check when
the module-default bundle is disabled.  This bench holds the end-to-end
cost of those checks on the hot packing path — PR 1's 100k-file first-fit
bench — under 3 %: the baseline replicates the cache's non-observability
work (fingerprint + size-column extraction + kernel + store), so the
measured delta is exactly what the instrumentation added.

Methodology: samples are interleaved with alternating order, the GC is
held off (a collection landing inside one side's sample would dominate
the 3 % bound), and the medians of the paired samples are compared.  One
re-measure is allowed before failing — the bound is ~0.4 ms on this
kernel, within reach of scheduler noise on a shared host, while a real
regression fails both attempts.
"""

import gc
import statistics
import time

from repro.corpus import html_18mil_like
from repro.obs import get_obs
from repro.packing import PackingCache
from repro.packing.first_fit import first_fit_layout
from repro.units import MB

ROUNDS = 20
ATTEMPTS = 2
OVERHEAD_BUDGET = 0.03


def _paired_overhead(instrumented, baseline, rounds=ROUNDS):
    """Relative overhead of ``instrumented`` over ``baseline``.

    Interleaved, order-alternated sampling with the GC parked; returns
    ``median(instrumented) / median(baseline) - 1``.
    """
    ta, tb = [], []
    gc.collect()
    gc.disable()
    try:
        for i in range(rounds):
            pair = ((instrumented, ta), (baseline, tb))
            if i % 2:
                pair = tuple(reversed(pair))
            for fn, out in pair:
                t0 = time.perf_counter()
                fn()
                out.append(time.perf_counter() - t0)
            gc.collect(0)
    finally:
        gc.enable()
    return statistics.median(ta) / statistics.median(tb) - 1.0


def test_tracer_off_overhead_on_100k_pack(benchmark):
    """Instrumented cache path vs an obs-free replica, observability off."""
    assert not get_obs().enabled, "bench requires the disabled default"
    cat = html_18mil_like(scale=5.6e-3)   # ~100k files, as in PR 1's bench
    capacity = 100 * MB
    cat.fingerprint()                     # memoise outside the timed region
    n_items = len(cat)

    def baseline():
        # pack_layout minus the observability calls: same fingerprint,
        # same column extraction, same kernel, same store shape
        store = {}
        key = (cat.fingerprint(), "first_fit", True, capacity)
        layouts = first_fit_layout(cat.sizes().tolist(), capacity)
        store[key] = layouts
        return layouts

    def instrumented():
        # a fresh cache forces the miss path through every obs check
        return PackingCache().pack_layout(cat, capacity,
                                          heuristic="first_fit")

    baseline(), instrumented()            # shared warmup

    overheads = []
    for _ in range(ATTEMPTS):
        overheads.append(_paired_overhead(instrumented, baseline))
        if overheads[-1] < OVERHEAD_BUDGET:
            break
    # pytest-benchmark records the instrumented path for the trajectory
    layouts = benchmark.pedantic(instrumented, rounds=3, iterations=1)
    assert sum(len(l.indices) for l in layouts) == n_items
    assert min(overheads) < OVERHEAD_BUDGET, (
        f"disabled-observability overhead {min(overheads):.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} in {ATTEMPTS} attempts ({overheads})")


def test_tracer_off_overhead_on_engine_storm(benchmark):
    """A disabled tracer on the event engine must match tracer-None.

    ``SimulationEngine`` normalises a disabled tracer to ``None`` so the
    hot loop stays branch-free; if that normalisation is ever lost, every
    disabled-observability engine run pays a per-event tracer branch.
    This guard measures the 100k-event storm both ways and holds the
    delta under 3%.
    """
    from repro.obs.trace import Tracer
    from repro.sim.engine import SimulationEngine

    n = 100_000
    times = [((i * 2654435761) & 0xFFFFF) / 16.0 for i in range(n)]

    def _noop():
        pass

    def storm(tracer):
        engine = SimulationEngine(tracer=tracer)
        engine.schedule_batch(times, _noop, "storm")
        engine.run()
        assert engine.events_fired == n

    def instrumented():
        storm(Tracer(enabled=False))

    def baseline():
        storm(None)

    instrumented(), baseline()            # shared warmup
    overheads = []
    for _ in range(ATTEMPTS + 1):         # 100k-event rounds: one extra retry
        overheads.append(_paired_overhead(instrumented, baseline, rounds=10))
        if overheads[-1] < OVERHEAD_BUDGET:
            break
    benchmark.pedantic(instrumented, rounds=3, iterations=1)
    assert min(overheads) < OVERHEAD_BUDGET, (
        f"disabled-tracer engine storm overhead {min(overheads):.1%} "
        f"exceeds {OVERHEAD_BUDGET:.0%} in {len(overheads)} attempts "
        f"({overheads})")


def test_obs_off_overhead_on_columnar_fleet(benchmark):
    """Flight-recorder emission must not tax the columnar fast path.

    The columnar runner consults ``get_run_ledger()`` once per column and,
    when a ledger is active, serialises one record.  With observability
    disabled that record is small (no metrics dump, no span rollup), so a
    ledgered 20k-member fleet run must stay within 3% of an un-ledgered
    one — the guard that keeps always-on flight recording viable.
    """
    from repro.apps import GrepApplication, GrepCostProfile
    from repro.cloud import Cloud, Workload
    from repro.core import reshape
    from repro.corpus import text_400k_like
    from repro.obs.ledger import RunLedger, set_run_ledger
    from repro.runner import execute_uniform_fleet

    assert not get_obs().enabled, "bench requires the disabled default"
    workload = Workload("scan", GrepApplication(), GrepCostProfile())
    units = list(reshape(text_400k_like(scale=1e-3), None).units)[:6]
    n = 20_000

    def run_fleet():
        execute_uniform_fleet(Cloud(seed=42), workload, n, units,
                              deadline=3600.0)

    def instrumented():
        previous = set_run_ledger(RunLedger(None))
        try:
            run_fleet()
        finally:
            set_run_ledger(previous)

    instrumented(), run_fleet()           # shared warmup
    overheads = []
    for _ in range(ATTEMPTS):
        overheads.append(_paired_overhead(instrumented, run_fleet, rounds=8))
        if overheads[-1] < OVERHEAD_BUDGET:
            break
    benchmark.pedantic(instrumented, rounds=3, iterations=1)
    assert min(overheads) < OVERHEAD_BUDGET, (
        f"ledgered columnar fleet overhead {min(overheads):.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} in {ATTEMPTS} attempts ({overheads})")


def test_disabled_tracer_span_is_nanoseconds(benchmark):
    """The no-op span handout must stay an identity return, not an alloc."""
    from repro.obs.trace import NULL_SPAN, Tracer

    tracer = Tracer(enabled=False)

    def span_calls():
        for _ in range(1000):
            with tracer.span("bench.noop", cat="bench", n=1):
                pass

    benchmark(span_calls)
    assert tracer.span("bench.noop") is NULL_SPAN
    assert tracer.span_count == 0
