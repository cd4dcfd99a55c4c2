"""Perf guards: flight-recorder emission must cost <2% on the runner core,
and an experiment's own record <5% of the experiment.

Every ``ExecutionCore.run`` pays one ``get_run_ledger()`` read; with a
ledger active it additionally builds and appends one ``RunRecord``
(config, billing summary, deadline outcome, phase profile — metrics and
span rollups only when observability is on).  This bench drives the
64-instance ``execute_plan`` run the trajectory file tracks, ledgered vs
un-ledgered, with the same interleaved paired-median methodology as the
observability overhead guard, and holds the emission cost under 2%.
``test_experiment_record_overhead`` runs smoke-scale Fig. 8 (four
executed plans plus its experiment record) against a file-backed ledger
and against none, and holds the difference under 5%.
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.core import reshape
from repro.core.planner import ProvisioningPlan
from repro.corpus import text_400k_like
from repro.experiments import exp_pos
from repro.obs import get_obs
from repro.obs.ledger import RunLedger, get_run_ledger, set_run_ledger
from repro.perfmodel.regression import fit_affine
from repro.runner import execute_plan

ROUNDS = 14
ATTEMPTS = 3
OVERHEAD_BUDGET = 0.02
EXPERIMENT_BUDGET = 0.05
EXPERIMENT_ROUNDS = 8


def _paired_overhead(instrumented, baseline, rounds=ROUNDS, setup=None):
    """Median-ratio overhead; ``setup()`` (untimed) feeds each call."""
    ta, tb = [], []
    gc.collect()
    gc.disable()
    try:
        for i in range(rounds):
            pair = ((instrumented, ta), (baseline, tb))
            if i % 2:
                pair = tuple(reversed(pair))
            for fn, out in pair:
                args = () if setup is None else (setup(),)
                t0 = time.perf_counter()
                fn(*args)
                out.append(time.perf_counter() - t0)
            gc.collect(0)
    finally:
        gc.enable()
    return statistics.median(ta) / statistics.median(tb) - 1.0


def _plan(n_bins: int = 64) -> tuple[ProvisioningPlan, Workload]:
    units = reshape(text_400k_like(scale=0.02), None).units
    model = fit_affine(np.array([1e5, 1e6, 5e6]),
                       0.327 + 0.865e-4 * np.array([1e5, 1e6, 5e6]))
    assignments = [units._take(range(i, len(units), n_bins), f"bin{i}")
                   for i in range(n_bins)]
    plan = ProvisioningPlan(
        deadline=240.0, planning_deadline=240.0, strategy="uniform",
        predictor_name="affine", assignments=assignments,
        predicted_times=[model.predict(b.total_size) for b in assignments])
    workload = Workload("postag", PosTaggerApplication(), PosCostProfile())
    return plan, workload


@pytest.mark.perf
def test_ledger_emission_overhead_on_execute_plan(benchmark):
    assert not get_obs().enabled, "bench requires the disabled default"
    assert get_run_ledger() is None, "bench requires no active ledger"
    plan, workload = _plan()

    def run_plan():
        execute_plan(Cloud(seed=2010), workload, plan)

    def ledgered():
        previous = set_run_ledger(RunLedger(None))
        try:
            run_plan()
        finally:
            set_run_ledger(previous)

    ledgered(), run_plan()                # shared warmup
    overheads = []
    for _ in range(ATTEMPTS):
        overheads.append(_paired_overhead(ledgered, run_plan))
        if overheads[-1] < OVERHEAD_BUDGET:
            break
    benchmark.pedantic(ledgered, rounds=3, iterations=1)
    assert min(overheads) < OVERHEAD_BUDGET, (
        f"ledger emission overhead {min(overheads):.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} in {ATTEMPTS} attempts ({overheads})")


@pytest.mark.perf
def test_ledgered_run_emits_exactly_one_record(benchmark):
    plan, workload = _plan(n_bins=16)
    ledger = RunLedger(None)

    def run_once():
        previous = set_run_ledger(ledger)
        try:
            execute_plan(Cloud(seed=2010), workload, plan)
        finally:
            set_run_ledger(previous)

    benchmark.pedantic(run_once, rounds=2, iterations=1)
    records = ledger.records(kind="runner")
    assert len(records) == len(ledger.records())   # nothing else leaked
    assert all(r.label == "execute_plan" for r in records)


@pytest.mark.perf
def test_experiment_record_overhead(benchmark, tmp_path):
    assert not get_obs().enabled, "bench requires the disabled default"
    assert get_run_ledger() is None, "bench requires no active ledger"
    ledger = RunLedger(tmp_path / "runs")

    def testbed():
        return exp_pos.make_testbed(scale=0.05)

    def bare(tb):
        exp_pos.fig8(tb, deadline=120.0)

    def ledgered(tb):
        previous = set_run_ledger(ledger)
        try:
            bare(tb)
        finally:
            set_run_ledger(previous)

    ledgered(testbed()), bare(testbed())       # shared warmup
    overheads = []
    for _ in range(ATTEMPTS):
        overheads.append(_paired_overhead(ledgered, bare, EXPERIMENT_ROUNDS,
                                          setup=testbed))
        if overheads[-1] < EXPERIMENT_BUDGET:
            break
    benchmark.pedantic(ledgered, setup=lambda: ((testbed(),), {}),
                       rounds=1, iterations=1)
    assert ledger.records(label="exp_pos.fig8")
    assert min(overheads) < EXPERIMENT_BUDGET, (
        f"experiment record overhead {min(overheads):.1%} exceeds "
        f"{EXPERIMENT_BUDGET:.0%} in {ATTEMPTS} attempts ({overheads})")
