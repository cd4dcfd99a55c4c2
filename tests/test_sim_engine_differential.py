"""Differential oracle: the heap engine ≡ a naive reference queue.

The engine's observable behaviour (which events fire, in what order, at
what clock readings) must be *identical* to the simplest queue that could
possibly be right — a list of pending events fired by ``(time, seq)`` —
not merely equivalent.  Two layers of evidence:

* a hypothesis property drives the engine and :class:`ReferenceQueue`
  through the same random program of ``schedule`` / ``schedule_batch`` /
  ``run-until`` operations (including callbacks that schedule
  follow-ups while firing) and compares the full firing transcript;
* whole campaigns — scalar ``execute_plan``, clean and under chaos
  scenarios — must reproduce recorded fingerprints of their reports and
  ledgers bit for bit across seeds × scenarios.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.chaos import FaultInjector, get_scenario
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.obs.trace import Tracer
from repro.perfmodel.regression import fit_affine
from repro.runner import execute_plan
from repro.sim.engine import SimulationEngine

# ---------------------------------------------------------------------------
# the reference queue
# ---------------------------------------------------------------------------

class _RefEvent:
    def __init__(self, time, seq, callback):
        self.time, self.seq, self.callback = time, seq, callback


class ReferenceQueue:
    """Naive oracle: one list of events kept sorted by ``(time, seq)``,
    fired front first.  Slow and obviously right."""

    def __init__(self):
        self.now, self.events_fired, self._seq, self._events = 0.0, 0, 0, []

    @property
    def pending(self):
        return len(self._events)

    def schedule_at(self, time, callback, label=""):
        return self.schedule_batch([time], [callback])[0]

    def schedule_batch(self, times, callbacks, labels=()):
        new = [_RefEvent(t, self._seq + i, cb)
               for i, (t, cb) in enumerate(zip(times, callbacks))]
        self._seq += len(new)
        self._events = sorted(self._events + new, key=lambda e: (e.time, e.seq))
        return new

    def _fire_next(self, until):
        if not self._events or self._events[0].time > until:
            return None
        ev = self._events.pop(0)
        self.now, self.events_fired = ev.time, self.events_fired + 1
        ev.callback()
        return ev

    def run(self, until=None):
        while self._fire_next(math.inf if until is None else until) is not None:
            pass
        if until is not None and until > self.now:
            self.now = until
        return self.now


# ---------------------------------------------------------------------------
# random engine programs
# ---------------------------------------------------------------------------

# One op per tuple; all times are relative so programs stay legal on any
# clock.  ("chain", dt, dt2) schedules a callback that, while firing,
# schedules a second event dt2 later — exercising insert-during-fire.
_OPS = st.one_of(
    st.tuples(st.just("schedule"),
              st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("batch"),
              st.lists(st.floats(0.0, 500.0, allow_nan=False,
                                 allow_infinity=False),
                       min_size=1, max_size=20)),
    st.tuples(st.just("chain"),
              st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
              st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("run"),
              st.floats(0.0, 300.0, allow_nan=False, allow_infinity=False)),
)

PROGRAMS = st.lists(_OPS, min_size=1, max_size=40)


def _interpret(engine, program) -> dict:
    """Run a program; return the full observable transcript."""
    fired: list[tuple[float, str, int]] = []
    n = 0

    def logger(label):
        def cb():
            fired.append((engine.now, label, engine.events_fired))
        return cb

    def chained(label, dt2):
        def cb():
            fired.append((engine.now, label, engine.events_fired))
            engine.schedule_at(engine.now + dt2, logger(f"{label}.child"),
                               label=f"{label}.child")
        return cb

    for op in program:
        kind = op[0]
        if kind == "schedule":
            label = f"ev{n}"
            n += 1
            engine.schedule_at(engine.now + op[1], logger(label), label=label)
        elif kind == "batch":
            labels = [f"b{n + i}" for i in range(len(op[1]))]
            n += len(op[1])
            engine.schedule_batch([engine.now + dt for dt in op[1]],
                                  [logger(lb) for lb in labels], labels)
        elif kind == "chain":
            label = f"c{n}"
            n += 1
            engine.schedule_at(engine.now + op[1], chained(label, op[2]),
                               label=label)
        elif kind == "run":
            engine.run(until=engine.now + op[1])
    # drain whatever is left so late events are compared too
    engine.run()
    return {
        "fired": fired,
        "now": engine.now,
        "events_fired": engine.events_fired,
        "pending": engine.pending,
    }


class TestRandomPrograms:
    @settings(max_examples=160, deadline=None)
    @given(program=PROGRAMS)
    def test_engine_matches_reference_queue(self, program):
        engine = _interpret(SimulationEngine(), program)
        reference = _interpret(ReferenceQueue(), program)
        assert engine == reference

    @settings(max_examples=40, deadline=None)
    @given(program=PROGRAMS)
    def test_traced_engine_matches_reference_queue(self, program):
        """An enabled tracer takes the traced schedule/fire branches;
        the transcript must not change."""
        engine = _interpret(SimulationEngine(tracer=Tracer()), program)
        reference = _interpret(ReferenceQueue(), program)
        assert engine == reference

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False,
                                    allow_infinity=False),
                          min_size=2, max_size=30))
    def test_equal_times_fire_in_schedule_order(self, times):
        """Ties break by scheduling sequence, as in the reference."""
        dup = times + times[:5]          # force collisions
        results = []
        for eng in (SimulationEngine(), ReferenceQueue()):
            order = []
            for i, t in enumerate(dup):
                eng.schedule_at(t, lambda i=i: order.append(i), label=str(i))
            eng.run()
            results.append(order)
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# whole campaigns against recorded fingerprints
# ---------------------------------------------------------------------------

def _model():
    x = np.array([1e5, 1e6, 5e6])
    return fit_affine(x, 0.327 + 0.865e-4 * x)


def _workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def _plan(deadline=30.0):
    cat = text_400k_like(scale=1e-3)
    units = reshape(cat, None).units
    return StaticProvisioner(_model()).plan(units, deadline)


def _digest(fingerprint) -> str:
    """A stable short hash of a fingerprint (floats hashed by exact repr)."""
    def norm(x):
        if isinstance(x, (list, tuple)):
            return tuple(norm(v) for v in x)
        return float(x) if isinstance(x, float) else x
    return hashlib.sha256(repr(norm(fingerprint)).encode()).hexdigest()[:16]


def _report_fingerprint(cloud: Cloud, report) -> tuple:
    return (
        tuple((r.instance_id, r.boot_delay, r.duration, r.missed(30.0))
              for r in report.runs),
        report.makespan,
        report.instance_hours,
        cloud.ledger.total_cost,
        cloud.engine.now,
        cloud.engine.events_fired,
    )


#: Fingerprint digests recorded before the engine went heap-only.
RECORDED = {
    ("flaky-boots", 11): "427cae15c4628566",
    ("flaky-boots", 23): "9a5433a72c2fe6cc",
    ("slow-ebs", 11): "0199fb6ee5e0d1de",
    ("slow-ebs", 23): "d89f3dea7f226ccd",
    ("clean", 3): "58249c85d0c1e61e",
    ("clean", 17): "1c861816872b14cf",
}


class TestCampaignEquality:
    @pytest.mark.parametrize("seed", [11, 23])
    @pytest.mark.parametrize("scenario", ["flaky-boots", "slow-ebs"])
    def test_chaos_campaign_bit_identical(self, seed, scenario):
        injector = FaultInjector([get_scenario(scenario)], seed=seed)
        cloud = Cloud(seed=seed, chaos=injector)
        report = execute_plan(cloud, _workload(), _plan())
        fingerprint = _report_fingerprint(cloud, report)
        assert _digest(fingerprint) == RECORDED[(scenario, seed)]

    @pytest.mark.parametrize("seed", [3, 17])
    def test_clean_campaign_bit_identical(self, seed):
        cloud = Cloud(seed=seed)
        report = execute_plan(cloud, _workload(), _plan())
        fingerprint = _report_fingerprint(cloud, report)
        assert _digest(fingerprint) == RECORDED[("clean", seed)]
