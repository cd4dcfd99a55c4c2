"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationEngine, SimulationError


class TestScheduling:
    def test_fires_in_time_order(self):
        eng = SimulationEngine()
        log = []
        eng.schedule_at(5.0, lambda: log.append("b"))
        eng.schedule_at(1.0, lambda: log.append("a"))
        eng.schedule_at(9.0, lambda: log.append("c"))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = SimulationEngine()
        log = []
        for tag in "abc":
            eng.schedule_at(2.0, lambda t=tag: log.append(t))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(3.5, lambda: seen.append(eng.now))
        final = eng.run()
        assert seen == [3.5]
        assert final == 3.5

    def test_schedule_in_relative(self):
        eng = SimulationEngine()
        log = []
        def first():
            eng.schedule_at(eng.now + 2.0, lambda: log.append(eng.now))
        eng.schedule_at(1.0, first)
        eng.run()
        assert log == [3.0]

    def test_schedule_in_past_rejected(self):
        eng = SimulationEngine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_at(eng.now - 0.1, lambda: None)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """NaN and ±inf would break the heap's total order; all are refused."""

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_schedule_at_rejects(self, t):
        eng = SimulationEngine()
        with pytest.raises(SimulationError, match="non-finite"):
            eng.schedule_at(t, lambda: None)
        assert eng.pending == 0

    def test_schedule_at_nan_cannot_disorder_firing(self):
        eng = SimulationEngine()
        log = []
        for t in (5.0, float("nan"), 1.0, 3.0, 2.0):
            try:
                eng.schedule_at(t, lambda t=t: log.append(t))
            except SimulationError:
                pass
        eng.run()
        assert log == [1.0, 2.0, 3.0, 5.0]

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_schedule_in_rejects(self, delay):
        eng = SimulationEngine()
        eng.schedule_at(2.0, lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            eng.schedule_at(eng.now + delay, lambda: None)
        assert eng.run() == 2.0

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_schedule_batch_rejects_atomically(self, t):
        eng = SimulationEngine()
        with pytest.raises(SimulationError, match="non-finite"):
            eng.schedule_batch([1.0, t, 2.0], lambda: None)
        assert eng.pending == 0
        assert eng.run() == 0.0


class TestRunUntil:
    def test_run_until_stops_clock(self):
        eng = SimulationEngine()
        log = []
        eng.schedule_at(1.0, lambda: log.append(1))
        eng.schedule_at(10.0, lambda: log.append(10))
        t = eng.run(until=5.0)
        assert log == [1]
        assert t == 5.0
        assert eng.pending == 1

    def test_resume_after_until(self):
        eng = SimulationEngine()
        log = []
        eng.schedule_at(10.0, lambda: log.append(10))
        eng.run(until=5.0)
        eng.run()
        assert log == [10]

    def test_run_until_with_empty_heap_advances_clock(self):
        eng = SimulationEngine()
        assert eng.run(until=7.0) == 7.0


class TestSafety:
    def test_runaway_guard(self):
        eng = SimulationEngine(max_events=10)

        def reschedule():
            eng.schedule_at(eng.now + 1.0, reschedule)

        eng.schedule_at(1.0, reschedule)
        with pytest.raises(SimulationError):
            eng.run()

    def test_events_fired_counter(self):
        eng = SimulationEngine()
        for i in range(5):
            eng.schedule_at(float(i), lambda: None)
        eng.run()
        assert eng.events_fired == 5


class TestPendingCounter:
    """``pending`` counts scheduled, not-yet-fired events."""

    def test_counter_tracks_schedule_and_fire(self):
        eng = SimulationEngine()
        for i in range(10):
            eng.schedule_at(float(i), lambda: None)
        assert eng.pending == 10
        eng.run(until=2.0)          # fires t = 0, 1, 2
        assert eng.pending == 7
        eng.run()
        assert eng.pending == 0


class TestScheduleBatch:
    def test_batch_fires_in_order(self):
        eng = SimulationEngine()
        log = []
        eng.schedule_batch(
            [3.0, 1.0, 2.0],
            [lambda: log.append("c"), lambda: log.append("a"),
             lambda: log.append("b")],
        )
        eng.run()
        assert log == ["a", "b", "c"]

    def test_batch_broadcast_callback_and_label(self):
        eng = SimulationEngine()
        log = []
        events = eng.schedule_batch([1.0, 2.0, 3.0],
                                    lambda: log.append(eng.now),
                                    "tick")
        assert [ev.label for ev in events] == ["tick"] * 3
        eng.run()
        assert log == [1.0, 2.0, 3.0]

    def test_batch_ties_fire_in_input_order(self):
        eng = SimulationEngine()
        log = []
        eng.schedule_batch(
            [2.0, 2.0, 2.0],
            [lambda: log.append("a"), lambda: log.append("b"),
             lambda: log.append("c")],
        )
        eng.run()
        assert log == ["a", "b", "c"]

    def test_batch_matches_loop_of_schedule_at(self):
        import random as _random

        rnd = _random.Random(7)
        times = [rnd.uniform(0, 50) for _ in range(400)]
        log_a, log_b = [], []
        eng_a = SimulationEngine()
        for i, t in enumerate(times):
            eng_a.schedule_at(t, lambda i=i: log_a.append(i), label=f"e{i}")
        eng_b = SimulationEngine()
        eng_b.schedule_batch(
            times,
            [lambda i=i: log_b.append(i) for i in range(len(times))],
            [f"e{i}" for i in range(len(times))],
        )
        eng_a.run()
        eng_b.run()
        assert log_a == log_b
        assert eng_a.now == eng_b.now

    def test_batch_rejects_past_times_atomically(self):
        eng = SimulationEngine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_batch([6.0, 1.0], lambda: None)
        assert eng.pending == 0

    def test_batch_length_mismatch(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_batch([1.0, 2.0], [lambda: None])
        with pytest.raises(SimulationError):
            eng.schedule_batch([1.0, 2.0], lambda: None, ["a"])

    def test_empty_batch(self):
        eng = SimulationEngine()
        assert eng.schedule_batch([], lambda: None) == []

    def test_batch_pending_counter(self):
        eng = SimulationEngine()
        eng.schedule_batch([1.0, 2.0, 3.0], lambda: None)
        assert eng.pending == 3
        eng.run(until=1.0)
        assert eng.pending == 2
        eng.run()
        assert eng.pending == 0
