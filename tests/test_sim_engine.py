"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, SimulationEngine, SimulationError


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
            eng.schedule_in(2.0, lambda: log.append(eng.now))
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
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(-0.1, lambda: None)


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
            eng.schedule_in(delay, lambda: None)
        assert eng.run() == 2.0

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_schedule_batch_rejects_atomically(self, t):
        eng = SimulationEngine()
        with pytest.raises(SimulationError, match="non-finite"):
            eng.schedule_batch([1.0, t, 2.0], lambda: None)
        assert eng.pending == 0
        assert eng.stored_entries == 0
        assert eng.run() == 0.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = SimulationEngine()
        log = []
        ev = eng.schedule_at(1.0, lambda: log.append("x"))
        eng.schedule_at(2.0, lambda: log.append("y"))
        ev.cancel()
        eng.run()
        assert log == ["y"]

    def test_pending_ignores_cancelled(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert eng.pending == 1


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
            eng.schedule_in(1.0, reschedule)

        eng.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError):
            eng.run()

    def test_events_fired_counter(self):
        eng = SimulationEngine()
        for i in range(5):
            eng.schedule_at(float(i), lambda: None)
        eng.run()
        assert eng.events_fired == 5


class TestPendingCounter:
    """``pending`` is a live counter, not a heap scan (regression)."""

    def test_cancel_is_idempotent(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        ev.cancel()
        assert eng.pending == 1

    def test_cancel_after_fire_does_not_decrement(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        eng.step()
        assert eng.pending == 1
        ev.cancel()  # already fired: must be a no-op
        assert eng.pending == 1

    def test_counter_tracks_schedule_fire_cancel(self):
        eng = SimulationEngine()
        events = [eng.schedule_at(float(i), lambda: None) for i in range(10)]
        assert eng.pending == 10
        events[7].cancel()
        events[8].cancel()
        assert eng.pending == 8
        for _ in range(3):
            eng.step()
        assert eng.pending == 5
        eng.run()
        assert eng.pending == 0

    def test_cancel_inside_callback(self):
        eng = SimulationEngine()
        victim = eng.schedule_at(5.0, lambda: None)
        eng.schedule_at(1.0, victim.cancel)
        eng.run()
        assert eng.pending == 0
        assert eng.events_fired == 1

    def test_cancel_after_drain_cannot_underflow(self):
        """Regression: cancelling once the engine drained must not push
        the live counter negative (the decrement is gated on ``_tracked``,
        which firing clears)."""
        eng = SimulationEngine()
        events = [eng.schedule_at(float(i), lambda: None) for i in range(3)]
        eng.run()
        assert eng.pending == 0
        for ev in events:
            ev.cancel()
            ev.cancel()
        assert eng.pending == 0

    def test_cancel_of_unscheduled_event_cannot_underflow(self):
        """A hand-built Event pointing at an engine was never counted, so
        cancelling it must not decrement."""
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        stray = Event(time=9.0, callback=lambda: None, _engine=eng)
        stray.cancel()
        assert stray.cancelled
        assert eng.pending == 1
        eng.run()
        assert eng.pending == 0

    def test_pending_matches_heap_scan(self):
        import random as _random

        rnd = _random.Random(11)
        eng = SimulationEngine()
        live = []
        for _ in range(300):
            r = rnd.random()
            if r < 0.5:
                live.append(eng.schedule_at(eng.now + rnd.random(), lambda: None))
            elif r < 0.75 and live:
                live.pop(rnd.randrange(len(live))).cancel()
            else:
                eng.step()
            scan = sum(1 for e in eng._heap if not e[2].cancelled)
            assert eng.pending == scan


class TestUnderflowRaises:
    """Satellite: the pending-counter underflow guard must survive
    ``python -O`` — it raises :class:`SimulationError`, not ``assert``."""

    def test_underflow_raises_simulation_error(self):
        eng = SimulationEngine()
        # A hand-built event claiming to be tracked, while the engine's
        # counter is at zero: the only way to drive the counter negative.
        rogue = Event(time=1.0, callback=lambda: None,
                      _engine=eng, _tracked=True)
        with pytest.raises(SimulationError, match="underflow"):
            rogue.cancel()
        # The counter is clamped back to zero, not left negative.
        assert eng.pending == 0

    def test_underflow_guard_not_an_assert(self):
        import inspect

        from repro.sim import engine as engine_mod

        src = inspect.getsource(engine_mod.SimulationEngine._note_cancel)
        assert "assert" not in src


class TestCompaction:
    """Satellite: cancelled entries must not accumulate without bound."""

    def test_heap_size_stays_bounded_under_cancel_storm(self):
        eng = SimulationEngine()
        for round_ in range(50):
            events = [eng.schedule_at(eng.now + 1.0 + i * 1e-3, lambda: None)
                      for i in range(100)]
            for ev in events:
                ev.cancel()
            # Compaction guarantee: stored <= 2 * pending (+ small floor).
            assert eng.stored_entries <= max(2 * eng.pending, 128)
        assert eng.pending == 0
        assert eng.stored_entries <= 128

    def test_compaction_preserves_live_events(self):
        eng = SimulationEngine()
        log = []
        keep = [eng.schedule_at(float(i), lambda i=i: log.append(i))
                for i in range(10)]
        doomed = [eng.schedule_at(100.0 + i, lambda: log.append(-1))
                  for i in range(200)]
        for ev in doomed:
            ev.cancel()
        assert keep  # silence unused warning
        eng.run()
        assert log == list(range(10))


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
        events = eng.schedule_batch([1.0, 2.0, 3.0], lambda: None)
        assert eng.pending == 3
        events[1].cancel()
        assert eng.pending == 2
        eng.run()
        assert eng.pending == 0
