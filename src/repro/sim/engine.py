"""A deterministic discrete-event simulation engine.

The EC2 simulator (:mod:`repro.cloud`) and the plan runner
(:mod:`repro.runner`) are built on this engine.  It fires events in exact
``(time, sequence)`` order — events scheduled at the same simulated time
fire in scheduling order — with a monotonic clock and a cancellation
facility.  The queue is one binary heap of ``(time, seq, event)`` tuples:
O(log n) per operation, and every workload in this repository keeps at
most a few dozen events pending, where the heap has the lowest constant
factor (``tests/test_sim_engine_differential.py`` holds it to a naive
sorted-list reference with a hypothesis program generator).

Hot-path design (the "million events/sec" contract):

* :class:`Event` is a plain ``__slots__`` class — no dataclass machinery,
  no per-event dict;
* heap entries are bare tuples, compared in C;
* :meth:`SimulationEngine.schedule_batch` amortises validation and tracer
  checks over a whole batch of events;
* the no-tracer ``run`` loop is a dedicated fast path with zero tracer
  branches per event;
* cancelled entries are *compacted* out of the heap once they exceed
  half of the stored population, so cancel-heavy workloads (hedged
  launches, straggler replacement) cannot bloat peeks and pops.

Determinism contract
--------------------
Given the same sequence of ``schedule`` calls, ``run`` produces the same
sequence of callbacks.  No wall-clock time is ever consulted; simulated
time is a finite ``float`` number of seconds — NaN and infinite event
times are rejected, since they would break the heap's total order.
"""

from __future__ import annotations

import heapq
from math import inf, isfinite
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

__all__ = ["Event", "SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling in the past or at a non-finite time, counter
    corruption, or a runaway simulation."""


#: Never compact below this many stored entries (compaction is O(n)).
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time (seconds) at which the callback fires.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable tag used in traces and error messages.
    cancelled:
        True once :meth:`cancel` ran; the engine skips the event.
    """

    __slots__ = ("time", "callback", "label", "cancelled",
                 "_engine", "_consumed", "_tracked")

    def __init__(self, time: float, callback: Callable[[], None],
                 label: str = "", cancelled: bool = False,
                 _engine: "SimulationEngine | None" = None,
                 _consumed: bool = False, _tracked: bool = False) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        #: Owning engine (None for a hand-built, never-scheduled event).
        self._engine = _engine
        #: True once the event fired (cancel after firing is a no-op).
        self._consumed = _consumed
        #: True only while the engine's live ``pending`` counter includes
        #: this event (set on schedule, cleared on fire and on first
        #: cancel).  The counter is only ever decremented through this
        #: flag, so a cancel that races a drained ``run`` — or a cancel of
        #: a hand-built Event that was never scheduled — cannot drive
        #: ``pending`` negative.
        self._tracked = _tracked

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else (
            "fired" if self._consumed else "pending")
        return f"Event(t={self.time}, label={self.label!r}, {state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Idempotent: repeated cancels (and cancels after the event fired,
        or after the engine drained) leave the pending count untouched.
        """
        if self.cancelled or self._consumed:
            return
        self.cancelled = True
        eng = self._engine
        if eng is not None and self._tracked:
            self._tracked = False
            eng._note_cancel(self)


class SimulationEngine:
    """Discrete-event scheduler with a monotonic clock.

    Parameters
    ----------
    max_events:
        Runaway guard: raise :class:`SimulationError` past this many fires.
    tracer:
        Optional structured event log; ``None`` (or a disabled tracer)
        selects the branch-free fast path.

    With an enabled ``tracer``, the engine keeps a structured event log:
    ``sim.engine.schedule`` / ``sim.engine.fire`` / ``sim.engine.cancel``
    instants carry each event's label, and every ``run`` that advances the
    clock records a ``sim.engine.run`` span on simulated time.  With no
    tracer (the default) the hot loop contains no tracer branches at all.
    """

    def __init__(self, max_events: int = 10_000_000,
                 tracer: "Tracer | None" = None) -> None:
        # (time, seq, Event) tuples, cancelled entries included until
        # popped or compacted.  Only ever mutated in place, so the run
        # loop may hold a reference across callbacks.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._fired = 0
        self._pending = 0
        self.max_events = max_events
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Install (or remove, with ``None``) the structured event log."""
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._fired

    # -- scheduling ------------------------------------------------------

    def _reject(self, time: float, what: str) -> SimulationError:
        if isfinite(time):
            return SimulationError(
                f"cannot schedule {what} at t={time} (now={self._now})")
        return SimulationError(f"non-finite time {time} for {what}")

    def schedule_at(self, time: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not self._now <= time < inf:   # also false for NaN
            raise self._reject(time, label or "event")
        ev = Event(time, callback, label, False, self, False, True)
        self._insert(time, ev)
        self._pending += 1
        if self._tracer is not None:
            self._tracer.instant("sim.engine.schedule", cat="sim",
                                 track="sim", label=label, t=time)
        return ev

    def schedule_in(self, delay: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label or 'event'}")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_batch(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]] | Callable[[], None],
        labels: Sequence[str] | str = "",
    ) -> list[Event]:
        """Schedule many events in one call, amortising per-event overhead.

        ``callbacks`` may be one callable (broadcast to every time) or a
        sequence matching ``times``; likewise ``labels``.  Events are
        assigned sequence numbers in input order, so ties fire in input
        order — exactly as the equivalent loop of :meth:`schedule_at`
        calls would.  Validation happens up front: either every event is
        scheduled or none is.
        """
        times = list(times)
        n = len(times)
        if n == 0:
            return []
        one_cb = callable(callbacks)
        one_label = isinstance(labels, str)
        if not one_cb and len(callbacks) != n:
            raise SimulationError(
                f"schedule_batch: {n} times but {len(callbacks)} callbacks")
        if not one_label and len(labels) != n:
            raise SimulationError(
                f"schedule_batch: {n} times but {len(labels)} labels")
        if not all(map(isfinite, times)) or min(times) < self._now:
            bad = next((t for t in times if not isfinite(t)), min(times))
            raise self._reject(bad, "batch event")
        events: list[Event] = []
        append = events.append
        insert = self._insert
        for i in range(n):
            t = times[i]
            ev = Event(t, callbacks if one_cb else callbacks[i],
                       labels if one_label else labels[i],
                       False, self, False, True)
            insert(t, ev)
            append(ev)
        self._pending += n
        tracer = self._tracer
        if tracer is not None:
            for ev in events:
                tracer.instant("sim.engine.schedule", cat="sim",
                               track="sim", label=ev.label, t=ev.time)
        return events

    def _insert(self, time: float, ev: Event) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ev))

    def _peek_entry(self) -> tuple[float, int, Event] | None:
        """The next live entry, still on the heap (cancelled ones are
        dropped)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry
            heapq.heappop(heap)
        return None

    # -- cancellation bookkeeping ----------------------------------------

    def _note_cancel(self, ev: Event) -> None:
        """First cancel of a tracked event: counter + compaction + trace."""
        self._pending -= 1
        if self._pending < 0:
            self._pending = 0
            raise SimulationError(
                f"pending counter underflow cancelling {ev.label or 'event'}")
        if self._tracer is not None:
            self._tracer.instant("sim.engine.cancel", cat="sim",
                                 track="sim", label=ev.label, t=ev.time)
        # Compaction: cancelled entries linger in the heap until popped,
        # so a cancel-heavy workload (hedged launches, straggler
        # replacement) would otherwise bloat every peek and pop.  Once
        # they exceed half the stored population, rebuild without them.
        heap = self._heap
        stored = len(heap)
        if stored - self._pending > (stored >> 1) and stored > _COMPACT_MIN:
            heap[:] = [e for e in heap if not e[2].cancelled]
            heapq.heapify(heap)

    # -- execution -------------------------------------------------------

    def _fire(self, entry: tuple[float, int, Event]) -> Event:
        """Consume one live entry (already popped off the heap)."""
        ev = entry[2]
        ev._consumed = True
        ev._tracked = False
        self._pending -= 1
        self._now = entry[0]
        self._fired += 1
        if self._fired > self.max_events:
            raise SimulationError(f"runaway simulation: >{self.max_events} events")
        if self._tracer is not None:
            self._tracer.instant("sim.engine.fire", cat="sim",
                                 track="sim", label=ev.label)
        ev.callback()
        return ev

    def step(self) -> Optional[Event]:
        """Fire the next pending event; return it, or ``None`` if drained."""
        entry = self._peek_entry()
        if entry is None:
            return None
        heapq.heappop(self._heap)
        return self._fire(entry)

    def run(self, until: float | None = None) -> float:
        """Fire events until the heap drains (or ``until`` passes).

        Returns the final simulated time.  With ``until`` set, events at
        times strictly greater than ``until`` remain pending and the clock
        is advanced to ``until``.
        """
        if self._tracer is None:
            return self._run_fast(until)
        t_start, fired_before = self._now, self._fired
        try:
            return self._run_fast(until)
        finally:
            if self._now > t_start:
                self._tracer.add_span("sim.engine.run", t_start, self._now,
                                      cat="sim", track="sim",
                                      fired=self._fired - fired_before)

    def _run_fast(self, until: float | None) -> float:
        """The hot loop: peek / bound-check / fire, nothing else."""
        peek = self._peek_entry
        pop = heapq.heappop
        heap = self._heap
        fire = self._fire
        if until is None:
            while True:
                entry = peek()
                if entry is None:
                    return self._now
                pop(heap)
                fire(entry)
        while True:
            entry = peek()
            if entry is None or entry[0] > until:
                break
            pop(heap)
            fire(entry)
        if until > self._now:
            self._now = until
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        Maintained as a live counter (incremented on schedule, decremented
        on fire and on first cancel) so runners polling it per event stay
        O(1) instead of rescanning the heap.
        """
        return self._pending

    @property
    def stored_entries(self) -> int:
        """Entries physically held by the heap, cancelled included.

        The compaction guarantee is ``stored_entries <= 2 * pending`` (up
        to the :data:`_COMPACT_MIN` floor) — cancel-heavy workloads cannot
        grow this without bound.
        """
        return len(self._heap)
