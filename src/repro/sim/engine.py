"""A deterministic discrete-event simulation engine.

The EC2 simulator (:mod:`repro.cloud`) and the plan runner
(:mod:`repro.runner`) are built on this engine.  It fires events in exact
``(time, sequence)`` order — events scheduled at the same simulated time
fire in scheduling order — with a monotonic clock.  The queue is one
binary heap of ``(time, seq, event)`` tuples: O(log n) per operation, and
every workload in this repository keeps at most a few dozen events
pending, where the heap has the lowest constant factor (``tests/test_sim_engine_differential.py`` holds it to a naive
sorted-list reference with a hypothesis program generator).

Hot-path design (the "million events/sec" contract):

* :class:`Event` is a plain ``__slots__`` class — no dataclass machinery,
  no per-event dict;
* heap entries are bare tuples, compared in C;
* :meth:`SimulationEngine.schedule_batch` amortises validation and tracer
  checks over a whole batch of events;
* the no-tracer ``run`` loop is a dedicated fast path with zero tracer
  branches per event.

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
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

__all__ = ["Event", "SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling in the past or at a non-finite time, or for a
    runaway simulation."""


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
    """

    __slots__ = ("time", "callback", "label")

    def __init__(self, time: float, callback: Callable[[], None],
                 label: str = "") -> None:
        self.time = time
        self.callback = callback
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(t={self.time}, label={self.label!r})"


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
    ``sim.engine.schedule`` / ``sim.engine.fire`` instants carry each
    event's label, and every ``run`` that advances the clock records a
    ``sim.engine.run`` span on simulated time.  With no tracer (the
    default) the hot loop contains no tracer branches at all.
    """

    def __init__(self, max_events: int = 10_000_000,
                 tracer: "Tracer | None" = None) -> None:
        # (time, seq, Event) tuples.  Only ever mutated in place, so the
        # run loop may hold a reference across callbacks.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._fired = 0
        self.max_events = max_events
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
        ev = Event(time, callback, label)
        self._insert(time, ev)
        if self._tracer is not None:
            self._tracer.instant("sim.engine.schedule", cat="sim",
                                 track="sim", label=label, t=time)
        return ev

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
                       labels if one_label else labels[i])
            insert(t, ev)
            append(ev)
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

    # -- execution -------------------------------------------------------

    def _fire(self, entry: tuple[float, int, Event]) -> None:
        """Consume one entry (already popped off the heap)."""
        ev = entry[2]
        self._now = entry[0]
        self._fired += 1
        if self._fired > self.max_events:
            raise SimulationError(f"runaway simulation: >{self.max_events} events")
        if self._tracer is not None:
            self._tracer.instant("sim.engine.fire", cat="sim",
                                 track="sim", label=ev.label)
        ev.callback()

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
        """The hot loop: bound-check / pop / fire, nothing else."""
        pop = heapq.heappop
        heap = self._heap
        fire = self._fire
        if until is None:
            while heap:
                fire(pop(heap))
            return self._now
        while heap and heap[0][0] <= until:
            fire(pop(heap))
        if until > self._now:
            self._now = until
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired events."""
        return len(self._heap)
