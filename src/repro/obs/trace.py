"""Hierarchical span tracing on simulated (or any monotone) time.

A :class:`Tracer` records two kinds of facts:

* **spans** — named intervals ``[t0, t1]`` on a *track* (one row per
  instance, per subsystem, …), either measured live through the context
  manager returned by :meth:`Tracer.span`, or recorded retrospectively
  with :meth:`Tracer.add_span` (the plan runners compute per-instance
  elapsed times against a common start without advancing the shared
  clock, so their intervals are only known after the fact);
* **instants** — point events (engine schedule/fire, billing
  ticks, crash detections) recorded with :meth:`Tracer.instant`.

Time comes from a pluggable zero-argument ``clock``.  The cloud binds the
tracer to its simulation engine (``lambda: engine.now``), so every span is
on *simulated* seconds — one trace of a deterministic run is itself
deterministic, which wall-clock tracers can never promise.  An unbound
tracer reads ``0.0`` until :meth:`bind_clock` is called; wall-clock tracing
is just ``Tracer(clock=time.perf_counter)``.

Disabled fast path
------------------
``Tracer(enabled=False)`` costs one attribute check per call site:
:meth:`span` returns the shared :data:`NULL_SPAN` singleton (no object is
allocated) and :meth:`instant` returns immediately without recording.
The perf guard in ``benchmarks/`` holds this under 3 % on the hot packing
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["SpanRecord", "InstantRecord", "Span", "Tracer", "NULL_SPAN"]

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


@dataclass(frozen=True)
class SpanRecord:
    """One finished interval."""

    name: str
    cat: str
    t0: float
    t1: float
    track: str
    depth: int
    args: dict

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class InstantRecord:
    """One point event."""

    name: str
    cat: str
    t: float
    track: str
    args: dict


class _NullSpan:
    """Shared no-op context manager handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self


#: The one instance a disabled tracer ever returns (identity-testable:
#: ``tracer.span(...) is NULL_SPAN`` proves no allocation happened).
NULL_SPAN = _NullSpan()


class Span:
    """A live span; it records itself into the tracer on exit.

    If the guarded block raises, the span still closes and gains an
    ``error`` argument with the exception type name.
    """

    __slots__ = ("_tracer", "name", "cat", "track", "t0", "args", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: str,
                 args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args
        self.t0 = 0.0
        self._depth = 0

    def set(self, **args: Any) -> "Span":
        """Attach or update span arguments; chainable."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self.t0 = self._tracer._clock()
        self._depth = self._tracer._push(self.track)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._pop(self.track)
        self._tracer._finish(self)
        return False


class Tracer:
    """Span + instant recorder with a no-op fast path when disabled.

    Hot-path storage is columnar-ish: records land as plain tuples in
    append-only lists (no dataclass construction, no argument-dict copy —
    ``**args`` is already a fresh dict per call) and are materialised into
    :class:`SpanRecord`/:class:`InstantRecord` objects lazily, the first
    time :attr:`spans`/:attr:`instants` is read.  Recording a span at
    scale is one tuple + one ``list.append``; the object cost is paid only
    by inspection code, and only once per record.
    """

    def __init__(self, clock: Clock | None = None, *, enabled: bool = True,
                 max_records: int = 1_000_000) -> None:
        self.enabled = enabled
        self._clock: Clock = clock or _zero_clock
        # raw rows: (name, cat, t0, t1, track, depth, args) / (name, cat,
        # t, track, args); materialised record caches trail them.
        self._raw_spans: list[tuple] = []
        self._raw_instants: list[tuple] = []
        self._span_cache: list[SpanRecord] = []
        self._instant_cache: list[InstantRecord] = []
        self._count = 0
        self._depths: dict[str, int] = {}
        self.max_records = max_records
        self.dropped = 0

    # -- clock -----------------------------------------------------------

    def bind_clock(self, clock: Clock) -> None:
        """Point the tracer at a time source (e.g. a simulation engine).

        A tracer has exactly one clock; binding again re-points it, so a
        tracer shared across several clouds reads the *last* bound engine.
        """
        self._clock = clock

    @property
    def now(self) -> float:
        """Current reading of the bound clock (0.0 while unbound)."""
        return self._clock()

    # -- recording -------------------------------------------------------

    def span(self, name: str, cat: str = "", *, track: str = "main",
             **args: Any):
        """Open a span as a context manager; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, track, args)

    def add_span(self, name: str, t0: float, t1: float, cat: str = "", *,
                 track: str = "main", **args: Any) -> None:
        """Record an interval whose endpoints are already known."""
        if not self.enabled:
            return
        if t1 < t0:
            raise ValueError(f"span {name!r} ends before it starts: [{t0}, {t1}]")
        if self._full():
            return
        self._count += 1
        self._raw_spans.append((name, cat, t0, t1, track,
                                self._depths.get(track, 0), args))

    def instant(self, name: str, cat: str = "", *, track: str = "main",
                **args: Any) -> None:
        """Record a point event at the current clock reading."""
        if not self.enabled or self._full():
            return
        self._count += 1
        self._raw_instants.append((name, cat, self._clock(), track, args))

    # -- live-span plumbing ----------------------------------------------

    def _push(self, track: str) -> int:
        depth = self._depths.get(track, 0)
        self._depths[track] = depth + 1
        return depth

    def _pop(self, track: str) -> None:
        depth = self._depths.get(track, 0)
        if depth > 1:
            self._depths[track] = depth - 1
        else:
            self._depths.pop(track, None)

    def _finish(self, span: Span) -> None:
        if self._full():
            return
        self._count += 1
        self._raw_spans.append((span.name, span.cat, span.t0, self._clock(),
                                span.track, span._depth, span.args))

    def _full(self) -> bool:
        if self._count >= self.max_records:
            self.dropped += 1
            return True
        return False

    # -- inspection ------------------------------------------------------

    def _materialized_spans(self) -> list[SpanRecord]:
        """Materialise the raw tail into the record cache (idempotent)."""
        cache = self._span_cache
        raw = self._raw_spans
        for i in range(len(cache), len(raw)):
            name, cat, t0, t1, track, depth, args = raw[i]
            cache.append(SpanRecord(name, cat, t0, t1, track, depth, args))
        return cache

    def _materialized_instants(self) -> list[InstantRecord]:
        cache = self._instant_cache
        raw = self._raw_instants
        for i in range(len(cache), len(raw)):
            name, cat, t, track, args = raw[i]
            cache.append(InstantRecord(name, cat, t, track, args))
        return cache

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Finished spans in completion order (children before parents)."""
        return tuple(self._materialized_spans())

    @property
    def instants(self) -> tuple[InstantRecord, ...]:
        return tuple(self._materialized_instants())

    @property
    def span_count(self) -> int:
        return len(self._raw_spans)

    @property
    def event_count(self) -> int:
        """Total records (spans + instants)."""
        return self._count

    def categories(self) -> set[str]:
        """Distinct non-empty ``cat`` values across spans and instants."""
        cats = {row[1] for row in self._raw_spans if row[1]}
        cats.update(row[1] for row in self._raw_instants if row[1])
        return cats

    def tracks(self) -> list[str]:
        """Track names in order of first appearance."""
        seen: dict[str, None] = {}
        for row in self._raw_spans:
            seen.setdefault(row[4])
        for row in self._raw_instants:
            seen.setdefault(row[3])
        return list(seen)

    def spans_named(self, name: str) -> list[SpanRecord]:
        """All finished spans with this exact name."""
        return [s for s in self._materialized_spans() if s.name == name]
