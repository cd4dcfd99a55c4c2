"""Counters, gauges and fixed-bucket histograms with labelled series.

Metric names follow the ``layer.component.name`` convention (lowercase,
dot-separated, at least two dots' worth of structure is encouraged but two
segments are accepted): ``packing.cache.hits``, ``runner.deadline.margin``,
``cloud.instance.boot_seconds``.  A *series* is a name plus a sorted label
set (``heuristic=subset_sum``); asking for the same series twice returns
the same instrument, so hot paths can keep a reference and skip the lookup
entirely.

The registry is deliberately primitive: plain Python attributes, no locks,
no background threads.  ``snapshot()`` returns nested plain dicts (JSON-
ready); ``dump()`` and ``merge_dump()`` carry a registry across a process
boundary and fold it into another (counters and histograms add, gauges
take the incoming value), which is how the parallel sweeps merge their
workers' metrics.

Disabled fast path: a registry created with ``enabled=False`` hands out
shared null instruments whose ``inc``/``set``/``observe`` are no-ops, so
instrumented code never needs an ``if`` at the call site.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterator

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "MetricsError",
]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Default histogram bucket upper bounds (seconds-flavoured; an implicit
#: +inf overflow bucket always follows the last bound).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0, 3600.0,
)


class MetricsError(ValueError):
    """Bad metric name, label clash, or incompatible merge."""


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise MetricsError("counters only go up")
        self.value += n


class Gauge:
    """Last-written value (deadline margin, cache size, …)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, v: float) -> None:
        """Overwrite the gauge with ``v``."""
        self.value = float(v)

    def add(self, d: float) -> None:
        """Shift the gauge by ``d`` (either sign)."""
        self.value += d


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow.

    Buckets are chosen at creation and never change, so two snapshots of
    the same series merge bucket-wise with no re-binning.
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError("histogram bounds must be sorted and unique")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)   # last = overflow
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, v: float) -> None:
        """Record one sample into its bucket and the running stats."""
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready dump: count/sum/min/max plus non-empty buckets."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": {
                ("inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.counts) if c
            },
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:  # noqa: ARG002
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, v: float) -> None:  # noqa: ARG002
        pass

    def add(self, d: float) -> None:  # noqa: ARG002
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, v: float) -> None:  # noqa: ARG002
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def series_key(name: str, labels: dict) -> str:
    """Canonical printable series id: ``name{k=v,…}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Registry of labelled counter/gauge/histogram series."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._series: dict[tuple[str, tuple[tuple[str, Any], ...]], Any] = {}
        self._kinds: dict[str, str] = {}

    # -- instrument access ------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series for ``name`` + ``labels`` (created on first use)."""
        if not self.enabled:
            return _NULL_COUNTER
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series for ``name`` + ``labels`` (created on first use)."""
        if not self.enabled:
            return _NULL_GAUGE
        return self._get("gauge", name, labels)

    def histogram(self, name: str, *, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram series for ``name`` + ``labels``; ``buckets`` apply
        only on first creation (bounds are fixed for a series' lifetime)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = (name, tuple(sorted(labels.items())))
        found = self._series.get(key)
        if found is None:
            self._check(name, "histogram")
            found = self._series[key] = Histogram(buckets)
        elif self._kinds[name] != "histogram":
            raise MetricsError(
                f"{name!r} is already a {self._kinds[name]}, not a histogram")
        return found

    def _get(self, kind: str, name: str, labels: dict) -> Any:
        # Unlabelled series (the hot-path majority) skip the sort.
        key = (name, ()) if not labels else (name, tuple(sorted(labels.items())))
        found = self._series.get(key)
        if found is None:
            self._check(name, kind)
            found = self._series[key] = _KINDS[kind]()
        elif self._kinds[name] != kind:
            raise MetricsError(
                f"{name!r} is already a {self._kinds[name]}, not a {kind}")
        return found

    def _check(self, name: str, kind: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(
                f"metric name {name!r} violates the layer.component.name "
                "convention (lowercase dot-separated segments)")
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise MetricsError(f"{name!r} is already a {known}, not a {kind}")

    # -- inspection -------------------------------------------------------

    def series(self) -> Iterator[tuple[str, str, Any]]:
        """Yield ``(kind, series_id, instrument)`` sorted by series id."""
        items = [
            (self._kinds[name], series_key(name, dict(labels)), inst)
            for (name, labels), inst in self._series.items()
        ]
        yield from sorted(items, key=lambda t: t[1])

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge series (0.0 if never touched)."""
        inst = self._series.get((name, tuple(sorted(labels.items()))))
        return inst.value if inst is not None else 0.0

    def snapshot(self) -> dict:
        """Nested JSON-ready dump: kind -> series id -> value/dict."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for kind, sid, inst in self.series():
            if kind == "counter":
                out["counters"][sid] = inst.value
            elif kind == "gauge":
                out["gauges"][sid] = inst.value
            else:
                out["histograms"][sid] = inst.to_dict()
        return out

    # -- lifecycle --------------------------------------------------------

    def dump(self) -> list:
        """Picklable flat dump for cross-process merging.

        Each row is ``(name, labels, kind, state)`` with ``state`` a plain
        tuple — no instrument objects cross the process boundary.  The
        multiprocess sweep harness ships worker registries back as dumps
        and folds them into the parent with :meth:`merge_dump`.
        """
        rows = []
        for (name, labels), inst in self._series.items():
            kind = self._kinds[name]
            if kind == "histogram":
                state = (inst.bounds, tuple(inst.counts), inst.count,
                         inst.total, inst.vmin, inst.vmax)
            else:
                state = inst.value
            rows.append((name, labels, kind, state))
        return rows

    def merge_dump(self, rows: list) -> None:
        """Fold a :meth:`dump` in: counters/histograms add, gauges overwrite.

        Accepts rows that round-tripped through JSON (the run ledger's
        encoding turns label tuples into lists), so label pairs are
        re-normalised to hashable tuples here.
        """
        for name, labels, kind, state in rows:
            key = (name, tuple((k, v) for k, v in labels))
            mine = self._series.get(key)
            if mine is None:
                self._check(name, kind)
                if kind == "histogram":
                    mine = self._series[key] = Histogram(tuple(state[0]))
                else:
                    mine = self._series[key] = _KINDS[kind]()
            elif self._kinds[name] != kind:
                raise MetricsError(f"merge: {name!r} kind mismatch")
            if kind == "counter":
                mine.inc(state)
            elif kind == "gauge":
                mine.set(state)
            else:
                bounds, counts, count, total, vmin, vmax = state
                if mine.bounds != tuple(bounds):
                    raise MetricsError(f"merge: {name!r} bucket bounds differ")
                for i, c in enumerate(counts):
                    mine.counts[i] += c
                mine.count += count
                mine.total += total
                mine.vmin = min(mine.vmin, vmin)
                mine.vmax = max(mine.vmax, vmax)

    def reset(self) -> None:
        """Forget every series and kind registration."""
        self._series.clear()
        self._kinds.clear()
