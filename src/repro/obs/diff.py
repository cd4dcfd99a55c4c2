"""Run diffing and perf-regression gating over ledger records.

:func:`diff_runs` compares two :class:`~repro.obs.ledger.RunRecord`\\ s
field by field, splitting the comparison into two families:

* **deterministic** fields — metric series (counter/gauge values and
  histogram state), span-count rollups, billing totals, deadline
  outcomes, and *simulated-time* profile fields.  For a fixed seed these
  are bit-reproducible, so two identical-seed runs must diff **clean**:
  zero deltas beyond the (tight, default 5%) threshold and bit-identical
  metric dumps.
* **perf** fields — wall-clock profile numbers (``wall_s``,
  ``events_per_s`` and phase wall times).  These are noisy, direction-
  aware (wall time regresses *up*, throughput regresses *down*), and
  judged against a looser threshold (default 15%, matching the CI
  regression gate).

:func:`regression_gate` applies the same direction-aware 15% rule to a
committed baseline (the BENCH trajectory) vs. freshly measured values —
the check CI runs so the bench trajectory maintains itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Mapping

from repro.obs.ledger import SCHEMA_CHANGES, RunRecord
from repro.obs.metrics import series_key

__all__ = [
    "DiffError", "Delta", "RunDiff", "diff_runs", "render_diff_table",
    "GateViolation", "regression_gate", "render_gate_report",
]


class DiffError(ValueError):
    """A diff threshold that is negative or not a finite number."""


#: Profile keys judged as perf (wall-clock flavoured) rather than
#: deterministic; everything else in ``profile`` diffs strictly.
PERF_PROFILE_KEYS = ("wall_s", "events_per_s")


@dataclass
class Delta:
    """One numeric field that differs between the two runs."""

    field: str
    a: float
    b: float
    direction: str = "either"    # "lower" / "higher" = better; "either"

    @property
    def abs_delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> float | None:
        """Relative change vs. run A (None when A is zero)."""
        if self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    def exceeds(self, threshold: float) -> bool:
        """True when the relative change is beyond ``threshold`` either way."""
        rel = self.rel_delta
        if rel is None:
            return self.b != self.a
        return abs(rel) > threshold

    def regressed(self, threshold: float) -> bool:
        """Worse than A beyond ``threshold`` in this field's direction."""
        rel = self.rel_delta
        if rel is None:
            return self.b != self.a and self.direction != "either"
        if self.direction == "lower":      # lower is better: growth regresses
            return rel > threshold
        if self.direction == "higher":     # higher is better: drop regresses
            return rel < -threshold
        return abs(rel) > threshold

    def to_dict(self) -> dict:
        """JSON-ready mapping of this delta."""
        return {"field": self.field, "a": self.a, "b": self.b,
                "abs": self.abs_delta, "rel": self.rel_delta,
                "direction": self.direction}


def _numeric_items(d: Mapping, prefix: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in d.items():
        path = f"{prefix}.{key}"
        if isinstance(value, bool):
            out[path] = float(value)
        elif isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            out.update(_numeric_items(value, path))
    return out


def _deltas(a: Mapping, b: Mapping, prefix: str, *,
            directions: Mapping[str, str] | None = None) -> list[Delta]:
    fa, fb = _numeric_items(a, prefix), _numeric_items(b, prefix)
    out = []
    for path in sorted(fa.keys() | fb.keys()):
        va, vb = fa.get(path, 0.0), fb.get(path, 0.0)
        if va != vb:
            direction = (directions or {}).get(path.rsplit(".", 1)[-1],
                                               "either")
            out.append(Delta(path, va, vb, direction))
    return out


def _metric_series(record: RunRecord) -> dict[str, tuple]:
    """series id -> (kind, state) with hashable state."""
    out = {}
    for name, labels, kind, state in record.metric_rows():
        out[series_key(name, dict(labels))] = (kind, state)
    return out


@dataclass
class RunDiff:
    """Structured comparison of two run records."""

    a_id: str
    b_id: str
    threshold: float
    perf_threshold: float
    metric_deltas: list[Delta] = field(default_factory=list)
    added_series: list[str] = field(default_factory=list)
    removed_series: list[str] = field(default_factory=list)
    span_drift: list[Delta] = field(default_factory=list)
    sim_deltas: list[Delta] = field(default_factory=list)
    perf_deltas: list[Delta] = field(default_factory=list)
    identical_metrics: bool = True
    #: ``(a, b)`` record schema versions when they differ, else None.
    schema_versions: tuple[int, int] | None = None

    @property
    def schema_notes(self) -> list[str]:
        """What each schema bump between the two records changed."""
        if self.schema_versions is None:
            return []
        lo, hi = sorted(self.schema_versions)
        return [f"v{v}: {SCHEMA_CHANGES[v]}" for v in range(lo + 1, hi + 1)
                if v in SCHEMA_CHANGES]

    @property
    def significant(self) -> list[Delta]:
        """Deterministic deltas beyond the strict threshold."""
        dets = self.metric_deltas + self.span_drift + self.sim_deltas
        return [d for d in dets if d.exceeds(self.threshold)]

    @property
    def perf_regressions(self) -> list[Delta]:
        """Wall-clock fields where run B is *worse* beyond perf_threshold."""
        return [d for d in self.perf_deltas
                if d.regressed(self.perf_threshold)]

    @property
    def clean(self) -> bool:
        """No significant deterministic drift and bit-identical metrics."""
        return (not self.significant and not self.added_series
                and not self.removed_series and self.identical_metrics)

    def to_dict(self) -> dict:
        """JSON-ready mapping of the full diff."""
        return {
            "a": self.a_id, "b": self.b_id,
            "threshold": self.threshold,
            "perf_threshold": self.perf_threshold,
            "clean": self.clean,
            "identical_metrics": self.identical_metrics,
            "schema_versions": (list(self.schema_versions)
                                if self.schema_versions else None),
            "schema_notes": self.schema_notes,
            "metric_deltas": [d.to_dict() for d in self.metric_deltas],
            "added_series": self.added_series,
            "removed_series": self.removed_series,
            "span_drift": [d.to_dict() for d in self.span_drift],
            "sim_deltas": [d.to_dict() for d in self.sim_deltas],
            "perf_deltas": [d.to_dict() for d in self.perf_deltas],
            "significant": [d.to_dict() for d in self.significant],
            "perf_regressions": [d.to_dict() for d in self.perf_regressions],
        }


def diff_runs(a: RunRecord, b: RunRecord, *, threshold: float = 0.05,
              perf_threshold: float = 0.15) -> RunDiff:
    """Diff two records: deterministic drift strict, wall-clock loose.

    Raises :class:`DiffError` for a negative or non-finite threshold
    (every comparison with NaN is false, so it would hide every delta).
    """
    for name, value in (("threshold", threshold),
                        ("perf_threshold", perf_threshold)):
        if not (isfinite(value) and value >= 0):
            raise DiffError(f"{name} must be a finite number >= 0, "
                            f"got {value}")
    diff = RunDiff(a_id=a.run_id or "a", b_id=b.run_id or "b",
                   threshold=threshold, perf_threshold=perf_threshold)
    if a.schema_version != b.schema_version:
        diff.schema_versions = (a.schema_version, b.schema_version)

    # Metric series: value deltas for counters/gauges, sample-count deltas
    # for histograms, plus added/removed series and bit-identity overall.
    sa, sb = _metric_series(a), _metric_series(b)
    diff.identical_metrics = sa == sb
    diff.added_series = sorted(sb.keys() - sa.keys())
    diff.removed_series = sorted(sa.keys() - sb.keys())
    for sid in sorted(sa.keys() & sb.keys()):
        (ka, sta), (kb, stb) = sa[sid], sb[sid]
        if ka != kb or sta == stb:
            continue
        if ka == "histogram":
            # Compare sample counts and sums; bucket drift shows up there.
            diff.metric_deltas.append(
                Delta(f"metrics.{sid}.count", float(sta[2]), float(stb[2])))
            if sta[3] != stb[3]:
                diff.metric_deltas.append(
                    Delta(f"metrics.{sid}.sum", float(sta[3]), float(stb[3])))
        else:
            diff.metric_deltas.append(
                Delta(f"metrics.{sid}", float(sta), float(stb)))

    # Span-count drift from the rollups.
    names = sorted(set(a.spans) | set(b.spans))
    for name in names:
        ca = float(a.spans.get(name, {}).get("count", 0))
        cb = float(b.spans.get(name, {}).get("count", 0))
        if ca != cb:
            diff.span_drift.append(Delta(f"spans.{name}.count", ca, cb))

    # Billing + deadline: deterministic, direction-aware where obvious.
    directions = {"cost_usd": "lower", "missed": "lower", "miss_rate": "lower",
                  "failed": "lower", "wasted_seconds": "lower"}
    diff.sim_deltas.extend(_deltas(a.billing, b.billing, "billing",
                                   directions=directions))
    diff.sim_deltas.extend(_deltas(a.deadline, b.deadline, "deadline",
                                   directions=directions))

    # Profile: split simulated-time fields (strict) from wall-clock (loose).
    pa, pb = _numeric_items(a.profile, "profile"), \
        _numeric_items(b.profile, "profile")
    for path in sorted(pa.keys() | pb.keys()):
        va, vb = pa.get(path, 0.0), pb.get(path, 0.0)
        if va == vb:
            continue
        leaf = path.rsplit(".", 1)[-1]
        if leaf in PERF_PROFILE_KEYS or leaf.startswith("wall"):
            direction = "higher" if leaf == "events_per_s" else "lower"
            diff.perf_deltas.append(Delta(path, va, vb, direction))
        else:
            diff.sim_deltas.append(Delta(path, va, vb))
    return diff


def _fmt_rel(d: Delta) -> str:
    rel = d.rel_delta
    return f"{rel:+.1%}" if rel is not None else "new"


def render_diff_table(diff: RunDiff, *, max_rows: int = 40) -> str:
    """ASCII diff report in the ``report`` module's table style."""
    lines = [f"== run diff: {diff.a_id} vs {diff.b_id} =="]
    if diff.schema_versions is not None:
        va, vb = diff.schema_versions
        lines.append(f"   ! schema v{va} vs v{vb}: fields may differ by "
                     "design")
        lines.extend(f"     {note}" for note in diff.schema_notes)
    sections = [
        ("deterministic drift", diff.significant, diff.threshold),
        ("perf (wall-clock)", diff.perf_deltas, diff.perf_threshold),
    ]
    for title, deltas, threshold in sections:
        lines.append(f"   -- {title} (threshold {threshold:.0%}) --")
        if not deltas:
            lines.append("   (none)")
            continue
        rows = [("field", "a", "b", "delta")]
        for d in deltas[:max_rows]:
            rows.append((d.field, f"{d.a:.6g}", f"{d.b:.6g}", _fmt_rel(d)))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            lines.append(
                "   " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if len(deltas) > max_rows:
            lines.append(f"   ... {len(deltas) - max_rows} more")
    for sid in diff.added_series:
        lines.append(f"   + series only in {diff.b_id}: {sid}")
    for sid in diff.removed_series:
        lines.append(f"   - series only in {diff.a_id}: {sid}")
    regs = diff.perf_regressions
    if regs:
        worst = max(regs, key=lambda d: abs(d.rel_delta or 0))
        lines.append(f"   ! PERF REGRESSION: {worst.field} {_fmt_rel(worst)} "
                     f"(beyond {diff.perf_threshold:.0%})")
    lines.append("   => " + ("CLEAN" if diff.clean else
                             f"{len(diff.significant)} significant deltas")
                 + (", bit-identical metrics" if diff.identical_metrics
                    else ", metrics differ"))
    return "\n".join(lines)


# -- the CI regression gate ----------------------------------------------

@dataclass
class GateViolation:
    metric: str
    baseline: float
    current: float
    direction: str
    threshold: float

    @property
    def rel_delta(self) -> float:
        return ((self.current - self.baseline) / abs(self.baseline)
                if self.baseline else 0.0)

    def describe(self) -> str:
        """One-line human summary of the violated budget."""
        want = "fell" if self.direction == "higher" else "grew"
        return (f"{self.metric} {want} {abs(self.rel_delta):.1%} "
                f"(baseline {self.baseline:.6g} -> {self.current:.6g}, "
                f"budget {self.threshold:.0%})")


def regression_gate(baseline: Mapping[str, float],
                    current: Mapping[str, float],
                    tracked: Mapping[str, str], *,
                    threshold: float = 0.15) -> list[GateViolation]:
    """Direction-aware regression check of ``current`` vs ``baseline``.

    ``tracked`` maps metric name -> direction ("higher" = should stay
    high, e.g. events/s; "lower" = should stay low, e.g. wall seconds).
    Returns the violations — metrics worse than baseline by more than
    ``threshold``.  Missing metrics on either side are skipped (a new
    metric has no baseline to regress against).
    """
    violations = []
    for metric, direction in tracked.items():
        base, cur = baseline.get(metric), current.get(metric)
        if base is None or cur is None or base == 0:
            continue
        delta = Delta(metric, float(base), float(cur), direction)
        if delta.regressed(threshold):
            violations.append(GateViolation(
                metric, float(base), float(cur), direction, threshold))
    return violations


def render_gate_report(baseline: Mapping[str, float],
                       current: Mapping[str, float],
                       tracked: Mapping[str, str],
                       violations: list[GateViolation], *,
                       threshold: float = 0.15) -> str:
    """ASCII gate report listing every tracked metric and its verdict."""
    lines = [f"== perf regression gate (budget {threshold:.0%}) =="]
    rows = [("metric", "dir", "baseline", "current", "delta", "status")]
    bad = {v.metric for v in violations}
    for metric, direction in sorted(tracked.items()):
        base, cur = baseline.get(metric), current.get(metric)
        if base is None or cur is None:
            rows.append((metric, direction, "-", "-", "-", "SKIP"))
            continue
        rel = (cur - base) / abs(base) if base else 0.0
        rows.append((metric, direction, f"{base:.6g}", f"{cur:.6g}",
                     f"{rel:+.1%}", "FAIL" if metric in bad else "PASS"))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    for r in rows:
        lines.append("   " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
    verdict = "FAIL" if violations else "PASS"
    lines.append(f"   => {verdict} ({len(violations)} regressions)")
    return "\n".join(lines)
