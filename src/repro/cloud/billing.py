"""Flat ceil-hour billing (§1.1, §5).

"The pricing scheme for instances provides a flat rate for an hour or
partial hour of computation ($0.1 × ⌈h⌉)" — the single fact that makes the
paper's provisioning problem interesting: once an instance is running, "in
most situations we will prefer to let it continue to run at least to the
full hour."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.units import billed_hours

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Obs

__all__ = ["UsageRecord", "ColumnUsage", "BillingLedger", "billable_hours"]


def billable_hours(duration_seconds: float) -> int:
    """Hours billed for a running interval: ceil, minimum one for any use.

    The ledger's refinement of :func:`repro.units.billed_hours`: an
    interval of exactly zero seconds never entered an hour, so it bills
    nothing (a committed-but-unused instance is the *report's* concern,
    not the ledger's).
    """
    if duration_seconds < 0:
        raise ValueError("negative duration")
    if duration_seconds == 0:
        return 0
    return billed_hours(duration_seconds)


@dataclass(frozen=True)
class UsageRecord:
    """One instance's billed usage."""

    instance_id: str
    instance_type: str
    start: float
    end: float
    hourly_rate: float
    hours: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Billed once: every run's ledger summary reads each record's hours three times.
        object.__setattr__(self, "hours", billable_hours(self.end - self.start))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cost(self) -> float:
        return self.hours * self.hourly_rate

    @property
    def wasted_seconds(self) -> float:
        """Paid-but-unused remainder of the last billed hour.

        ``⌈P⌉`` billing charges to the next hour boundary; whatever running
        time falls short of it was bought and thrown away.  An interval
        ending exactly on a boundary wastes nothing — the §7 reuse argument
        is precisely about reassigning work into this remainder instead of
        terminating mid-hour.
        """
        return self.hours * 3600.0 - self.duration


@dataclass(frozen=True)
class ColumnUsage:
    """Aggregate billed usage for one :class:`~repro.cloud.instance.InstanceColumn`.

    The columnar counterpart of ``n`` :class:`UsageRecord` rows: per-member
    ceil-hours are computed vectorized and only the aggregates are stored —
    a 100k-instance fleet bills in one ledger write instead of 100k.
    The math is member-for-member identical to :func:`billable_hours`.
    """

    column_id: str
    instance_type: str
    n_instances: int
    start: float
    hourly_rate: float
    hours: int                    # summed ceil-hours across members
    total_duration: float         # summed RUNNING seconds
    total_wasted: float           # summed paid-but-unused remainders

    @property
    def cost(self) -> float:
        return self.hours * self.hourly_rate


class BillingLedger:
    """Accumulates usage records; the experiments read instance-hours here.

    Time in pending / shutting-down / terminated states is free (§3.1), so
    only RUNNING intervals are ever recorded.
    """

    def __init__(self, obs: "Obs | None" = None) -> None:
        self._records: list[UsageRecord] = []
        self._column_records: list[ColumnUsage] = []
        self._obs = obs

    def record(self, instance_id: str, instance_type: str, start: float,
               end: float, hourly_rate: float) -> UsageRecord:
        """Append one RUNNING interval to the ledger."""
        if end < start:
            raise ValueError(f"usage interval ends before it starts: [{start}, {end}]")
        rec = UsageRecord(instance_id, instance_type, start, end, hourly_rate)
        self._records.append(rec)
        obs = self._obs
        if obs is not None and obs.enabled:
            # Every ledger write is a ceil-hour billing tick: the §1.1
            # pricing fact, now visible in traces and metrics.
            obs.tracer.instant("cloud.billing.tick", cat="cloud",
                               track="billing", instance=instance_id,
                               hours=rec.hours, cost=round(rec.cost, 4))
            obs.metrics.counter("cloud.billing.records").inc()
            obs.metrics.counter("cloud.billing.instance_hours").inc(rec.hours)
            obs.metrics.counter("cloud.billing.cost_usd").inc(rec.cost)
            obs.metrics.counter("cloud.billing.wasted_seconds").inc(
                rec.wasted_seconds)
        return rec

    def record_column(self, column_id: str, instance_type: str, start: float,
                      ends: np.ndarray, hourly_rate: float) -> ColumnUsage:
        """Bill a whole column's RUNNING intervals in one vectorized write.

        ``ends`` holds each member's termination time; all members share
        ``start`` (the fleet boot barrier).  Hour math matches the scalar
        path exactly: ceil of the duration, zero-length intervals free.
        """
        ends = np.asarray(ends, dtype=float)
        durations = ends - start
        if durations.size and float(durations.min()) < 0:
            raise ValueError("column usage interval ends before it starts")
        hours = np.ceil(durations / 3600.0).astype(np.int64)
        np.maximum(hours, (durations > 0).astype(np.int64), out=hours)
        total_hours = int(hours.sum())
        total_duration = float(durations.sum())
        rec = ColumnUsage(
            column_id=column_id, instance_type=instance_type,
            n_instances=int(ends.size), start=start, hourly_rate=hourly_rate,
            hours=total_hours, total_duration=total_duration,
            total_wasted=total_hours * 3600.0 - total_duration,
        )
        self._column_records.append(rec)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.tracer.instant("cloud.billing.tick", cat="cloud",
                               track="billing", column=column_id,
                               instances=rec.n_instances, hours=rec.hours,
                               cost=round(rec.cost, 4))
            obs.metrics.counter("cloud.billing.records").inc(rec.n_instances)
            obs.metrics.counter("cloud.billing.instance_hours").inc(rec.hours)
            obs.metrics.counter("cloud.billing.cost_usd").inc(rec.cost)
            obs.metrics.counter("cloud.billing.wasted_seconds").inc(
                rec.total_wasted)
        return rec

    @property
    def records(self) -> tuple[UsageRecord, ...]:
        return tuple(self._records)

    @property
    def column_records(self) -> tuple[ColumnUsage, ...]:
        return tuple(self._column_records)

    @property
    def total_cost(self) -> float:
        return (sum(r.cost for r in self._records)
                + sum(r.cost for r in self._column_records))

    @property
    def total_instance_hours(self) -> int:
        return (sum(r.hours for r in self._records)
                + sum(r.hours for r in self._column_records))

    @property
    def total_wasted_seconds(self) -> float:
        """Paid-hour remainders thrown away across every recorded interval."""
        return (sum(r.wasted_seconds for r in self._records)
                + sum(r.total_wasted for r in self._column_records))

    def summary(self) -> dict:
        """Counts, instance-hours and dollars in one dict."""
        return {
            "instances": (len(self._records)
                          + sum(r.n_instances for r in self._column_records)),
            "instance_hours": self.total_instance_hours,
            "cost_usd": round(self.total_cost, 4),
            "wasted_seconds": round(self.total_wasted_seconds, 1),
        }
