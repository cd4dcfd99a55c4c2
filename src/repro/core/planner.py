"""Static provisioning (§5).

Given a fitted runtime predictor, a data volume ``V`` and a user deadline
``D``, decide how many instances to rent and how to split the data so the
deadline is met at minimal ceil-hour cost.

The §5 cost function for predicted total processing time ``P`` (hours):

* ``D ≥ 1 h``   → ``cost = r·⌈P⌉``  (pack an hour of work per instance);
* ``D < 1 h``   → ``cost = r·⌈P/D⌉``  (a full hour is paid for instances
  that only run for ``D``), valid only when ``D`` exceeds the processing
  time of the largest unsplittable file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.packing import (
    first_fit_layout,
    pack_into_n_bins_layout,
    uniform_layout,
)
from repro.packing.index import BinLayout
from repro.perfmodel.regression import FitError, Predictor
from repro.units import HOUR, billed_hours
from repro.vfs.files import Catalogue

__all__ = ["PlanError", "plan_cost", "ebs_assignment", "ProvisioningPlan", "StaticProvisioner"]


class PlanError(ValueError):
    """Infeasible provisioning request (deadline below model floor, …)."""


def plan_cost(predicted_hours: float, deadline_hours: float, rate: float) -> float:
    """The §5 piecewise cost ``f(d)`` in USD."""
    if predicted_hours < 0 or deadline_hours <= 0 or rate <= 0:
        raise PlanError("cost function needs positive inputs")
    if predicted_hours == 0:
        return 0.0
    if deadline_hours >= 1.0:
        return rate * math.ceil(predicted_hours)
    return rate * math.ceil(predicted_hours / deadline_hours)


def ebs_assignment(volume: int, per_device_volume: int, volume_by_deadline: float) -> dict:
    """EBS device assignment (§5.1).

    Data is pre-staged in chunks of ``per_device_volume`` (``V⁰``) across
    devices.  An instance can absorb ``⌊V_D/V⁰⌋`` devices within the
    deadline, demanding ``⌈V/(⌊V_D/V⁰⌋·V⁰)⌉`` instances.  A deadline whose
    ``V_D`` is below ``V⁰`` cannot be met without re-staging — the paper's
    granularity caveat ("the unit of splitting … determines the coarseness
    of deadlines we can meet").
    """
    if volume <= 0 or per_device_volume <= 0:
        raise PlanError("volumes must be positive")
    n_devices = math.ceil(volume / per_device_volume)
    devices_per_instance = int(volume_by_deadline // per_device_volume)
    if devices_per_instance < 1:
        raise PlanError(
            f"deadline admits only {volume_by_deadline:.0f} B per instance, below "
            f"the {per_device_volume} B device granularity — restage required"
        )
    instances = math.ceil(volume / (devices_per_instance * per_device_volume))
    return {
        "devices": n_devices,
        "devices_per_instance": devices_per_instance,
        "instances": instances,
    }


@dataclass
class ProvisioningPlan:
    """A concrete execution plan: per-instance unit-file assignments.

    Each bin is an index slice of the planned :class:`~repro.vfs.Catalogue`,
    so its sizes and stats are read from the catalogue's columns and its
    units are the catalogue's own views.
    """

    deadline: float                     # seconds
    planning_deadline: float            # seconds actually planned against
    strategy: str                       # "first-fit" | "uniform" | "adjusted"
    predictor_name: str
    assignments: list[Catalogue]
    predicted_times: list[float] = field(default_factory=list)
    #: Lease provenance per executed bin, filled in by a fleet scheduler:
    #: ``bin index -> "warm:lease-000007" | "cold:lease-000001" |
    #: "extension:lease-000009"``.  Empty for privately-booted runs.
    lease_sources: dict[int, str] = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        return len(self.assignments)

    def annotate_lease(self, bin_index: int, source: str, lease_id: str) -> None:
        """Record which lease (and provenance) served ``bin_index``."""
        self.lease_sources[bin_index] = f"{source}:{lease_id}"

    @property
    def reused_bins(self) -> int:
        """Bins that rode an already-paid hour instead of booting."""
        return sum(1 for v in self.lease_sources.values()
                   if not v.startswith("cold"))

    @property
    def total_volume(self) -> int:
        return sum(b.total_size for b in self.assignments)

    def max_predicted_time(self) -> float:
        """Largest per-instance predicted time (the makespan bound)."""
        return max(self.predicted_times) if self.predicted_times else 0.0

    def predicted_cost(self, rate: float) -> float:
        """Ceil-hour cost if every instance matches its prediction."""
        return sum(
            rate * billed_hours(t) for t in self.predicted_times
        )


class StaticProvisioner:
    """Builds :class:`ProvisioningPlan` objects from a fitted predictor."""

    def __init__(self, predictor: Predictor, rate: float = 0.085) -> None:
        if rate <= 0:
            raise PlanError("rate must be positive")
        self.predictor = predictor
        self.rate = rate

    # -- model queries -----------------------------------------------------

    def volume_for(self, deadline: float) -> float:
        """``V_D = f⁻¹(D)`` — bytes one instance processes by the deadline."""
        try:
            v = self.predictor.inverse(deadline)
        except FitError as e:
            raise PlanError(f"deadline {deadline}s infeasible for model: {e}") from e
        if v <= 0:
            raise PlanError(f"deadline {deadline}s admits no data")
        return v

    def instances_for(self, volume: int, deadline: float) -> int:
        """``i = ⌈V/⌊x₀⌋⌉`` (§5.2: "⌈26.1⌉ = 27 instances")."""
        if volume <= 0:
            raise PlanError("volume must be positive")
        x0 = math.floor(self.volume_for(deadline))
        if x0 < 1:
            raise PlanError("deadline admits less than one byte per instance")
        return math.ceil(volume / x0)

    # -- planning -----------------------------------------------------------

    def _predict_times(
        self, layouts: Sequence[BinLayout], units: Catalogue
    ) -> tuple[list[Catalogue], list[float]]:
        assignments: list[Catalogue] = []
        times: list[float] = []
        for i, l in enumerate(layouts):
            assignments.append(units._take(l.indices, f"{units.name}[bin{i}]"))
            times.append(float(self.predictor.predict(l.used)))
        return assignments, times

    def plan(
        self,
        units: Catalogue,
        deadline: float,
        *,
        strategy: str = "first-fit",
        planning_deadline: float | None = None,
    ) -> ProvisioningPlan:
        """Assign unit files to instances for the given deadline.

        Strategies:

        ``first-fit``
            capacity-driven first-fit in the original order (§5.2's initial
            scheme; bins can be uneven, Fig. 8(a));
        ``uniform``
            the same instance count, but volumes balanced (Fig. 8(b):
            "reduce the chance of missing the deadline, while still paying
            the same cost");
        ``hour-pack``
            §5's observation for loose deadlines: "the best strategy is to
            fit an hour of computation into as many instances as needed" —
            one billed hour of work per instance, minimum makespan at the
            same instance-hours (requires ``deadline ≥ 1 h``; the paper
            notes real startup times and instance-count limits argue for
            deadline-packing instead, which is what ``first-fit``/
            ``uniform`` do).

        ``planning_deadline`` lets the §5.2 adjusted-deadline strategy plan
        against ``D/(1+a)`` while reporting misses against the real ``D``.
        ``units`` is a :class:`~repro.vfs.Catalogue` (of files, or of the
        segments of a packed layout): its size column is packed as is and
        its bins are index slices of it; a ``uniform`` bin is a run, whose
        columns are views of the catalogue's.
        """
        if not units:
            raise PlanError("nothing to plan")
        eff_deadline = planning_deadline if planning_deadline is not None else deadline
        if eff_deadline <= 0 or deadline <= 0:
            raise PlanError("deadlines must be positive")
        # Columnar: the packers consume the size column directly and units
        # are regrouped by index afterwards.  The uniform split takes the
        # int64 column as is; the first-fit kernels walk a list.
        sizes = units.sizes()
        volume = units.total_size

        if strategy == "first-fit":
            n = self.instances_for(volume, eff_deadline)
            x0 = math.floor(self.volume_for(eff_deadline))
            layouts = pack_into_n_bins_layout(sizes.tolist(), n_bins=n, capacity=x0)
        elif strategy == "uniform":
            n = self.instances_for(volume, eff_deadline)
            layouts = uniform_layout(sizes, n_bins=n)
        elif strategy == "hour-pack":
            if eff_deadline < HOUR:
                raise PlanError("hour-pack needs a deadline of at least one hour")
            x_hour = math.floor(self.volume_for(HOUR))
            if x_hour < 1:
                raise PlanError("model admits no data within one hour")
            layouts = first_fit_layout(sizes.tolist(), x_hour)
        else:
            raise PlanError(f"unknown strategy {strategy!r}")

        assignments, times = self._predict_times(layouts, units)
        label = strategy if planning_deadline is None else "adjusted"
        return ProvisioningPlan(
            deadline=deadline,
            planning_deadline=eff_deadline,
            strategy=label,
            predictor_name=self.predictor.name,
            assignments=assignments,
            predicted_times=times,
        )

    # -- Fig. 2 marginal rule -------------------------------------------------

    def marginal_rule(self) -> str:
        """Which §5 regime the fitted curve shape implies.

        Convex (f''>0): "it will always be better to start a new instance";
        concave (f''<0): "better to pack as much data as possible by ⌈D⌉
        than start a new instance"; linear: indifferent.
        """
        sign = self.predictor.curvature_sign()
        if sign > 0:
            return "start-new-instances"
        if sign < 0:
            return "pack-to-deadline"
        return "indifferent"
