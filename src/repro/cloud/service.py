"""Execution service: charge an application run against an instance.

This is the boundary between the hidden ground truth and the empirical
world.  A run is priced, then charged: :meth:`Workload.price` turns the
units into a reference-instance :class:`TimeBreakdown`, and
:meth:`ExecutionService.charge` turns that into a *measured time*, which
folds together:

* the workload profile's reference-time breakdown (setup / io / cpu),
* the instance's hidden cpu/io factors (heterogeneity, §3.1),
* the EBS placement factor of the directory being read (Fig. 5 spikes),
* per-run setup jitter (unstable small probes, Fig. 3),
* multiplicative measurement noise.

Everything above the cloud (perfmodel, planner) sees only these times —
exactly the observational position the paper's user is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.apps.base import TextApplication, Unit, UnitColumns
from repro.apps.profiles import GrepCostProfile, PosCostProfile, TimeBreakdown
from repro.cloud.cluster import Cloud
from repro.cloud.ebs import EbsVolume
from repro.cloud.instance import Instance, InstanceColumn

__all__ = ["Workload", "ExecutionService"]

Profile = Union[GrepCostProfile, PosCostProfile]


@dataclass(frozen=True)
class Workload:
    """An application paired with its ground-truth cost profile."""

    name: str
    app: TextApplication
    profile: Profile

    def price(self, units: Sequence[Unit]) -> TimeBreakdown:
        """Reference-instance seconds for one run over ``units``, priced as columns."""
        columns = UnitColumns(units)
        work = self.app.estimate_work(columns)
        return self.profile.breakdown(columns, matches=work.matches)


class ExecutionService:
    """Runs workloads on cloud instances and reports measured seconds.

    :meth:`run` is :meth:`Workload.price` followed by :meth:`charge`.
    Pricing is a pure function of the units, so a caller timing the same
    units repeatedly (a probe's repeats) prices once and charges each
    repeat; every charge draws its own setup and noise from the next
    ``exec.{instance}.{n}`` fork, so the times equal repeated runs.
    """

    def __init__(self, cloud: Cloud, noise_sigma: float = 0.02) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.cloud = cloud
        self.noise_sigma = noise_sigma
        self._run_counts: dict[str, int] = {}

    def run(
        self,
        instance: Instance,
        units: Sequence[Unit],
        workload: Workload,
        *,
        storage: EbsVolume | None = None,
        directory: str = "data",
        advance_clock: bool = True,
    ) -> float:
        """Execute ``workload`` over ``units``; return measured seconds.

        With ``storage`` given, I/O time is scaled by that volume's
        placement factor for ``directory`` (the volume must be attached to
        ``instance``).  With ``advance_clock`` the cloud clock moves by the
        measured duration, so billing sees the usage.
        """
        return self.charge(instance, workload.price(units), workload,
                           storage=storage, directory=directory,
                           advance_clock=advance_clock)

    def charge(
        self,
        instance: Instance,
        breakdown: TimeBreakdown,
        workload: Workload,
        *,
        storage: EbsVolume | None = None,
        directory: str = "data",
        advance_clock: bool = True,
    ) -> float:
        """Measured seconds for one run of already-priced reference work.

        ``breakdown`` is ``workload.price(units)``; the options are
        :meth:`run`'s.
        """
        instance.require_running()
        if storage is not None and storage.attached_to is not instance:
            raise ValueError(
                f"{storage.volume_id} is not attached to {instance.instance_id}"
            )
        n = self._run_counts.get(instance.instance_id, 0)
        self._run_counts[instance.instance_id] = n + 1
        rng = self.cloud.rng.fork(f"exec.{instance.instance_id}.{n}")

        setup = workload.profile.draw_setup(rng.fork("setup"))
        if storage is not None:
            # access_factor = stable placement quality x any active
            # chaos degradation episode for the volume's zone.
            storage_factor = storage.access_factor(directory)
        elif self.cloud.chaos is not None:
            # No explicit volume: reads hit instance-local EBS, which a
            # degraded-throughput episode in this zone still slows.
            storage_factor = self.cloud.chaos.ebs_factor(
                self.cloud.now, instance.zone.name)
        else:
            storage_factor = 1.0
        t = (
            setup
            + breakdown.io * storage_factor / instance.io_factor
            + breakdown.cpu / instance.cpu_factor
        )
        if self.noise_sigma:
            t *= rng.fork("noise").lognormal(0.0, self.noise_sigma)
        if advance_clock:
            self.cloud.advance(t)
        return t

    def run_column(
        self,
        column: InstanceColumn,
        workload: Workload,
        io_ref: np.ndarray | float,
        cpu_ref: np.ndarray | float,
    ) -> np.ndarray:
        """Measured seconds for member ``i`` processing its own reference work.

        The columnar counterpart of :meth:`run`: ``io_ref``/``cpu_ref``
        hold each member's reference-instance seconds (one entry per
        column member — :meth:`Workload.price` of a bin's ``UnitColumns``,
        or broadcast for a uniform fleet), and the same composition applies
        vectorized — per-member setup draw, hidden cpu/io division, and
        multiplicative measurement noise.  Draws come from an
        ``exec.column.{id}.{k}`` fork, a namespace scalar runs never use.

        The clock is *not* advanced here — the columnar runner owns the
        engine events.  Storage reads are instance-local (factor 1.0);
        EBS placement and chaos episodes stay on the scalar path.
        """
        column.require_running()
        n = column.n
        io_ref = np.broadcast_to(np.asarray(io_ref, dtype=float), (n,))
        cpu_ref = np.broadcast_to(np.asarray(cpu_ref, dtype=float), (n,))
        k = self._run_counts.get(column.column_id, 0)
        self._run_counts[column.column_id] = k + 1
        rng = self.cloud.rng.fork(f"exec.column.{column.column_id}.{k}")
        t = (
            workload.profile.draw_setups(rng.fork("setup"), n)
            + io_ref / column.io_factor
            + cpu_ref / column.cpu_factor
        )
        if self.noise_sigma:
            t = t * rng.fork("noise").lognormals(0.0, self.noise_sigma, n)
        return t
