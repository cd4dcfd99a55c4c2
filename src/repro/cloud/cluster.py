"""The cloud facade: launching, terminating, storage, billing.

Each :class:`Cloud` owns one :class:`~repro.sim.engine.SimulationEngine`
(a single binary-heap event queue) whose clock every instance, volume and
bill reads, so a run is fixed by its seed alone.
"""

from __future__ import annotations

from repro.obs import Obs, get_obs
from repro.cloud.billing import BillingLedger, ColumnUsage, UsageRecord
from repro.cloud.ebs import EbsError, EbsVolume, PlacementModel
from repro.cloud.instance import (
    HeterogeneityModel,
    Instance,
    InstanceColumn,
    InstanceError,
    InstanceState,
)
from repro.cloud.s3 import S3Store
from repro.cloud.types import SMALL, AvailabilityZone, InstanceType, Region, US_EAST
from repro.sim.engine import SimulationEngine
from repro.sim.random import RngStream
from repro.units import billed_hours

__all__ = ["Cloud"]


class Cloud:
    """A single-region EC2 simulation with deterministic hidden state.

    All randomness (instance quality, boot delays, placement, measurement
    noise) descends from ``seed``.  The simulated clock is owned by an
    internal :class:`SimulationEngine`; callers advance it through the
    execution service or :meth:`advance`.
    """

    def __init__(
        self,
        seed: int = 0,
        region: Region = US_EAST,
        heterogeneity: HeterogeneityModel | None = None,
        placement: PlacementModel | None = None,
        boot_delay_range: tuple[float, float] = (90.0, 210.0),
        cpu_heterogeneity: HeterogeneityModel | None = None,
        io_heterogeneity: HeterogeneityModel | None = None,
        failure_model: "FailureModel | None" = None,
        obs: Obs | None = None,
        chaos: "FaultInjector | None" = None,
    ) -> None:
        from repro.cloud.instance import CPU_HETEROGENEITY, IO_HETEROGENEITY

        # Observability: captured at construction (module default unless
        # given).  The tracer is bound to this cloud's engine clock, so
        # every span/instant below is on *simulated* seconds.
        self.obs = obs or get_obs()
        self.engine = SimulationEngine(
            tracer=self.obs.tracer if self.obs.tracer.enabled else None)
        if self.obs.tracer.enabled:
            self.obs.tracer.bind_clock(lambda: self.engine.now)
        self.rng = RngStream(seed, name="cloud")
        self.region = region
        # ``heterogeneity`` overrides both resource models when given.
        self.cpu_heterogeneity = heterogeneity or cpu_heterogeneity or CPU_HETEROGENEITY
        self.io_heterogeneity = heterogeneity or io_heterogeneity or IO_HETEROGENEITY
        self.placement = placement or PlacementModel()
        self.boot_delay_range = boot_delay_range
        self.failure_model = failure_model
        self.ledger = BillingLedger(obs=self.obs)
        self.s3 = S3Store(region_name=region.name)
        self._instances: dict[str, Instance] = {}
        self._columns: dict[str, InstanceColumn] = {}
        self._volumes: dict[str, EbsVolume] = {}
        self._launches = 0
        self._column_launches = 0
        self._volume_count = 0
        # Chaos: the injector answers the launch/advance/storage hook
        # points below.  Launch attempts get their own counter so a
        # rejected attempt never shifts the per-instance RNG forks that
        # successful launches consume — installing chaos leaves every
        # granted instance's hidden state byte-identical.
        self.chaos = chaos
        self._launch_attempts = 0
        if chaos is not None:
            if chaos.obs is None:
                chaos.obs = self.obs
            if chaos.has_s3_degradations:
                self.s3.degradation = lambda: (chaos.s3_factor(self.now),
                                               chaos.s3_sigma_boost(self.now))

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    def advance(self, seconds: float) -> None:
        """Move simulated time forward by ``seconds``.

        With chaos installed, the advance steps through any AZ-outage
        onsets inside the window: at each onset every RUNNING instance in
        the dying zone is failed (and billed to that moment) before time
        continues, so post-outage code observes the zone already dark.
        """
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        target = self.engine.now + seconds
        if self.chaos is not None and self.chaos.has_outages:
            for start, zone_name in self.chaos.outage_starts_between(
                    self.engine.now, target):
                if start > self.engine.now:
                    self.engine.run(until=start)
                self._kill_zone(zone_name)
        self.engine.run(until=target)

    def _kill_zone(self, zone_name: str) -> None:
        """Fail every RUNNING instance in a zone (AZ outage onset)."""
        for inst in self.running_instances():
            if inst.zone.name == zone_name:
                self.chaos.record_outage_kill(self.now, zone_name,
                                              inst.instance_id)
                self.fail_instance(inst)

    # -- instances ---------------------------------------------------------

    def launch_instance(
        self,
        itype: InstanceType = SMALL,
        zone: AvailabilityZone | None = None,
        *,
        wait: bool = True,
    ) -> Instance:
        """Request one instance; with ``wait``, block until it is RUNNING.

        The boot delay ("a penalty of 3 min for the new instance startup",
        §3.1) is drawn per launch; booting time is not billed.

        With chaos installed the attempt may raise
        :class:`~repro.chaos.LaunchRejected` (capacity crunch, AZ outage)
        or come back with a pathological boot delay (boot hang — the
        instance sits PENDING far past the normal range).
        """
        target_zone = zone or self.region.zones[0]
        if self.chaos is not None:
            self._launch_attempts += 1
            decision = self.chaos.launch_decision(
                target_zone.name, self.now, self._launch_attempts)
            if decision.kind == "reject":
                if self.obs.enabled:
                    self.obs.metrics.counter("cloud.instance.rejections",
                                             zone=target_zone.name,
                                             reason=decision.reason).inc()
                from repro.chaos import LaunchRejected
                raise LaunchRejected(target_zone.name, decision.reason)
        else:
            decision = None
        self._launches += 1
        rng = self.rng.fork(f"instance.{self._launches}")
        boot_delay = rng.fork("boot").uniform(*self.boot_delay_range)
        if decision is not None and decision.kind == "hang":
            boot_delay = decision.hang_seconds
        inst = Instance(
            instance_id=f"i-{self._launches:06d}",
            itype=itype,
            zone=target_zone,
            cpu_factor=self.cpu_heterogeneity.draw_factor(rng.fork("cpu")),
            io_factor=self.io_heterogeneity.draw_factor(rng.fork("io")),
            launched_at=self.now,
            boot_delay=boot_delay,
            time_to_failure=(
                self.failure_model.draw_time_to_failure(rng.fork("failure"))
                if self.failure_model is not None else None
            ),
            _obs=self.obs,
        )
        self._instances[inst.instance_id] = inst
        if self.obs.enabled:
            self.obs.tracer.instant("cloud.instance.pending", cat="cloud",
                                    track=inst.instance_id,
                                    itype=itype.name, zone=inst.zone.name)
            self.obs.metrics.counter("cloud.instance.launches",
                                     itype=itype.name).inc()
            self.obs.metrics.histogram(
                "cloud.instance.boot_seconds").observe(inst.boot_delay)
        if wait:
            self.advance(inst.boot_delay)
            inst.mark_running(self.now)
        return inst

    def launch_column(self, n: int, itype: InstanceType = SMALL,
                      zone: AvailabilityZone | None = None) -> InstanceColumn:
        """Request ``n`` homogeneous instances as one columnar launch.

        The columnar counterpart of ``n`` :meth:`launch_instance` calls:
        boot delays and hidden cpu/io factors are drawn as vectors from a
        ``column.{k}`` fork — a namespace scalar launches never touch, so
        adding columnar launches to a campaign leaves every scalar
        instance's hidden state byte-identical.  The column boots
        asynchronously; callers advance the clock to ``column.barrier``
        and call ``mark_running_all`` (or use the columnar runner, which
        does both through one engine event).

        Chaos hooks are scalar-path-only by design: columnar fleets model
        the homogeneous happy path whose cost is pure scale.
        """
        if n <= 0:
            raise InstanceError(f"column size must be positive, got {n}")
        target_zone = zone or self.region.zones[0]
        self._column_launches += 1
        rng = self.rng.fork(f"column.{self._column_launches}")
        col = InstanceColumn(
            column_id=f"c-{self._column_launches:04d}",
            itype=itype,
            zone=target_zone,
            launched_at=self.now,
            boot_delay=rng.fork("boot").uniforms(*self.boot_delay_range, n),
            cpu_factor=self.cpu_heterogeneity.draw_factors(rng.fork("cpu"), n),
            io_factor=self.io_heterogeneity.draw_factors(rng.fork("io"), n),
        )
        self._columns[col.column_id] = col
        if self.obs.enabled:
            self.obs.tracer.instant("cloud.column.pending", cat="cloud",
                                    track=col.column_id, n=n,
                                    itype=itype.name, zone=target_zone.name)
            self.obs.metrics.counter("cloud.instance.launches",
                                     itype=itype.name).inc(n)
        return col

    def terminate_column(self, column: InstanceColumn,
                         ends) -> "ColumnUsage":
        """Retire a whole column at per-member ``ends``; bill vectorized."""
        ends = column.terminate_all(ends)
        return self.ledger.record_column(
            column.column_id, column.itype.name,
            column.running_since or 0.0, ends,
            column.itype.hourly_rate)

    @property
    def columns(self) -> tuple[InstanceColumn, ...]:
        return tuple(self._columns.values())

    def wait_until_running(self, instance: Instance) -> None:
        """Advance the clock to the instance's boot completion if needed."""
        if instance.state is InstanceState.PENDING:
            if instance.ready_at > self.now:
                self.advance(instance.ready_at - self.now)
            instance.mark_running(self.now)

    def terminate_instance(self, instance: Instance, *,
                           at: float | None = None) -> "UsageRecord | None":
        """Terminate and bill the RUNNING interval (ceil-hour pricing).

        ``at`` is the lease-aware path: a fleet that stopped using an
        instance at some earlier simulated time may retire it
        retroactively at that time, so idle seconds past the last lease
        are never billed.  ``at`` must not be in the future and not
        precede the instance's RUNNING start.  Returns the
        :class:`~repro.cloud.billing.UsageRecord` written (``None`` for an
        instance that never reached RUNNING), so callers can read the
        charge — including its ``wasted_seconds`` remainder — directly.
        """
        end = self.now if at is None else at
        if end > self.now:
            raise InstanceError("cannot terminate in the future")
        was_running = instance.billable_interval is not None
        instance.terminate(end)
        if was_running:
            start, _ = instance.billable_interval  # type: ignore[misc]
            return self.ledger.record(
                instance.instance_id, instance.itype.name,
                start, end, instance.itype.hourly_rate,
            )
        return None

    def paid_through(self, instance: Instance, at: float | None = None) -> float:
        """End of the hour already bought for ``instance`` as of ``at``.

        Once RUNNING, the first ceil-hour is committed; thereafter the
        boundary advances in whole hours.  This is what a warm pool keys
        on: work finishing before ``paid_through`` rides for free.
        """
        if instance.running_since is None:
            raise InstanceError(f"{instance.instance_id} never started running")
        t = self.now if at is None else at
        elapsed = t - instance.running_since
        if elapsed < 0:
            raise InstanceError("query precedes the RUNNING start")
        hours = billed_hours(elapsed)
        return instance.running_since + hours * 3600.0

    def remaining_paid_seconds(self, instance: Instance,
                               at: float | None = None) -> float:
        """Seconds left in the currently-paid hour (0 on the boundary)."""
        t = self.now if at is None else at
        return self.paid_through(instance, t) - t

    def fail_instance(self, instance: Instance) -> None:
        """Crash a running instance at the current time and bill its usage.

        Partial hours are still charged — the crash does not refund the
        ceil-hour already entered.
        """
        start = instance.running_since
        instance.fail(self.now)
        if start is not None:
            self.ledger.record(
                instance.instance_id, instance.itype.name,
                start, self.now, instance.itype.hourly_rate,
            )

    def finalize_billing(self) -> None:
        """Bill all still-running instances up to the current time."""
        for inst in self._instances.values():
            if inst.state is InstanceState.RUNNING:
                self.terminate_instance(inst)

    @property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(self._instances.values())

    def running_instances(self) -> list[Instance]:
        """Instances currently in the RUNNING state."""
        return [i for i in self._instances.values() if i.state is InstanceState.RUNNING]

    # -- storage -----------------------------------------------------------

    def create_volume(self, size_gb: int, zone: AvailabilityZone | None = None) -> EbsVolume:
        """Provision an EBS volume in ``zone`` (default: first zone)."""
        self._volume_count += 1
        vol = EbsVolume(
            volume_id=f"vol-{self._volume_count:06d}",
            size_gb=size_gb,
            zone=zone or self.region.zones[0],
            placement_model=self.placement,
            seed=self.rng.fork(f"volume.{self._volume_count}").seed,
        )
        if self.chaos is not None and self.chaos.has_ebs_degradations:
            chaos = self.chaos
            vol.degradation = (
                lambda z=vol.zone.name: chaos.ebs_factor(self.now, z))
        self._volumes[vol.volume_id] = vol
        return vol

    @property
    def volumes(self) -> tuple[EbsVolume, ...]:
        return tuple(self._volumes.values())

    def swap_volume(self, volume: EbsVolume, new_instance: Instance) -> None:
        """Detach ``volume`` from its current instance and attach it to a new
        one — the §3.1/§7 recovery path ("replacing poorly performing
        instances can be done easily without explicit data transfers")."""
        if new_instance.zone != volume.zone:
            raise EbsError("replacement instance must be in the volume's zone")
        volume.detach()
        volume.attach(new_instance)
