"""Instance leases and the warm pool — paid-hour reuse made explicit.

The §7 sentence this module implements: reassign remaining work "to new
**or existing** instances".  Under ``cost = r·⌈P⌉`` billing every
mid-hour termination throws away a remainder (now visible as
``UsageRecord.wasted_seconds``); a :class:`LeaseManager` keeps released
instances in a :class:`WarmPool` keyed by those remainders instead, so
the next campaign's bin can ride the hour that is already paid for —
skipping both the boot delay and the first ``⌈·⌉`` charge.

Lease/instance state machine::

            acquire (pool miss)                acquire (pool hit)
    ┌──────┐  boot Δ   ┌────────┐   release   ┌────────┐
    │ cold │──────────▶│ LEASED │────────────▶│  WARM  │──┐
    └──────┘           └────────┘  remainder  └────────┘  │ best-fit
                            ▲      ≥ floor        │       │ remainder
                            │                     │       │ (FreeSpaceIndex)
                            └─────────────────────┴───────┘
                                    │ remainder expired / shutdown
                                    ▼
                               ┌─────────┐
                               │ RETIRED │  terminate at last use;
                               └─────────┘  ledger bills ⌈P⌉, waste visible

The pool *is* the packing engine: remaining paid-hour seconds are bin
free-space, and a lease request of estimated duration ``d`` is an item
placed with :meth:`~repro.packing.index.FreeSpaceIndex.best_fit_slot` —
the smallest remainder that still fits, in O(log B).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.cloud.billing import UsageRecord
from repro.cloud.cluster import Cloud
from repro.cloud.instance import Instance, InstanceState
from repro.packing.index import FreeSpaceIndex

__all__ = ["LeaseError", "LeaseState", "Lease", "UsageSlice", "WarmPool",
           "LeaseManager"]


class LeaseError(RuntimeError):
    """Illegal lease transition or an exhausted fleet."""


class LeaseState(enum.Enum):
    """Lease lifecycle: granted (ACTIVE) until returned (RELEASED)."""

    ACTIVE = "active"
    RELEASED = "released"


@dataclass
class Lease:
    """A time-bounded right to run work on one fleet instance."""

    lease_id: str
    tenant: str
    instance: Instance
    requested_at: float        # simulated time the acquire happened
    ready_at: float            # when work can start (post-boot for cold)
    warm: bool                 # True = served from the pool, no boot
    extension: bool = False    # warm, but crossing into a new paid hour
    campaign: str | None = None
    state: LeaseState = LeaseState.ACTIVE
    released_at: float | None = None
    #: How the lease ended up: ``"ok"``, ``"instance-failed"`` (the
    #: instance died under the lease — e.g. an AZ outage), or
    #: ``"launch-fault-absorbed"`` (a cold boot was refused by the cloud
    #: and the fleet substituted a pooled extension).  Faults surface
    #: here as explicit outcomes instead of vanishing into exceptions.
    outcome: str = "ok"

    @property
    def source(self) -> str:
        """Provenance tag used in plan annotations and metrics labels."""
        if not self.warm:
            return "cold"
        return "extension" if self.extension else "warm"


@dataclass(frozen=True)
class UsageSlice:
    """One lease's occupancy of one instance — the attribution atom."""

    instance_id: str
    lease_id: str
    tenant: str
    campaign: str | None
    t0: float
    t1: float

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class _PoolEntry:
    instance: Instance
    available_at: float        # when the previous lease released it
    boundary: float            # end of the hour already paid at release
    slot: int                  # FreeSpaceIndex slot


class WarmPool:
    """Released instances indexed by remaining paid-hour seconds.

    A :class:`~repro.packing.index.FreeSpaceIndex` holds one slot per
    pooled instance whose free-space is the integer remainder of its paid
    hour.  :meth:`take` answers "smallest remainder that still fits this
    estimated duration" via ``best_fit_slot`` in O(log B); keys observed
    to be stale (the instance was released earlier than the request time,
    so its remainder has since shrunk) are lazily re-keyed and the query
    retried, mirroring the index's own lazy heap discipline.
    """

    def __init__(self) -> None:
        self._index = FreeSpaceIndex()
        self._entries: dict[int, _PoolEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[_PoolEntry]:
        """Snapshot of the pooled entries (for reaping and inspection)."""
        return list(self._entries.values())

    def put(self, instance: Instance, available_at: float,
            boundary: float) -> None:
        """Pool ``instance``, free from ``available_at`` until ``boundary``."""
        remaining = max(0, int(boundary - available_at))
        slot = self._index.append(remaining)
        self._entries[slot] = _PoolEntry(instance, available_at, boundary, slot)

    def take(self, need_seconds: float, at: float) -> tuple[_PoolEntry, float] | None:
        """Best-fit entry whose paid remainder covers ``need_seconds``.

        Returns ``(entry, effective_start)`` — work starts at
        ``max(at, entry.available_at)`` — or ``None`` when no pooled
        remainder fits.  The taken entry leaves the pool.
        """
        need = max(1, math.ceil(need_seconds))
        index = self._index
        while True:
            slot = index.best_fit_slot(need)
            if slot < 0:
                return None
            entry = self._entries.get(slot)
            if entry is None:  # pragma: no cover - dead slots keep free 0
                return None
            eff = max(at, entry.available_at)
            usable = entry.boundary - eff
            if usable >= need:
                self._remove(slot)
                return entry, eff
            # The key predates `at`; shrink it to the current remainder
            # (strictly, so the loop terminates) and ask the index again.
            new_key = max(0, min(int(usable), index.free_of(slot) - 1))
            index.consume(slot, index.free_of(slot) - new_key)

    def take_earliest(self, at: float) -> tuple[_PoolEntry, float] | None:
        """Earliest-available entry regardless of remainder (extension path)."""
        if not self._entries:
            return None
        entry = min(self._entries.values(), key=lambda e: (e.available_at, e.slot))
        self._remove(entry.slot)
        return entry, max(at, entry.available_at)

    def _remove(self, slot: int) -> None:
        self._index.consume(slot, self._index.free_of(slot))
        del self._entries[slot]


class LeaseManager:
    """Owns fleet instance lifecycles; hands out and recycles leases.

    ``max_instances`` caps concurrently live instances (leased + pooled).
    Released instances join the warm pool; instances are only terminated
    at :meth:`shutdown` (or explicit :meth:`reap`), retroactively at their
    last use, so idle tail seconds are never billed and every thrown-away
    remainder surfaces as ``wasted_seconds`` on the ledger.
    """

    def __init__(self, cloud: Cloud, *, max_instances: int | None = None,
                 tag: str = "fleet") -> None:
        if max_instances is not None and max_instances < 1:
            raise LeaseError("max_instances must be at least 1")
        self.cloud = cloud
        self.max_instances = max_instances
        self.tag = tag
        self.pool = WarmPool()
        self.obs = cloud.obs
        self._leases: dict[str, Lease] = {}
        self._active: set[str] = set()
        self._known: set[str] = set()
        self._count = 0
        self.slices: list[UsageSlice] = []
        self.records: list[UsageRecord] = []
        # Plain counters so reports work with observability disabled.
        self.pool_hits = 0
        self.pool_misses = 0
        self.pool_extensions = 0
        self.reaped = 0
        self.pool_evicted = 0      # pooled instances lost (dead zone/crash)
        self.launch_faults = 0     # cold boots the cloud refused (chaos)
        # Warm takes whose previous lease belonged to a different campaign
        # (e.g. a DAG stage inheriting paid hours an earlier stage
        # released) — the cross-stage handoff a shared fleet exists for.
        self.cross_campaign_hits = 0
        self._last_campaign: dict[str, str | None] = {}

    # -- capacity ----------------------------------------------------------

    @property
    def live_instances(self) -> int:
        """Instances currently held by a lease or warming in the pool."""
        return len(self._active) + len(self.pool)

    def can_boot(self) -> bool:
        """True while the fleet is allowed to grow by one more instance."""
        return self.max_instances is None or self.live_instances < self.max_instances

    # -- lease lifecycle ---------------------------------------------------

    def acquire(self, tenant: str, *, est_seconds: float, at: float,
                campaign: str | None = None,
                allow_extension: bool = True) -> Lease:
        """Grant a lease at simulated time ``at``.

        Order of preference: a pooled remainder that fits (warm hit — no
        boot, no new ``⌈·⌉`` charge), then a cold boot if the fleet may
        grow, then — with ``allow_extension`` — the earliest pooled
        instance even though it must enter a new paid hour (still saves
        the boot delay).  Raises :class:`LeaseError` when none apply.
        """
        from repro.chaos import ChaosError

        if est_seconds < 0:
            raise LeaseError("estimated duration must be non-negative")
        taken = self._take_healthy(est_seconds, at)
        extension = False
        fault: str | None = None
        instance = None
        if taken is not None:
            entry, ready = taken
            instance, warm = entry.instance, True
            self.pool_hits += 1
        else:
            if self.can_boot():
                try:
                    instance = self.cloud.launch_instance(wait=False)
                except ChaosError as e:
                    # The cloud refused the boot; surface the fault and
                    # fall through to a pooled extension if one exists.
                    fault = getattr(e, "reason", None) or str(e)
                    self.launch_faults += 1
                    if self.obs.enabled:
                        self.obs.metrics.counter("fleet.lease.launch_faults",
                                                 reason=fault).inc()
                else:
                    ready = at + instance.boot_delay
                    instance.mark_running(ready)
                    warm = False
                    self.pool_misses += 1
            if instance is None:
                taken = (self._take_earliest_healthy(at)
                         if allow_extension else None)
                if taken is None:
                    if fault is not None:
                        raise LeaseError(
                            f"cold boot refused ({fault}) and no pooled "
                            "lease available")
                    raise LeaseError(
                        f"fleet at capacity ({self.max_instances} instances) "
                        "with no pooled lease available")
                entry, ready = taken
                instance, warm, extension = entry.instance, True, True
                self.pool_extensions += 1

        self._count += 1
        lease = Lease(
            lease_id=f"lease-{self._count:06d}",
            tenant=tenant,
            instance=instance,
            requested_at=at,
            ready_at=ready,
            warm=warm,
            extension=extension,
            campaign=campaign,
        )
        if fault is not None:
            lease.outcome = "launch-fault-absorbed"
        if warm and instance.instance_id in self._last_campaign \
                and self._last_campaign[instance.instance_id] != campaign:
            self.cross_campaign_hits += 1
            if self.obs.enabled:
                self.obs.metrics.counter("fleet.lease.cross_campaign_hits",
                                         source=lease.source).inc()
        self._leases[lease.lease_id] = lease
        self._active.add(instance.instance_id)
        self._known.add(instance.instance_id)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("fleet.lease.granted", source=lease.source).inc()
            obs.metrics.gauge("fleet.pool.size").set(len(self.pool))
            if warm and not extension:
                obs.metrics.histogram(
                    "fleet.pool.reuse_headroom_s",
                    buckets=(60, 300, 900, 1800, 2700, 3600),
                ).observe(max(0.0, est_seconds))
            obs.tracer.instant("fleet.lease.acquired", cat="lease",
                               track=instance.instance_id, lease=lease.lease_id,
                               tenant=tenant, source=lease.source)
        return lease

    def _take_healthy(self, est_seconds: float,
                      at: float) -> tuple[_PoolEntry, float] | None:
        """Best-fit pool take that skips (and evicts) dead instances."""
        while True:
            taken = self.pool.take(est_seconds, at)
            if taken is None:
                return None
            if taken[0].instance.state is InstanceState.RUNNING:
                return taken
            self._note_evicted(taken[0].instance)

    def _take_earliest_healthy(self, at: float) -> tuple[_PoolEntry, float] | None:
        """Earliest-available pool take that skips dead instances."""
        while True:
            taken = self.pool.take_earliest(at)
            if taken is None:
                return None
            if taken[0].instance.state is InstanceState.RUNNING:
                return taken
            self._note_evicted(taken[0].instance)

    def _note_evicted(self, instance: Instance) -> None:
        self.pool_evicted += 1
        if self.obs.enabled:
            self.obs.metrics.counter("fleet.pool.evicted").inc()
            self.obs.tracer.instant("fleet.pool.evicted", cat="lease",
                                    track=instance.instance_id)

    def evict_dead_zones(self, now: float) -> int:
        """Drop pooled instances that died or whose zone is dark at ``now``.

        With a :class:`~repro.chaos.injector.FaultInjector` installed on
        the cloud, still-RUNNING instances parked in a zone under an
        active outage are failed (billing their partial hours) before
        eviction — the pool must not hand out capacity in a dead AZ.
        Returns the number of entries evicted.
        """
        chaos = getattr(self.cloud, "chaos", None)
        n = 0
        for entry in self.pool.entries():
            inst = entry.instance
            dead_zone = (chaos is not None
                         and chaos.zone_down(inst.zone.name, now))
            if inst.state is InstanceState.RUNNING and not dead_zone:
                continue
            if inst.state is InstanceState.RUNNING and dead_zone:
                self.cloud.fail_instance(inst)
            self.pool._remove(entry.slot)
            self._note_evicted(inst)
            n += 1
        return n

    def release(self, lease: Lease, at: float) -> None:
        """Return the lease; the instance joins the warm pool.

        ``at`` must not precede the lease's work-ready time.  The usage
        slice ``[ready_at, at]`` is recorded for cost attribution, and the
        instance re-enters the pool keyed by what is left of the hour that
        is paid through ``at``.
        """
        if lease.state is not LeaseState.ACTIVE:
            raise LeaseError(f"{lease.lease_id} already released")
        if at < lease.ready_at:
            raise LeaseError(f"{lease.lease_id} released before it was ready")
        lease.state = LeaseState.RELEASED
        lease.released_at = at
        inst = lease.instance
        self._active.discard(inst.instance_id)
        self._last_campaign[inst.instance_id] = lease.campaign
        self.slices.append(UsageSlice(
            instance_id=inst.instance_id, lease_id=lease.lease_id,
            tenant=lease.tenant, campaign=lease.campaign,
            t0=lease.ready_at, t1=at,
        ))
        if inst.state is not InstanceState.RUNNING:
            # The instance died under the lease (crash, AZ outage kill).
            # Its hours are already billed by whoever failed it; surface
            # the fault as an outcome and keep the corpse out of the pool.
            lease.outcome = "instance-failed"
            if self.obs.enabled:
                self.obs.metrics.counter("fleet.lease.failed").inc()
                self.obs.tracer.instant("fleet.lease.failed", cat="lease",
                                        track=inst.instance_id,
                                        lease=lease.lease_id)
            return
        boundary = self.cloud.paid_through(inst, at)
        self.pool.put(inst, at, boundary)
        obs = self.obs
        if obs.enabled:
            obs.tracer.add_span("fleet.lease.hold", lease.ready_at, at,
                                cat="lease", track=inst.instance_id,
                                lease=lease.lease_id, tenant=lease.tenant,
                                campaign=lease.campaign or "",
                                source=lease.source)
            obs.metrics.counter("fleet.lease.busy_seconds").inc(at - lease.ready_at)
            obs.metrics.gauge("fleet.pool.size").set(len(self.pool))

    # -- retirement --------------------------------------------------------

    def reap(self, now: float) -> int:
        """Retire pooled instances whose paid remainder has expired by ``now``.

        Termination is retroactive at each instance's last use, so the
        idle tail past the final lease is never billed.  Returns the
        number of instances retired.  Requires the cloud clock to have
        reached ``now``.
        """
        n = 0
        for entry in self.pool.entries():
            if entry.boundary <= now:
                self.pool._remove(entry.slot)
                self._retire(entry.instance, entry.available_at)
                n += 1
        self.reaped += n
        return n

    def shutdown(self) -> None:
        """Retire every pooled instance at its last use.

        Active leases must be released first.  Call after the cloud clock
        has advanced past the fleet's last activity.
        """
        if self._active:
            raise LeaseError(f"{len(self._active)} lease(s) still active")
        for entry in self.pool.entries():
            self.pool._remove(entry.slot)
            self._retire(entry.instance, entry.available_at)

    def _retire(self, instance: Instance, at: float) -> None:
        if instance.state is not InstanceState.RUNNING:
            # Killed while pooled (e.g. AZ outage): the kill already
            # billed its hours — terminating again would double-bill.
            self._note_evicted(instance)
            return
        rec = self.cloud.terminate_instance(instance, at=min(at, self.cloud.now))
        if rec is not None:
            self.records.append(rec)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("fleet.instance.retired").inc()
            if rec is not None:
                obs.metrics.counter("fleet.instance.wasted_seconds").inc(
                    rec.wasted_seconds)

    # -- introspection -----------------------------------------------------

    @property
    def leases(self) -> tuple[Lease, ...]:
        return tuple(self._leases.values())

    def owns(self, instance_id: str) -> bool:
        """True if this manager ever granted a lease on ``instance_id``."""
        return instance_id in self._known

    def hit_rate(self) -> float:
        """Warm-pool hit rate over all acquire decisions."""
        total = self.pool_hits + self.pool_misses + self.pool_extensions
        return self.pool_hits / total if total else 0.0

    def stats(self) -> dict:
        """Pool behaviour in one dict (mirrored into metrics when enabled)."""
        return {
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_extensions": self.pool_extensions,
            "hit_rate": round(self.hit_rate(), 4),
            "reaped": self.reaped,
            "leases": len(self._leases),
            "pool_evicted": self.pool_evicted,
            "launch_faults": self.launch_faults,
            "cross_campaign_hits": self.cross_campaign_hits,
        }
