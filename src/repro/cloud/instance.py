"""Instance lifecycle and per-instance performance ground truth."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.types import AvailabilityZone, InstanceType
from repro.sim.random import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Obs

__all__ = ["InstanceState", "Instance", "InstanceColumn", "HeterogeneityModel",
           "InstanceError"]


class InstanceError(RuntimeError):
    """Illegal lifecycle transition or misuse of a terminated instance."""


class InstanceState(enum.Enum):
    """EC2 lifecycle states; only RUNNING time is billable (§3.1)."""

    PENDING = "pending"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting-down"
    TERMINATED = "terminated"
    FAILED = "failed"


@dataclass(frozen=True)
class HeterogeneityModel:
    """Distribution of hidden per-instance quality.

    "Small instances are relatively stable over time, but different
    instances can exhibit performance of up to 4 times from each other"
    (Dejun et al., cited in §6); the paper itself "observe[s] instances
    behaving consistently slow or fast" (§3.1).  Quality is drawn once at
    launch and never changes — consistency is the point.
    """

    p_slow: float = 0.12          # noticeably slow instances
    p_very_slow: float = 0.04     # the 3-4x stragglers
    good_sigma: float = 0.04      # jitter among good instances
    slow_range: tuple[float, float] = (0.5, 0.8)
    very_slow_range: tuple[float, float] = (0.25, 0.5)

    def draw_factor(self, rng: RngStream) -> float:
        """One hidden speed factor (1.0 = reference)."""
        u = rng.uniform()
        if u < self.p_very_slow:
            return rng.uniform(*self.very_slow_range)
        if u < self.p_very_slow + self.p_slow:
            return rng.uniform(*self.slow_range)
        return max(0.8, rng.normal(1.0, self.good_sigma))

    def draw_factors(self, rng: RngStream, n: int) -> np.ndarray:
        """``n`` hidden speed factors in one vectorized draw.

        Same mixture as :meth:`draw_factor` but a fixed draw budget (three
        vectors of ``n``) regardless of which branch each instance lands
        in, so the result is a pure function of ``(rng.seed, n)``.  It is
        *not* draw-identical to ``n`` scalar calls — columnar launches are
        a distinct RNG consumer with their own fork names, so installing
        them never shifts scalar-path draws.
        """
        u = rng.uniforms(0.0, 1.0, n)
        v = rng.uniforms(0.0, 1.0, n)
        g = rng.normals(1.0, self.good_sigma, n)
        vs_lo, vs_hi = self.very_slow_range
        s_lo, s_hi = self.slow_range
        out = np.maximum(0.8, g)
        out = np.where(u < self.p_very_slow + self.p_slow,
                       s_lo + v * (s_hi - s_lo), out)
        out = np.where(u < self.p_very_slow,
                       vs_lo + v * (vs_hi - vs_lo), out)
        return out


#: Disk/network speed spreads widely across small instances (the bonnie++
#: vetting exists precisely because of this; Fig. 5/Fig. 6 variability).
IO_HETEROGENEITY = HeterogeneityModel()

#: CPU spread on small instances is milder: stragglers exist but run at
#: ~0.5–0.9× rather than 0.25× — deadline misses in Figs. 8–9 are marginal
#: overshoots, not 3× blowouts.
CPU_HETEROGENEITY = HeterogeneityModel(
    p_slow=0.10, p_very_slow=0.02,
    slow_range=(0.72, 0.90), very_slow_range=(0.5, 0.72),
)


@dataclass
class Instance:
    """One virtual machine.

    ``cpu_factor`` / ``io_factor`` are the hidden ground truth (1.0 =
    reference speed); user-facing code must estimate them via bonnie probes
    or observed throughput, never read them.  ``ready_at`` is the simulated
    time at which the instance leaves PENDING.
    """

    instance_id: str
    itype: InstanceType
    zone: AvailabilityZone
    cpu_factor: float
    io_factor: float
    launched_at: float
    boot_delay: float
    state: InstanceState = InstanceState.PENDING
    running_since: float | None = None
    terminated_at: float | None = None
    attached_volumes: list = field(default_factory=list)
    #: RUNNING seconds until a hardware crash (None = never fails).
    time_to_failure: float | None = None
    #: Observability bundle (set by the launching cloud); lifecycle
    #: transitions emit ``cloud.instance.*`` instants/spans through it.
    _obs: "Obs | None" = field(default=None, repr=False, compare=False)

    @property
    def ready_at(self) -> float:
        return self.launched_at + self.boot_delay

    @property
    def crash_at(self) -> float | None:
        """Absolute simulated time of the crash, once RUNNING."""
        if self.time_to_failure is None or self.running_since is None:
            return None
        return self.running_since + self.time_to_failure

    # -- lifecycle ---------------------------------------------------------

    def mark_running(self, now: float) -> None:
        """PENDING -> RUNNING once the boot delay has elapsed."""
        if self.state is not InstanceState.PENDING:
            raise InstanceError(f"{self.instance_id}: cannot start from {self.state}")
        if now < self.ready_at:
            raise InstanceError(
                f"{self.instance_id}: still booting until t={self.ready_at:.1f}"
            )
        self.state = InstanceState.RUNNING
        self.running_since = now
        obs = self._obs
        if obs is not None and obs.enabled:
            # The PENDING->RUNNING boot window as a span on this
            # instance's track, plus the state-change instant.
            obs.tracer.add_span("cloud.instance.boot", self.launched_at,
                                self.ready_at, cat="cloud",
                                track=self.instance_id)
            obs.tracer.instant("cloud.instance.running", cat="cloud",
                               track=self.instance_id)

    def fail(self, now: float) -> None:
        """Hardware crash: instance-store contents are lost, EBS survives."""
        if self.state is not InstanceState.RUNNING:
            raise InstanceError(f"{self.instance_id}: cannot fail from {self.state}")
        self.state = InstanceState.FAILED
        self.terminated_at = now
        for vol in list(self.attached_volumes):
            vol.detach()
        self._close_lifecycle("cloud.instance.failed", now)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.metrics.counter("cloud.instance.failures").inc()

    def terminate(self, now: float) -> None:
        """Enter TERMINATED; detaches any EBS volumes."""
        if self.state in (InstanceState.TERMINATED, InstanceState.FAILED):
            raise InstanceError(f"{self.instance_id}: already terminated")
        if self.state is InstanceState.RUNNING and now < (self.running_since or 0.0):
            raise InstanceError("termination before start")
        self.state = InstanceState.TERMINATED
        self.terminated_at = now
        for vol in list(self.attached_volumes):
            vol.detach()
        self._close_lifecycle("cloud.instance.terminated", now)

    def _close_lifecycle(self, instant_name: str, now: float) -> None:
        """Emit the RUNNING-interval span and the final state instant."""
        obs = self._obs
        if obs is None or not obs.enabled:
            return
        if self.running_since is not None and now >= self.running_since:
            obs.tracer.add_span("cloud.instance.run", self.running_since,
                                now, cat="cloud", track=self.instance_id,
                                state=self.state.value)
        obs.tracer.instant(instant_name, cat="cloud", track=self.instance_id)

    @property
    def billable_interval(self) -> tuple[float, float] | None:
        """The RUNNING interval (payment is due only while running, §3.1)."""
        if self.running_since is None:
            return None
        end = self.terminated_at if self.terminated_at is not None else float("inf")
        return (self.running_since, end)

    def require_running(self) -> None:
        """Raise unless the instance is RUNNING."""
        if self.state is not InstanceState.RUNNING:
            raise InstanceError(f"{self.instance_id} is {self.state.value}, not running")


class InstanceColumn:
    """``n`` homogeneous instances held as parallel numpy arrays.

    The columnar counterpart of :class:`Instance` — the PR-1 reshaping
    move (object rows → columns) applied to fleet state.  One call
    advances the whole column through a lifecycle edge (boot barrier,
    completion sweep) instead of ``n`` per-instance calls; hidden
    per-instance quality lives in ``cpu_factor`` / ``io_factor`` vectors.

    Lifecycle is deliberately coarser than the scalar class: the column
    boots together (``mark_running_all`` at the barrier — the fleet-launch
    semantics every runner already uses) and retires per instance via a
    vector of end times.  Anything needing per-instance lifecycle nuance
    (crash recovery, lease churn) belongs on scalar instances.
    """

    __slots__ = ("column_id", "itype", "zone", "launched_at", "boot_delay",
                 "cpu_factor", "io_factor", "running_since", "terminated_at",
                 "_running")

    def __init__(self, column_id: str, itype: InstanceType,
                 zone: AvailabilityZone, launched_at: float,
                 boot_delay: np.ndarray, cpu_factor: np.ndarray,
                 io_factor: np.ndarray) -> None:
        n = len(boot_delay)
        if len(cpu_factor) != n or len(io_factor) != n:
            raise InstanceError("column arrays must share one length")
        self.column_id = column_id
        self.itype = itype
        self.zone = zone
        self.launched_at = launched_at
        self.boot_delay = np.asarray(boot_delay, dtype=float)
        self.cpu_factor = np.asarray(cpu_factor, dtype=float)
        self.io_factor = np.asarray(io_factor, dtype=float)
        self.running_since: float | None = None
        self.terminated_at: np.ndarray | None = None
        self._running = False

    def __len__(self) -> int:
        return len(self.boot_delay)

    @property
    def n(self) -> int:
        return len(self.boot_delay)

    def instance_id(self, i: int) -> str:
        """Stable per-member id (for reports and ledger attribution)."""
        return f"{self.column_id}#{i:06d}"

    @property
    def ready_at(self) -> np.ndarray:
        """Per-member boot completion times."""
        return self.launched_at + self.boot_delay

    @property
    def barrier(self) -> float:
        """The fleet boot barrier: the slowest member's ready time."""
        return float(self.ready_at.max()) if self.n else self.launched_at

    @property
    def running(self) -> bool:
        return self._running

    def mark_running_all(self, now: float) -> None:
        """PENDING → RUNNING for the whole column at the boot barrier."""
        if self._running:
            raise InstanceError(f"{self.column_id}: column already running")
        if self.n and now < self.barrier:
            raise InstanceError(
                f"{self.column_id}: still booting until t={self.barrier:.1f}")
        self.running_since = now
        self._running = True

    def terminate_all(self, ends: np.ndarray | float) -> np.ndarray:
        """Retire every member at its own end time; returns the ends vector."""
        if not self._running:
            raise InstanceError(f"{self.column_id}: column never started")
        if self.terminated_at is not None:
            raise InstanceError(f"{self.column_id}: column already terminated")
        ends = np.broadcast_to(np.asarray(ends, dtype=float), (self.n,)).copy()
        if self.n and float(ends.min()) < (self.running_since or 0.0):
            raise InstanceError("termination before the column started")
        self.terminated_at = ends
        self._running = False
        return ends

    def require_running(self) -> None:
        """Raise unless the column is RUNNING."""
        if not self._running:
            raise InstanceError(f"{self.column_id} is not running")
