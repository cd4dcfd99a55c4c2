"""The fault injector: scenarios × seeded randomness → injected faults.

A :class:`FaultInjector` holds a stack of
:class:`~repro.chaos.scenario.FaultScenario` values and answers the
cloud's hook points:

* :meth:`launch_decision` — should this launch attempt be granted,
  rejected, or granted-but-hung?  Drawn from a stream forked per attempt
  index, so decisions are a pure function of ``(seed, attempt, zone)``
  and replay identically regardless of call interleaving;
* :meth:`zone_down` / :meth:`outage_starts_between` — AZ outage windows;
* :meth:`ebs_factor` / :meth:`s3_factor` / :meth:`s3_sigma_boost` —
  degraded-throughput multipliers at a simulated time.

Every injected fault is appended to :attr:`FaultInjector.injected` — the
replayable fault log the determinism tests compare across runs — and
mirrored to ``chaos.*`` metrics/instants when observability is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.chaos.scenario import ANY_ZONE, FaultScenario
from repro.sim.random import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Obs

__all__ = ["ChaosError", "LaunchRejected", "InjectedFault", "LaunchDecision",
           "FaultInjector"]


class ChaosError(RuntimeError):
    """Base class for faults injected by the chaos layer."""


class LaunchRejected(ChaosError):
    """An instance launch refused by the cloud (capacity or AZ outage)."""

    def __init__(self, zone: str, reason: str) -> None:
        super().__init__(f"launch rejected in {zone}: {reason}")
        self.zone = zone
        self.reason = reason


@dataclass(frozen=True)
class InjectedFault:
    """One entry of the replayable fault log."""

    kind: str            # "launch-reject" | "boot-hang" | "az-outage" | ...
    at: float            # simulated time of injection
    zone: str
    detail: str = ""


@dataclass(frozen=True)
class LaunchDecision:
    """Outcome of one launch attempt under the installed scenarios."""

    kind: str                      # "ok" | "reject" | "hang"
    reason: str = ""
    hang_seconds: float = 0.0


_OK = LaunchDecision("ok")


class FaultInjector:
    """Composable, deterministic fault source for one :class:`Cloud`.

    ``seed`` should come from the owning cloud so one campaign seed
    reproduces the whole run; the injector forks ``chaos`` off it and
    never touches the cloud's own streams — installing chaos does not
    shift any draw existing consumers observe.
    """

    def __init__(self, scenarios: Sequence[FaultScenario] | FaultScenario,
                 *, seed: int = 0, obs: "Obs | None" = None) -> None:
        if isinstance(scenarios, FaultScenario):
            scenarios = (scenarios,)
        self.scenarios: tuple[FaultScenario, ...] = tuple(scenarios)
        self.rng = RngStream(seed, name="cloud").fork("chaos")
        self.obs = obs
        self.injected: list[InjectedFault] = []
        self._outages = tuple(o for s in self.scenarios for o in s.az_outages)
        self._ebs = tuple(d for s in self.scenarios for d in s.ebs_degradations)
        self._s3 = tuple(d for s in self.scenarios for d in s.s3_degradations)
        self._spot = tuple(t for s in self.scenarios
                           for t in s.spot_interruptions)
        # Hang probability composes like rejection: independent events.
        p_ok = 1.0
        hang_seconds = 0.0
        for s in self.scenarios:
            p_ok *= 1.0 - s.boot_hang_prob
            if s.boot_hang_prob > 0:
                hang_seconds = max(hang_seconds, s.boot_hang_seconds)
        self._hang_prob = 1.0 - p_ok
        self._hang_seconds = hang_seconds

    # -- launch path -------------------------------------------------------

    def launch_decision(self, zone_name: str, now: float,
                        attempt: int) -> LaunchDecision:
        """Fate of launch ``attempt`` (1-based, cloud-wide) into a zone."""
        if self.zone_down(zone_name, now):
            self._record("az-outage", now, zone_name, "launch refused")
            return LaunchDecision("reject", reason="az-outage")
        reject = 0.0
        for s in self.scenarios:
            r = s.reject_rate(zone_name)
            reject = 1.0 - (1.0 - reject) * (1.0 - r)
        rng = self.rng.fork(f"launch.{attempt}.{zone_name}")
        if reject > 0 and rng.uniform() < reject:
            self._record("launch-reject", now, zone_name,
                         "InsufficientInstanceCapacity")
            return LaunchDecision("reject", reason="insufficient-capacity")
        if self._hang_prob > 0 and rng.uniform() < self._hang_prob:
            self._record("boot-hang", now, zone_name,
                         f"pending for {self._hang_seconds:.0f}s")
            return LaunchDecision("hang", reason="boot-hang",
                                  hang_seconds=self._hang_seconds)
        return _OK

    # -- AZ outages --------------------------------------------------------

    @property
    def has_outages(self) -> bool:
        """Any AZ-outage window installed (advance must step them)."""
        return bool(self._outages)

    @property
    def has_ebs_degradations(self) -> bool:
        """Any EBS degradation episode installed."""
        return bool(self._ebs)

    @property
    def has_s3_degradations(self) -> bool:
        """Any S3 brownout episode installed."""
        return bool(self._s3)

    def zone_down(self, zone_name: str, t: float) -> bool:
        """True while any outage window covers ``zone_name`` at ``t``."""
        return any(o.zone == zone_name and o.active(t) for o in self._outages)

    def outage_starts_between(self, t0: float, t1: float) -> list[tuple[float, str]]:
        """Outage onsets in ``(t0, t1]`` — the kill boundaries for ``advance``."""
        hits = [(o.start, o.zone) for o in self._outages if t0 < o.start <= t1]
        return sorted(hits)

    def record_outage_kill(self, at: float, zone_name: str,
                           instance_id: str) -> None:
        """Log one running instance killed by a zone outage."""
        self._record("az-outage-kill", at, zone_name, instance_id)

    # -- spot reclaims -----------------------------------------------------

    @property
    def has_spot_interruptions(self) -> bool:
        """Any replayable spot-reclaim trace installed."""
        return bool(self._spot)

    def next_spot_interruption(self, zone_name: str, t: float) -> float | None:
        """Earliest recorded spot reclaim in ``zone_name`` strictly after ``t``.

        Pure trace lookup — nothing is drawn, so querying is idempotent
        and composes with the market's own price-crossing interruptions
        (the caller takes whichever comes first).
        """
        hits = [at for trace in self._spot
                for at in (trace.next_after(zone_name, t),) if at is not None]
        return min(hits) if hits else None

    def record_spot_interruption(self, at: float, zone_name: str,
                                 detail: str = "") -> None:
        """Log one spot instance reclaimed (trace or market crossing)."""
        self._record("spot-interruption", at, zone_name, detail)

    # -- degraded storage paths -------------------------------------------

    def ebs_factor(self, t: float, zone_name: str = ANY_ZONE) -> float:
        """IO-time multiplier for EBS reads in ``zone_name`` at ``t``."""
        f = 1.0
        for d in self._ebs:
            if d.active(t) and (d.zone == ANY_ZONE or zone_name == ANY_ZONE
                                or d.zone == zone_name):
                f *= d.factor
        return f

    def s3_factor(self, t: float) -> float:
        """Transfer-time multiplier for S3 requests at ``t``."""
        f = 1.0
        for d in self._s3:
            if d.active(t):
                f *= d.factor
        return f

    def s3_sigma_boost(self, t: float) -> float:
        """Additional lognormal sigma on S3 request latency at ``t``."""
        return sum(d.sigma_boost for d in self._s3 if d.active(t))

    # -- fault log ---------------------------------------------------------

    def _record(self, kind: str, at: float, zone: str, detail: str) -> None:
        self.injected.append(InjectedFault(kind, at, zone, detail))
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.metrics.counter("chaos.faults.injected", kind=kind).inc()
            obs.tracer.instant(f"chaos.{kind}", cat="chaos", track=zone,
                               detail=detail)

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault tallies by kind (for reports and sweeps)."""
        counts: dict[str, int] = {}
        for f in self.injected:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts
