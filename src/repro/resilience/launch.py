"""Resilient instance acquisition: retries, zone steering, hedged boots.

:class:`ResilientLauncher` wraps ``cloud.launch_instance`` with the three
acquisition-failure defences real EC2 campaigns need:

* **retry with backoff** — an ``InsufficientInstanceCapacity``-style
  rejection is retried under the shared :class:`RetryPolicy`, with the
  backoff elapsing on *simulated* time (accounted as launch latency, not
  billed — the instance is not RUNNING yet);
* **breaker steering** — rejections feed the zone's
  :class:`~repro.resilience.breaker.CircuitBreaker`; an open breaker
  removes the zone from the candidate list, so a dead AZ stops eating
  retry budget after ``failure_threshold`` failures;
* **hedged boots** — a launch whose boot has not completed within the
  p99 of the boot-delay distribution is declared hung, abandoned (a
  PENDING instance is never billed), and replaced by a fresh attempt;
  the p99 wait is paid once per hang.

Runners acquire their fleets through the :mod:`repro.capacity` brokers;
:func:`acquire_replacement` is the one implementation of replacement
acquisition + penalty timing behind them.  :func:`launch_fleet` launches
a whole fleet directly; only the seed-runner oracle in
``tests/reference_runners.py`` still calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.resilience.breaker import BreakerBoard
from repro.resilience.retry import RetryPolicy
from repro.units import resume_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.cluster import Cloud
    from repro.cloud.instance import Instance
    from repro.fleet.lease import Lease, LeaseManager
    from repro.resilience.degrade import DegradationPlanner

__all__ = ["CapacityError", "Acquisition", "ResilientLauncher",
           "launch_fleet", "acquire_replacement"]


class CapacityError(RuntimeError):
    """No instance could be acquired within the retry policy's budget."""


@dataclass(frozen=True)
class Acquisition:
    """Outcome of one resilient launch."""

    instance: "Instance"
    zone: str
    attempts: int              # launch attempts made (success included)
    hedges: int                # boots declared hung and abandoned
    wait_seconds: float        # backoff + hung-boot waits before final boot
    faults: tuple[str, ...]    # reasons of the absorbed failures


class ResilientLauncher:
    """Retry/steer/hedge policy wrapper around one cloud's launch path.

    The launcher is deterministic under the cloud seed: its RNG forks off
    the cloud's root stream by name (a pure derivation — no draws are
    consumed from existing consumers) and each backoff delay forks again
    by a global attempt counter.
    """

    def __init__(self, cloud: "Cloud", *,
                 retry: RetryPolicy | None = None,
                 breakers: BreakerBoard | None = None,
                 boot_timeout_quantile: float = 0.99,
                 degradation: "DegradationPlanner | None" = None,
                 max_hedges: int = 4) -> None:
        if not 0 < boot_timeout_quantile <= 1:
            raise ValueError("boot_timeout_quantile must be in (0, 1]")
        if max_hedges < 0:
            raise ValueError("max_hedges must be non-negative")
        self.cloud = cloud
        self.retry = retry or RetryPolicy()
        self.breakers = breakers or BreakerBoard(obs=cloud.obs)
        self.degradation = degradation
        self.max_hedges = max_hedges
        lo, hi = cloud.boot_delay_range
        #: A boot still PENDING past this is treated as hung (§ hedging).
        self.boot_timeout = lo + boot_timeout_quantile * (hi - lo)
        self.rng = cloud.rng.fork("resilience.launcher")
        self.obs = cloud.obs
        #: Zones whose instances measured slow; deprioritised, not banned.
        self.slow_zones: set[str] = set()
        self.attempts = 0
        self.absorbed_faults = 0
        self.hedged_boots = 0
        self.wait_seconds_total = 0.0

    # -- zone choice -------------------------------------------------------

    def note_slow_zone(self, zone_name: str) -> None:
        """Observable feedback: a straggler replacement fled this zone."""
        self.slow_zones.add(zone_name)

    def _candidate_zones(self, now: float) -> list:
        """Region zones, breaker-allowed first, slow zones last."""
        zones = list(self.cloud.region.zones)
        allowed = [z for z in zones if self.breakers.allows(z.name, now)]
        pool = allowed or zones      # all open: trial in region order
        return sorted(pool, key=lambda z: (z.name in self.slow_zones,
                                           zones.index(z)))

    # -- acquisition -------------------------------------------------------

    def launch(self, *, at: float | None = None) -> Acquisition:
        """Acquire one RUNNING-bound instance or raise :class:`CapacityError`.

        Returns the instance still PENDING (as ``wait=False`` launches
        do); ``wait_seconds`` carries the backoff and hung-boot time the
        acquisition absorbed, which callers account as launch latency.
        """
        from repro.chaos import ChaosError

        cloud = self.cloud
        now = cloud.now if at is None else at
        obs = self.obs
        waited = 0.0
        hedges = 0
        faults: list[str] = []
        delays = self.retry.delays(self.rng.fork(f"acquire.{self.attempts}"))
        attempt = 0
        while attempt < self.retry.max_attempts:
            attempt += 1
            self.attempts += 1
            zone = self._candidate_zones(now + waited)[0]
            try:
                inst = cloud.launch_instance(zone=zone, wait=False)
            except ChaosError as e:
                reason = getattr(e, "reason", "rejected")
                faults.append(f"{zone.name}:{reason}")
                self.absorbed_faults += 1
                self.breakers.breaker(zone.name).record_failure(now + waited)
                if obs.enabled:
                    obs.metrics.counter("resilience.launch.rejected",
                                        zone=zone.name, reason=reason).inc()
                delay = next(delays, None)
                if delay is None:
                    break
                if obs.enabled:
                    obs.tracer.add_span("resilience.retry.backoff",
                                        now + waited, now + waited + delay,
                                        cat="resilience", track=zone.name,
                                        attempt=attempt, reason=reason)
                    obs.metrics.counter("resilience.retry.wait_seconds"
                                        ).inc(delay)
                waited += delay
                continue
            if inst.boot_delay > self.boot_timeout and hedges < self.max_hedges:
                # Hung boot: abandon the PENDING instance (never billed),
                # pay the timeout we waited before giving up on it.
                hedges += 1
                self.hedged_boots += 1
                faults.append(f"{zone.name}:boot-hang")
                self.breakers.breaker(zone.name).record_failure(now + waited)
                if obs.enabled:
                    obs.tracer.add_span("resilience.hedge.wait", now + waited,
                                        now + waited + self.boot_timeout,
                                        cat="resilience",
                                        track=inst.instance_id,
                                        zone=zone.name)
                    obs.metrics.counter("resilience.hedges",
                                        zone=zone.name).inc()
                waited += self.boot_timeout
                continue
            self.breakers.breaker(zone.name).record_success(now + waited)
            self.wait_seconds_total += waited
            if obs.enabled and (waited or faults):
                obs.tracer.instant("resilience.launch.recovered",
                                   cat="resilience", track=inst.instance_id,
                                   zone=zone.name, waited=round(waited, 1),
                                   absorbed=len(faults))
            return Acquisition(instance=inst, zone=zone.name,
                               attempts=attempt, hedges=hedges,
                               wait_seconds=waited, faults=tuple(faults))
        self.wait_seconds_total += waited
        if obs.enabled:
            obs.metrics.counter("resilience.launch.exhausted").inc()
        raise CapacityError(
            f"no capacity after {attempt} attempts / {waited:.0f}s of "
            f"backoff (faults: {', '.join(faults) or 'none'})")

    def stats(self) -> dict:
        """Acquisition-side facts for reports and the chaos sweep."""
        return {
            "attempts": self.attempts,
            "absorbed_faults": self.absorbed_faults,
            "hedged_boots": self.hedged_boots,
            "wait_seconds": round(self.wait_seconds_total, 1),
            "breakers": self.breakers.states(),
            "slow_zones": sorted(self.slow_zones),
        }


def launch_fleet(
    cloud: "Cloud",
    bins: list[int],
    *,
    launcher: ResilientLauncher | None = None,
) -> tuple[list[tuple[int, "Instance", float]], list[tuple[int, str]]]:
    """Launch one instance per bin index in ``bins``.

    Returns ``(granted, failed)`` where ``granted`` holds
    ``(bin_index, instance, wait_seconds)`` triples (instances still
    PENDING) and ``failed`` holds ``(bin_index, reason)`` for bins whose
    acquisition failed outright.  Without a launcher and without chaos
    installed this is byte-for-byte the runners' original launch loop;
    with chaos but no launcher, injected faults surface as failed bins
    (the resilience-off baseline); with a launcher, faults are absorbed
    per the retry/steer/hedge policy.
    """
    from repro.chaos import ChaosError

    granted: list[tuple[int, "Instance", float]] = []
    failed: list[tuple[int, str]] = []
    for idx in bins:
        try:
            if launcher is not None:
                acq = launcher.launch()
                granted.append((idx, acq.instance, acq.wait_seconds))
            else:
                granted.append((idx, cloud.launch_instance(wait=False), 0.0))
        except ChaosError as e:
            failed.append((idx, getattr(e, "reason", None) or str(e)))
        except CapacityError as e:
            failed.append((idx, f"capacity-exhausted: {e}"))
    if failed and cloud.obs.enabled:
        cloud.obs.metrics.counter("runner.launches.failed").inc(len(failed))
    return granted, failed


def acquire_replacement(
    cloud: "Cloud",
    *,
    at: float,
    est_seconds: float = 0.0,
    lease_manager: "LeaseManager | None" = None,
    launcher: ResilientLauncher | None = None,
    tenant: str = "runner",
    campaign: str | None = None,
    boot_attach_penalty: float = 180.0,
    warm_attach_penalty: float = 30.0,
) -> tuple["Instance", "Lease | None", float]:
    """Acquire a replacement instance; one penalty-timing implementation.

    Returns ``(instance, lease, penalty_seconds)``; the instance is
    RUNNING on return.  Preference order: a fleet lease when a manager is
    given (warm hit: only the volume move is paid; cold: the drawn boot
    plus attach), else a resilient launch when a launcher is given
    (absorbed waits count into the penalty), else a plain private boot at
    the flat §3.1 boot+attach penalty.  Raises
    :class:`~repro.fleet.lease.LeaseError` /:class:`CapacityError` /
    chaos errors exactly as the underlying path does.
    """
    if lease_manager is not None:
        lease = lease_manager.acquire(tenant, est_seconds=est_seconds, at=at,
                                      campaign=campaign)
        penalty = (lease.ready_at - at) + warm_attach_penalty
        return lease.instance, lease, penalty
    if launcher is not None:
        acq = launcher.launch(at=at)
        inst = acq.instance
        inst.mark_running(resume_time(cloud.now, inst.ready_at))
        return inst, None, acq.wait_seconds + boot_attach_penalty
    inst = cloud.launch_instance(wait=False)
    inst.mark_running(resume_time(cloud.now, inst.ready_at))
    return inst, None, boot_attach_penalty
