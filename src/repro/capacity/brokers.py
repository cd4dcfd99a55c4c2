"""Composable capacity brokers: one surface over every way to buy capacity.

PRs past added four parallel acquisition paths — plain on-demand boots,
warm leases from a shared fleet, resilient retry/steer/hedge launches,
and spot placements behind a fallback ladder.  A
:class:`CapacityBroker` is the one protocol they all answer now:

* :meth:`~CapacityBroker.request` turns a :class:`CapacityRequest` (one
  bin's capacity need at a simulated instant) into a
  :class:`CapacityOffer` — the instance plus where it came from (zone,
  type, pricing model, boot latency, the lease when a fleet manager owns
  it) — or raises (:class:`OfferUnavailable`, a chaos rejection, a
  capacity/lease exhaustion) when this source cannot serve it;
* :meth:`~CapacityBroker.settle` returns the capacity when the bin is
  done — terminate a private boot, release a lease back to the warm
  pool.

Brokers compose: :class:`ResilientBroker` decorates any inner broker
with the retry ladder, and :class:`LadderBroker` chains brokers in
preference order, falling through on refusal.  ``LadderBroker([
WarmLeaseBroker(mgr), SpotBroker(...), OnDemandBroker()])`` is a
sentence: *prefer warm hours, then the market, then pay list price*.

The policy classes in :mod:`repro.runner` are thin broker
configurations over :class:`~repro.capacity.acquisition
.BrokerAcquisition`; the differential oracles in
``tests/test_capacity_differential.py`` prove each configuration
bit-identical to its pre-broker implementation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.cloud.types import AvailabilityZone, InstanceType

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.cluster import Cloud
    from repro.cloud.instance import Instance
    from repro.cloud.spot import SpotMarketBoard
    from repro.fleet.lease import Lease, LeaseManager
    from repro.resilience.launch import ResilientLauncher
    from repro.resilience.spot import SpotLadder

__all__ = [
    "CapacityBroker",
    "CapacityOffer",
    "CapacityRequest",
    "LadderBroker",
    "OfferUnavailable",
    "OnDemandBroker",
    "ResilientBroker",
    "SpotBinState",
    "SpotBroker",
    "WarmLeaseBroker",
]


class OfferUnavailable(RuntimeError):
    """This broker cannot serve the request; carries the failed-bin reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class CapacityRequest:
    """One bin's capacity need, as seen at a simulated instant.

    ``predicted`` is the perfmodel's estimate for the bin (brokers use it
    for lease sizing and preemptive escalation), ``deadline`` the plan
    deadline the work must fit, ``itype`` an explicit type override
    (escalation requests pin the primary type; ``None`` lets the broker
    choose its default).
    """

    bin_index: int | None = None
    units: list = field(default_factory=list)
    predicted: float = 0.0
    at: float = 0.0
    deadline: float | None = None
    tenant: str = "runner"
    campaign: str | None = None
    itype: InstanceType | None = None


@dataclass
class SpotBinState:
    """Where one bin currently runs: market, zone, type."""

    zone: str
    itype: InstanceType
    on_demand: bool = False


@dataclass
class CapacityOffer:
    """Capacity one broker granted: the instance and its provenance.

    ``pricing`` names the billing model (``"on-demand"`` ceil-hour,
    ``"spot"`` per-market-hour, ``"lease"`` manager-owned); ``wait`` is
    resilience-absorbed latency before the final boot; ``boot`` the
    final boot delay itself; ``lease`` is set when a fleet manager owns
    the instance (settle releases instead of terminating); ``state`` is
    the spot market placement when the spot broker made it.  ``broker``
    points back at the broker that must :meth:`~CapacityBroker.settle`
    this offer.
    """

    instance: "Instance"
    broker: "CapacityBroker"
    pricing: str = "on-demand"
    zone: str = ""
    itype: InstanceType | None = None
    boot: float = 0.0
    wait: float = 0.0
    lease: "Lease | None" = None
    state: SpotBinState | None = None
    span_extra: dict = field(default_factory=dict)


@runtime_checkable
class CapacityBroker(Protocol):
    """The one protocol every capacity source answers."""

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """Grant capacity for ``req`` or raise why this source cannot."""
        ...

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Return the offer's capacity (terminate or release) at ``at``."""
        ...


class OnDemandBroker:
    """List-price capacity: one plain ``launch_instance`` per request.

    The terminal rung of every ladder — it never refuses on its own
    (chaos rejections propagate as the cloud raises them).  ``itype`` /
    ``zone`` pin the launch; a request's explicit ``itype`` wins.
    """

    def __init__(self, itype: InstanceType | None = None,
                 zone: AvailabilityZone | None = None) -> None:
        self.itype = itype
        self.zone = zone

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """Launch one instance at the posted rate (still PENDING)."""
        itype = req.itype if req.itype is not None else self.itype
        if itype is None:
            inst = (cloud.launch_instance(zone=self.zone, wait=False)
                    if self.zone is not None
                    else cloud.launch_instance(wait=False))
        else:
            inst = cloud.launch_instance(itype, self.zone, wait=False)
        return CapacityOffer(instance=inst, broker=self,
                             pricing="on-demand", zone=inst.zone.name,
                             itype=inst.itype, boot=inst.boot_delay)

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Terminate the private boot."""
        offer.instance.terminate(at)


class WarmLeaseBroker:
    """Shared-fleet capacity: every request draws a lease from a manager.

    Warm hits ride hours someone already paid for; settle releases the
    lease back to the pool (billing stays with the manager).  Raises
    :class:`~repro.fleet.lease.LeaseError` when the manager is exhausted,
    which a :class:`LadderBroker` treats as fall-through.
    """

    def __init__(self, manager: "LeaseManager", *, tenant: str = "default",
                 campaign: str | None = None) -> None:
        self.manager = manager
        self.tenant = tenant
        self.campaign = campaign

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """Draw a lease sized to the request's predicted seconds."""
        campaign = req.campaign if req.campaign is not None else self.campaign
        lease = self.manager.acquire(self.tenant, est_seconds=req.predicted,
                                     at=req.at, campaign=campaign)
        return CapacityOffer(
            instance=lease.instance, broker=self, pricing="lease",
            zone=lease.instance.zone.name, itype=lease.instance.itype,
            boot=lease.ready_at - req.at, lease=lease,
            span_extra={"tenant": self.tenant, "source": lease.source})

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Release the lease back to the warm pool."""
        self.manager.release(offer.lease, at)


class ResilientBroker:
    """Retry/steer/hedge as a decorator: absorb faults, pay in latency.

    With no ``inner`` the launcher's own zone-steered
    ``launch_instance`` path runs (bit-identical to the pre-broker
    resilient fleet launch); with an ``inner`` broker the same retry
    schedule wraps *its* requests — e.g. a resilient spot ladder — with
    each refusal feeding the backoff and the absorbed wait landing on
    the offer's ``wait``.
    """

    def __init__(self, launcher: "ResilientLauncher", *,
                 inner: "CapacityBroker | None" = None) -> None:
        self.launcher = launcher
        self.inner = inner

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """Acquire through the retry ladder; raise ``CapacityError`` spent."""
        if self.inner is None:
            acq = self.launcher.launch(at=req.at)
            return CapacityOffer(
                instance=acq.instance, broker=self, pricing="on-demand",
                zone=acq.zone, itype=acq.instance.itype,
                boot=acq.instance.boot_delay, wait=acq.wait_seconds)
        return self._request_inner(cloud, req)

    def _request_inner(self, cloud: "Cloud",
                       req: CapacityRequest) -> CapacityOffer:
        from repro.chaos import ChaosError
        from repro.fleet.lease import LeaseError
        from repro.resilience.launch import CapacityError

        launcher = self.launcher
        waited = 0.0
        faults: list[str] = []
        delays = launcher.retry.delays(
            launcher.rng.fork(f"acquire.{launcher.attempts}"))
        attempt = 0
        while attempt < launcher.retry.max_attempts:
            attempt += 1
            launcher.attempts += 1
            try:
                offer = self.inner.request(
                    cloud, dataclasses.replace(req, at=req.at + waited))
            except (ChaosError, LeaseError, OfferUnavailable) as e:
                reason = getattr(e, "reason", None) or str(e)
                faults.append(reason)
                launcher.absorbed_faults += 1
                delay = next(delays, None)
                if delay is None:
                    break
                waited += delay
                continue
            launcher.wait_seconds_total += waited
            offer.wait += waited
            return offer
        launcher.wait_seconds_total += waited
        raise CapacityError(
            f"no capacity after {attempt} attempts / {waited:.0f}s of "
            f"backoff (faults: {', '.join(faults) or 'none'})")

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Settle with whoever granted (the launcher path terminates)."""
        if offer.broker is not self:
            offer.broker.settle(cloud, offer, at)
        else:
            offer.instance.terminate(at)


class SpotBroker:
    """Market capacity behind the fallback ladder's initial-placement rung.

    Replicates the spot acquisition decision sequence exactly: a bin
    whose prediction plus the safety buffer cannot fit the deadline
    escalates before touching the market (*preemptive-start*); otherwise
    the cheapest zone the bid covers gets the launch; an unaffordable
    market or a rejected launch escalates when the policy allows, else
    the request fails with ``"spot-unavailable"``.  Escalations route
    through the ``escalation`` broker — an :class:`OnDemandBroker` by
    default, a warm-lease/on-demand :class:`LadderBroker` when a fleet
    should absorb escalated segments.
    """

    def __init__(self, board: "SpotMarketBoard", ladder: "SpotLadder", *,
                 stats=None,
                 escalation: "CapacityBroker | None" = None) -> None:
        if stats is None:
            from repro.runner.spot import SpotRunStats
            stats = SpotRunStats()
        self.board = board
        self.ladder = ladder
        self.stats = stats
        self.escalation = (escalation if escalation is not None
                           else OnDemandBroker())

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """Place one bin on spot, or escalate, or refuse."""
        from repro.chaos import ChaosError

        p = self.ladder.policy
        deadline = req.deadline if req.deadline is not None else float("inf")
        if self.ladder.should_escalate(req.predicted, deadline):
            return self._escalate(cloud, req, reason="preemptive-start")
        zone = self.ladder.initial_zone(req.at)
        if zone is None:
            # Nothing affordable at t=0: escalate or refuse.
            if p.escalate:
                return self._escalate(cloud, req,
                                      reason="unaffordable-start")
            raise OfferUnavailable("spot-unavailable")
        try:
            inst = cloud.launch_instance(
                p.itype, cloud.region.zone(zone), wait=False)
        except ChaosError as e:
            if p.escalate:
                return self._escalate(cloud, req,
                                      reason=f"launch-rejected: {e}")
            raise OfferUnavailable("spot-unavailable") from e
        state = SpotBinState(zone=zone, itype=p.itype)
        return CapacityOffer(
            instance=inst, broker=self, pricing="spot", zone=zone,
            itype=p.itype, boot=inst.boot_delay, state=state,
            span_extra={"market": "spot", "zone": zone})

    def _escalate(self, cloud: "Cloud", req: CapacityRequest, *,
                  reason: str) -> CapacityOffer:
        """Route one bin to the escalation broker at the primary type."""
        from repro.chaos import ChaosError
        from repro.fleet.lease import LeaseError
        from repro.resilience.launch import CapacityError

        p = self.ladder.policy
        try:
            offer = self.escalation.request(
                cloud, dataclasses.replace(req, itype=p.itype))
        except (ChaosError, OfferUnavailable, CapacityError, LeaseError) as e:
            raise OfferUnavailable("spot-unavailable") from e
        self.stats.escalations += 1
        self.stats.preemptive_escalations += 1
        if cloud.obs.enabled:
            cloud.obs.metrics.counter("runner.spot.escalations",
                                      reason=reason.split(":")[0]).inc()
        offer.state = SpotBinState(zone=offer.instance.zone.name,
                                   itype=p.itype, on_demand=True)
        offer.span_extra = {"market": "on-demand", "zone": offer.state.zone}
        return offer

    def escalation_offer(self, cloud: "Cloud", *, at: float,
                         predicted: float, bin_index: int | None,
                         itype: InstanceType) -> CapacityOffer:
        """A mid-run escalation draw (segment restart, not placement).

        No preemptive-start bookkeeping: the segment loop already
        counted the rung.  Chaos rejections propagate exactly as the
        direct ``launch_instance`` call they replace did.
        """
        campaign = None if bin_index is None else f"bin-{bin_index}"
        return self.escalation.request(cloud, CapacityRequest(
            bin_index=bin_index, predicted=predicted, at=at,
            tenant="spot", campaign=campaign, itype=itype))

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Settle with whoever granted (spot placements terminate)."""
        if offer.broker is not self:
            offer.broker.settle(cloud, offer, at)
        else:
            offer.instance.terminate(at)


class LadderBroker:
    """Chain brokers in preference order; refusal falls through.

    A broker *refuses* by raising :class:`OfferUnavailable`, a chaos
    rejection, a :class:`~repro.resilience.launch.CapacityError` or a
    :class:`~repro.fleet.lease.LeaseError`; the last broker's exception
    propagates so callers see the terminal failure mode unchanged.
    """

    def __init__(self, brokers: Sequence["CapacityBroker"]) -> None:
        if not brokers:
            raise ValueError("LadderBroker needs at least one broker")
        self.brokers = list(brokers)

    def request(self, cloud: "Cloud", req: CapacityRequest) -> CapacityOffer:
        """First broker that serves the request wins."""
        from repro.chaos import ChaosError
        from repro.fleet.lease import LeaseError
        from repro.resilience.launch import CapacityError

        last = len(self.brokers) - 1
        for i, broker in enumerate(self.brokers):
            try:
                return broker.request(cloud, req)
            except (OfferUnavailable, ChaosError, CapacityError, LeaseError):
                if i == last:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def settle(self, cloud: "Cloud", offer: CapacityOffer,
               at: float) -> None:
        """Settle with the broker that granted the offer."""
        offer.broker.settle(cloud, offer, at)
