"""The one acquisition policy: any broker stack, plugged into the core.

:class:`BrokerAcquisition` adapts a :class:`~repro.capacity.brokers
.CapacityBroker` (or any composition of them) to the
:class:`~repro.runner.core.AcquisitionPolicy` protocol the
:class:`~repro.runner.core.ExecutionCore` drives.  The pre-broker
policies survive as factories returning configured instances of this
class — ``FleetLaunchAcquisition`` is an on-demand/resilient stack,
``LeaseAcquisition`` a lazy warm-lease stack, ``SpotAcquisition`` a spot
stack — each bit-identical to its hand-written predecessor
(``tests/test_capacity_differential.py``).

Two granting modes:

* **eager** (default): every occupied bin is requested up front, the
  fleet barrier is the slowest offer's ready time, and instances are
  marked RUNNING together at the barrier — the private-fleet shape;
* **lazy** (``lazy=True``): bins are requested one at a time inside
  :meth:`grants`, after work start — the shared-fleet shape, where
  releasing bin *n*'s lease is what lets bin *n+1* warm-hit it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.capacity.brokers import (
    CapacityBroker,
    CapacityOffer,
    CapacityRequest,
    OfferUnavailable,
    SpotBinState,
)
from repro.runner.core import BinGrant, CoreContext
from repro.runner.execute import FailedBin
from repro.vfs.files import Catalogue

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.lease import LeaseManager
    from repro.resilience.launch import ResilientLauncher

__all__ = ["BrokerAcquisition"]


class BrokerAcquisition:
    """Acquire every bin's capacity through one broker stack.

    Refused eager requests are recorded as
    :class:`~repro.runner.execute.FailedBin` entries.  Replacements route
    through :func:`~repro.resilience.launch.acquire_replacement` with
    this policy's ``launcher``/``lease_manager``, keeping warm re-attach
    vs fresh-boot penalty timing in exactly one place.
    """

    def __init__(self, broker: CapacityBroker, *, lazy: bool = False,
                 launcher: "ResilientLauncher | None" = None,
                 lease_manager: "LeaseManager | None" = None,
                 replacement_tenant: str = "runner",
                 campaign: str | None = None) -> None:
        self.broker = broker
        self.lazy = lazy
        self.launcher = launcher
        self.lease_manager = lease_manager
        self.replacement_tenant = replacement_tenant
        self.campaign = campaign
        self._offers: dict[int, CapacityOffer] = {}

    # -- offer introspection (the spot progress loop reads these) ----------

    def bin_offer(self, index: int) -> CapacityOffer | None:
        """The offer behind one bin's grant (``None`` if it never got one)."""
        return self._offers.get(index)

    def bin_state(self, index: int) -> SpotBinState:
        """The spot market placement behind one bin's grant."""
        state = self._offers[index].state
        if state is None:
            raise KeyError(f"bin {index} was not placed by a spot broker")
        return state

    # -- AcquisitionPolicy ---------------------------------------------------

    def _request(self, ctx: CoreContext, idx: int, at: float) -> CapacityRequest:
        return CapacityRequest(
            bin_index=idx, units=ctx.by_index[idx],
            predicted=ctx.predicted[idx], at=at, deadline=ctx.plan.deadline,
            tenant=self.replacement_tenant, campaign=self.campaign)

    def _grant(self, idx: int, units: Catalogue, offer: CapacityOffer,
               at: float, predicted: float) -> BinGrant:
        self._offers[idx] = offer
        if offer.lease is not None:
            boot = offer.lease.ready_at - at
            work_start = offer.lease.ready_at if self.lazy else 0.0
        else:
            boot = offer.wait + offer.instance.boot_delay
            work_start = 0.0
        return BinGrant(
            index=idx, units=units, instance=offer.instance,
            launch_wait=offer.wait, boot_delay=boot, work_start=work_start,
            predicted=predicted, lease=offer.lease,
            span_extra=dict(offer.span_extra))

    def acquire_fleet(self, ctx: CoreContext) -> None:
        """Request every occupied bin up front (eager mode only)."""
        from repro.chaos import ChaosError
        from repro.resilience.launch import CapacityError

        if self.lazy:
            return  # capacity is drawn per bin, inside grants()
        now = ctx.cloud.now
        grants: list[BinGrant] = []
        launch_failures = 0
        for idx, units in ctx.occupied:
            try:
                offer = self.broker.request(ctx.cloud,
                                            self._request(ctx, idx, now))
            except OfferUnavailable as e:
                ctx.report.failures.append(FailedBin(
                    bin_index=idx, reason=e.reason, n_units=len(units),
                    volume=units.total_size))
                if ctx.obs.enabled:
                    ctx.obs.metrics.counter("runner.bins.failed",
                                            reason=e.reason).inc()
                continue
            except ChaosError as e:
                reason = getattr(e, "reason", None) or str(e)
                ctx.report.failures.append(FailedBin(
                    bin_index=idx, reason=reason, n_units=len(units),
                    volume=units.total_size))
                launch_failures += 1
                continue
            except CapacityError as e:
                ctx.report.failures.append(FailedBin(
                    bin_index=idx, reason=f"capacity-exhausted: {e}",
                    n_units=len(units),
                    volume=units.total_size))
                launch_failures += 1
                continue
            grants.append(self._grant(idx, units, offer, now,
                                      ctx.predicted[idx]))
        if launch_failures and ctx.obs.enabled:
            ctx.obs.metrics.counter("runner.launches.failed"
                                    ).inc(launch_failures)
        ctx.grants = grants

    def work_start_time(self, ctx: CoreContext) -> float | None:
        """The fleet barrier (eager) or the current instant (lazy)."""
        if self.lazy:
            return ctx.cloud.now if ctx.occupied else None
        if not ctx.grants:
            return None
        return max(
            (g.lease.ready_at if g.lease is not None
             else g.instance.ready_at + g.launch_wait)
            for g in ctx.grants)

    def on_work_start(self, ctx: CoreContext) -> None:
        """Mark eager grants RUNNING at the barrier; set the report rate."""
        if self.lazy:
            return  # the lease manager marks cold boots RUNNING itself
        for g in ctx.grants:
            if g.lease is None:
                g.instance.mark_running(ctx.engine.now)
            g.work_start = ctx.work_start
        ctx.report.rate = ctx.grants[0].instance.itype.hourly_rate

    def grants(self, ctx: CoreContext) -> Iterator[BinGrant]:
        """Yield grants in bin order (lazily requesting in lazy mode)."""
        if not self.lazy:
            yield from ctx.grants
            return
        t0 = ctx.work_start
        for idx, units in ctx.occupied:
            offer = self.broker.request(ctx.cloud,
                                        self._request(ctx, idx, t0))
            yield self._grant(idx, units, offer, t0, ctx.predicted[idx])

    def replacement(self, ctx: CoreContext, *, at: float,
                    est_seconds: float = 0.0, bin_index: int | None = None,
                    boot_attach_penalty: float = 180.0,
                    warm_attach_penalty: float = 30.0):
        """Draw a replacement through the one shared penalty-timing path."""
        from repro.resilience.launch import acquire_replacement

        campaign = self.campaign if bin_index is None else f"bin-{bin_index}"
        return acquire_replacement(
            ctx.cloud, at=at, est_seconds=est_seconds,
            lease_manager=self.lease_manager, launcher=self.launcher,
            tenant=self.replacement_tenant, campaign=campaign,
            boot_attach_penalty=boot_attach_penalty,
            warm_attach_penalty=warm_attach_penalty)
