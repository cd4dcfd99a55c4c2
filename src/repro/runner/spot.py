"""Spot-market provisioning: run a plan on capacity the market can reclaim.

:class:`SpotAcquisition` is an :class:`~repro.runner.core.AcquisitionPolicy`
that provisions each bin on spot capacity priced by a
:class:`~repro.cloud.spot.SpotMarketBoard`; :class:`SpotProgress` walks
each bin through *segments* — stretches of work on one instance between
interruptions.  An interruption (the per-AZ price crossing the bid, or a
replayed :class:`~repro.chaos.SpotInterruptionTrace` event) delivers the
two-minute warning, checkpoints what fits before it, bills the segment
under the 2010 spot rules (the market-cut trailing partial hour is free),
and asks the :class:`~repro.resilience.spot.SpotLadder` where the work
goes next: a different AZ, a different instance type, the queue, or a
full-rate on-demand instance the market cannot touch.  Escalation is
*preemptive* — checked at every segment boundary against the perfmodel's
predicted remaining work plus the restart-overhead safety buffer.

Billing is inline (per charged spot instance-hour at that hour's market
price; ceil-hour at the on-demand rate for escalated segments), so
:class:`SpotCompletion` deliberately skips the ceil-hour settle
:class:`~repro.runner.core.FleetCompletion` would add.  Run records
carry ``kind="spot"``.

Span/metric taxonomy (extends the ``runner.*`` vocabulary):

==========================================  ================================
``runner.spot.segment`` (span)              one instance's work stretch
``runner.spot.interruption`` (instant)      a reclaim hit a segment
``runner.spot.warning`` (instant)           its two-minute notice
``runner.spot.interruptions`` (counter)     reclaims absorbed, by source
``runner.spot.escalations`` (counter)       on-demand escalations, by reason
``runner.spot.rebids`` (counter)            rung-1 different-AZ re-bids
``runner.spot.retypes`` (counter)           rung-2 instance-type fallbacks
``runner.spot.queued`` (counter)            rung-3 market waits
``runner.spot.saved_seconds`` (histogram)   work a checkpoint preserved
``runner.spot.lost_seconds`` (histogram)    work an interruption destroyed
``runner.spot.discount`` (gauge)            realized cost / pure on-demand
==========================================  ================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, cast

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.cloud.spot import TWO_MINUTE_WARNING, SpotMarketBoard
from repro.cloud.types import InstanceType
from repro.core.planner import ProvisioningPlan
from repro.resilience.spot import FallbackDecision, SpotFallbackPolicy, SpotLadder
from repro.runner.core import (
    BinGrant,
    BinOutcome,
    CompletionPolicy,
    CoreContext,
    ExecutionCore,
    FleetCompletion,
    FleetTimeline,
)
from repro.runner.execute import ExecutionReport, FailedBin, InstanceRun
from repro.units import ceil_hour_cost, resume_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.capacity import BrokerAcquisition, CapacityOffer, WarmLeaseBroker
    from repro.chaos import FaultInjector
    from repro.cloud.instance import Instance
    from repro.resilience.launch import ResilientLauncher

__all__ = ["SpotAcquisition", "SpotBinState", "SpotCompletion", "SpotProgress",
           "SpotRunResult", "SpotRunStats", "execute_plan_spot"]


@dataclass
class SpotRunStats:
    """Aggregate spot economics for one run (shared across the policies)."""

    interruptions: int = 0
    escalations: int = 0
    preemptive_escalations: int = 0
    rebids: int = 0
    retypes: int = 0
    queued: int = 0
    queued_seconds: float = 0.0
    saved_seconds: float = 0.0
    lost_seconds: float = 0.0
    spot_cost: float = 0.0
    on_demand_cost: float = 0.0
    #: The counterfactual bill: each bin's first-instance uninterrupted
    #: duration, ceil-hour-priced at the primary type's on-demand rate.
    on_demand_equivalent: float = 0.0

    @property
    def total_cost(self) -> float:
        """Everything the run paid (spot hours + escalated hours)."""
        return self.spot_cost + self.on_demand_cost

    @property
    def discount(self) -> float | None:
        """Realized cost over the pure on-demand counterfactual (<1 = won)."""
        if self.on_demand_equivalent <= 0:
            return None
        return self.total_cost / self.on_demand_equivalent

    def summary(self) -> dict:
        """Headline spot facts in one flat dict (for sweeps and the CLI)."""
        out = {
            "interruptions": self.interruptions,
            "escalations": self.escalations,
            "preemptive_escalations": self.preemptive_escalations,
            "rebids": self.rebids,
            "retypes": self.retypes,
            "queued": self.queued,
            "queued_seconds": round(self.queued_seconds, 1),
            "saved_seconds": round(self.saved_seconds, 1),
            "lost_seconds": round(self.lost_seconds, 1),
            "spot_cost_usd": round(self.spot_cost, 4),
            "on_demand_cost_usd": round(self.on_demand_cost, 4),
            "on_demand_equivalent_usd": round(self.on_demand_equivalent, 4),
        }
        if self.discount is not None:
            out["discount"] = round(self.discount, 4)
        return out


from repro.capacity.brokers import SpotBinState  # noqa: E402  (re-export)


@dataclass
class SpotRunResult:
    """Everything one spot run produced."""

    report: ExecutionReport
    stats: SpotRunStats
    timeline: FleetTimeline = field(default_factory=FleetTimeline)


def SpotAcquisition(board: SpotMarketBoard, *, ladder: SpotLadder,
                    stats: SpotRunStats | None = None,
                    launcher: "ResilientLauncher | None" = None,
                    escalation=None):
    """Per-bin spot placement with preemptive on-demand starts.

    A factory over a :class:`~repro.capacity.BrokerAcquisition` stacked
    on a :class:`~repro.capacity.SpotBroker`: each occupied bin launches
    into the cheapest zone its bid covers; a bin whose predicted time
    plus the safety buffer already exceeds the plan deadline never
    touches the market (a *preemptive-start* escalation straight into
    the ``escalation`` broker — on-demand by default).  Bins that can
    get no capacity at all are reported as failures, which the
    completion policy's degradation replan re-homes when a ``launcher``
    with a :class:`~repro.resilience.degrade.DegradationPlanner` is
    attached.
    """
    from repro.capacity import BrokerAcquisition, SpotBroker

    broker = SpotBroker(board, ladder,
                        stats=stats if stats is not None else SpotRunStats(),
                        escalation=escalation)
    return BrokerAcquisition(broker, launcher=launcher,
                             replacement_tenant="spot")


class SpotProgress:
    """Walk one bin through interruption-bounded segments.

    Each segment measures the active instance's full-bin time (scaled by
    its type's compute ratio against the primary type the perfmodel
    assumed) and runs ``remaining × t_full`` of it; the next interruption
    is the earlier of the market's bid crossing and any replayed trace
    event in the zone.  Work completed before the two-minute warning is
    checkpointed (when the policy allows); the segment bills under the
    2010 spot rules; the ladder decides the next rung; the loop repeats
    until done, escalated, or out of patience.

    Escalated segments draw from the acquisition broker's ``escalation``
    stack when one is attached (the default
    :class:`~repro.capacity.OnDemandBroker` reproduces the direct
    full-rate launch exactly); a warm-lease escalation hands the segment
    an already-running pooled instance, and completion releases it back
    instead of terminating.
    """

    def __init__(self, board: SpotMarketBoard, ladder: SpotLadder, *,
                 acquisition: "BrokerAcquisition",
                 chaos: "FaultInjector | None" = None,
                 stats: SpotRunStats | None = None) -> None:
        self.board = board
        self.ladder = ladder
        self.acquisition = acquisition
        self.chaos = chaos
        self.stats = stats if stats is not None else SpotRunStats()

    # -- helpers -----------------------------------------------------------

    def _next_segment_instance(self, ctx: CoreContext, idx: int,
                               itype: InstanceType, at: float,
                               est_remaining: float
                               ) -> tuple["Instance", "CapacityOffer | None"]:
        """The next segment's machine, from the escalation broker stack.

        Chaos rejections propagate exactly as the direct
        ``launch_instance`` they replace did; callers decide whether a
        refusal fails the bin.
        """
        broker = getattr(self.acquisition, "broker", None)
        escalate = getattr(broker, "escalation_offer", None)
        if escalate is None:
            return ctx.cloud.launch_instance(itype, wait=False), None
        offer = escalate(ctx.cloud, at=at, predicted=est_remaining,
                         bin_index=idx, itype=itype)
        return offer.instance, offer

    def _measure(self, ctx: CoreContext, active: "Instance",
                 units: list) -> float:
        """Full-bin seconds on ``active``, compute-ratio scaled."""
        p = self.ladder.policy
        t = ctx.svc.run(active, units, ctx.workload, advance_clock=False)
        return t / (active.itype.compute_units / p.itype.compute_units)

    def _next_interruption(self, seg_start: float, zone: str,
                           itype: InstanceType) -> tuple[float, str] | None:
        """Earliest reclaim after ``seg_start``: market crossing or trace."""
        p = self.ladder.policy
        hits: list[tuple[float, str]] = []
        crossing = self.board.next_crossing(zone, after=seg_start, bid=p.bid,
                                            itype=itype)
        if crossing is not None:
            hits.append((crossing.at, "market"))
        if self.chaos is not None and self.chaos.has_spot_interruptions:
            at = self.chaos.next_spot_interruption(zone, seg_start)
            if at is not None:
                hits.append((at, "trace"))
        return min(hits) if hits else None

    def _bill_spot(self, ctx: CoreContext, active: "Instance", zone: str,
                   itype: InstanceType, start: float, end: float, *,
                   interrupted: bool) -> None:
        """Ledger the segment's charged spot hours at their market prices."""
        if not ctx.bill:
            return
        for s, e, price in self.board.bill_segment(zone, start, end,
                                                   itype=itype,
                                                   interrupted=interrupted):
            rec = ctx.cloud.ledger.record(active.instance_id, itype.name,
                                          s, e, price)
            self.stats.spot_cost += rec.cost

    def _bill_on_demand(self, ctx: CoreContext, active: "Instance",
                        itype: InstanceType, start: float,
                        end: float) -> None:
        """Ledger an escalated segment at the full ceil-hour rate."""
        if not ctx.bill:
            return
        rec = ctx.cloud.ledger.record(active.instance_id, itype.name,
                                      start, end, itype.hourly_rate)
        self.stats.on_demand_cost += rec.cost

    # -- the segment loop --------------------------------------------------

    def execute(self, ctx: CoreContext, grant: BinGrant) -> BinOutcome:
        """Run one bin to completion (or failure) across market segments."""
        from repro.chaos import ChaosError

        p = self.ladder.policy
        obs = ctx.obs
        stats = self.stats
        state = self.acquisition.bin_state(grant.index)
        idx, units = grant.index, grant.units
        volume = sum(u.size for u in units)
        work_start = grant.work_start
        deadline = ctx.plan.deadline

        active = grant.instance
        # The offer behind a leased grant: completion must release it to
        # the pool, never terminate or re-bill a manager-owned machine.
        active_offer: "CapacityOffer | None" = None
        if grant.lease is not None:
            bin_offer = getattr(self.acquisition, "bin_offer", None)
            active_offer = (bin_offer(grant.index)
                            if bin_offer is not None else None)
        zone, itype, on_demand = state.zone, state.itype, state.on_demand
        remaining = 1.0          # fraction of the bin still to do
        elapsed = 0.0            # bin-relative seconds (the report duration)
        interruptions = 0
        failed: FailedBin | None = None
        first_full: float | None = None

        while True:
            seg_start = work_start + elapsed
            t_full = self._measure(ctx, active, units)
            if first_full is None:
                first_full = t_full
            seg_need = remaining * t_full
            hit = (None if on_demand
                   else self._next_interruption(seg_start, zone, itype))
            if hit is None or seg_start + seg_need <= hit[0]:
                end = seg_start + seg_need
                leased = (active_offer is not None
                          and active_offer.lease is not None)
                if on_demand:
                    if not leased:  # a leased segment bills with its manager
                        self._bill_on_demand(ctx, active, itype, seg_start,
                                             end)
                else:
                    self._bill_spot(ctx, active, zone, itype, seg_start, end,
                                    interrupted=False)
                if obs.enabled:
                    obs.tracer.add_span(
                        "runner.spot.segment", seg_start, end, cat="runner",
                        track=active.instance_id, bin=idx,
                        market="on-demand" if on_demand else "spot",
                        zone=zone)
                    obs.metrics.counter("runner.tasks.completed",
                                        strategy=ctx.report.strategy).inc()
                    obs.metrics.histogram("runner.task.seconds"
                                          ).observe(seg_need)
                if leased:  # only a WarmLeaseBroker grants a lease
                    cast("WarmLeaseBroker", active_offer.broker).settle(
                        ctx.cloud, active_offer, end)
                else:
                    active.terminate(end)
                elapsed += seg_need
                break

            # -- an interruption lands inside this segment ------------------
            at, source = hit
            warning_at = max(seg_start, at - TWO_MINUTE_WARNING)
            interruptions += 1
            stats.interruptions += 1
            ran = at - seg_start
            if p.checkpoint:
                preserved = min(seg_need, max(0.0, warning_at - seg_start))
                remaining = max(0.0, remaining - preserved / t_full)
                stats.saved_seconds += preserved
                lost = min(seg_need, ran) - preserved
            else:
                # No checkpoints: every interruption restarts from scratch.
                preserved = 0.0
                remaining = 1.0
                lost = min(seg_need, ran)
            stats.lost_seconds += lost
            self._bill_spot(ctx, active, zone, itype, seg_start, at,
                            interrupted=True)
            if self.chaos is not None:
                self.chaos.record_spot_interruption(at, zone, detail=source)
            if obs.enabled:
                obs.tracer.add_span("runner.spot.segment", seg_start, at,
                                    cat="runner", track=active.instance_id,
                                    bin=idx, market="spot", zone=zone,
                                    interrupted=source)
                obs.tracer.instant("runner.spot.warning", cat="runner",
                                   track=active.instance_id, bin=idx,
                                   at=round(warning_at, 1))
                obs.tracer.instant("runner.spot.interruption", cat="runner",
                                   track=active.instance_id, bin=idx,
                                   zone=zone, source=source,
                                   at=round(at, 1))
                obs.metrics.counter("runner.spot.interruptions",
                                    source=source).inc()
                obs.metrics.histogram("runner.spot.saved_seconds"
                                      ).observe(preserved)
                obs.metrics.histogram("runner.spot.lost_seconds"
                                      ).observe(lost)
            active.terminate(at)
            elapsed = at - work_start

            if interruptions >= p.max_interruptions and not p.escalate:
                failed = FailedBin(
                    bin_index=idx, reason="spot-interruptions-exhausted",
                    n_units=len(units), volume=volume, elapsed=elapsed)
                break

            # -- the ladder decides the next rung ---------------------------
            # The perfmodel's prediction, corrected upward by what this
            # segment actually measured (a hidden-slow instance must not
            # talk the escalation check into optimism).
            est_remaining = remaining * max(grant.predicted, t_full)
            decision = self.ladder.decide(
                now=at, zone=zone, remaining_predicted=est_remaining,
                deadline_remaining=deadline - elapsed)
            if (interruptions >= p.max_interruptions
                    and decision.rung not in ("on-demand", "give-up")):
                decision = FallbackDecision("on-demand", itype=p.itype,
                                            resume_at=at)
            if decision.rung == "give-up":
                failed = FailedBin(
                    bin_index=idx, reason="spot-unaffordable",
                    n_units=len(units), volume=volume, elapsed=elapsed)
                break
            self._note_rung(obs, stats, decision)

            # -- acquire the next segment's instance ------------------------
            nxt_offer: "CapacityOffer | None" = None
            if decision.rung == "on-demand":
                on_demand = True
                itype = decision.itype or p.itype
                try:
                    nxt, nxt_offer = self._next_segment_instance(
                        ctx, idx, itype, at, est_remaining)
                except ChaosError as e:
                    failed = FailedBin(
                        bin_index=idx, reason=f"on-demand-refused: {e}",
                        n_units=len(units), volume=volume, elapsed=elapsed)
                    break
                zone = nxt.zone.name
            else:
                zone = decision.zone or zone
                itype = decision.itype or p.itype
                try:
                    nxt = ctx.cloud.launch_instance(
                        itype, ctx.cloud.region.zone(zone), wait=False)
                except ChaosError as e:
                    if not p.escalate:
                        failed = FailedBin(
                            bin_index=idx, reason=f"launch-rejected: {e}",
                            n_units=len(units), volume=volume,
                            elapsed=elapsed)
                        break
                    on_demand = True
                    itype = p.itype
                    stats.escalations += 1
                    if obs.enabled:
                        obs.metrics.counter("runner.spot.escalations",
                                            reason="launch-rejected").inc()
                    nxt, nxt_offer = self._next_segment_instance(
                        ctx, idx, itype, at, est_remaining)
                    zone = nxt.zone.name
            lease = nxt_offer.lease if nxt_offer is not None else None
            ready = lease.ready_at if lease is not None else nxt.ready_at
            seg_restart = resume_time(decision.resume_at, ready,
                                      p.restart_overhead)
            if lease is None:
                nxt.mark_running(seg_restart)
            stats.queued_seconds += decision.queued_seconds
            elapsed = seg_restart - work_start
            active = nxt
            active_offer = nxt_offer if lease is not None else None
            # loop: measure the new instance, run what remains

        if first_full is not None:
            # The counterfactual: this bin, uninterrupted on its first
            # instance, at the primary type's on-demand ceil-hour rate.
            stats.on_demand_equivalent += ceil_hour_cost(
                first_full, p.itype.hourly_rate)

        if failed is not None:
            if obs.enabled:
                obs.tracer.instant("runner.bin.failed", cat="runner",
                                   track=active.instance_id, bin=idx,
                                   reason=failed.reason)
                obs.metrics.counter("runner.bins.failed",
                                    reason=failed.reason.split(":")[0]).inc()
            return BinOutcome(failure=failed, active=active,
                              duration=elapsed, end=work_start + elapsed)
        run = InstanceRun(
            instance_id=active.instance_id,
            n_units=len(units),
            volume=volume,
            boot_delay=grant.boot_delay,
            duration=elapsed,
            predicted=grant.predicted,
        )
        return BinOutcome(run=run, active=active, duration=elapsed,
                          end=work_start + elapsed)

    def _note_rung(self, obs, stats: SpotRunStats,
                   decision: FallbackDecision) -> None:
        """Count the rung the ladder chose, in stats and metrics."""
        if decision.rung == "rebid-az":
            stats.rebids += 1
            if obs.enabled:
                obs.metrics.counter("runner.spot.rebids").inc()
        elif decision.rung == "retype":
            stats.retypes += 1
            if obs.enabled:
                obs.metrics.counter("runner.spot.retypes").inc()
        elif decision.rung in ("queue", "wait-same-zone"):
            stats.queued += 1
            if obs.enabled:
                obs.metrics.counter("runner.spot.queued",
                                    mode=decision.rung).inc()
        elif decision.rung == "on-demand":
            stats.escalations += 1
            if obs.enabled:
                obs.metrics.counter("runner.spot.escalations",
                                    reason="deadline-risk").inc()


class SpotCompletion(FleetCompletion):
    """Spot wind-down: billing already happened inline, per segment.

    Inherits the fleet policy's degradation replan (orphaned bins are
    queued for the :class:`~repro.resilience.degrade.DegradationPlanner`
    through the acquisition's ``launcher``) but skips its ceil-hour
    settle — every charged hour was written to the ledger as its segment
    closed.  ``finalize`` terminates any stragglers *before* advancing,
    so a chaos-stepping advance can never double-bill a spot instance at
    the on-demand rate.
    """

    def __init__(self, *, stats: SpotRunStats | None = None) -> None:
        super().__init__()
        self.stats = stats if stats is not None else SpotRunStats()

    def settle_bin(self, ctx: CoreContext, grant: BinGrant,
                   outcome: BinOutcome) -> None:
        """Record the outcome only — segments billed themselves."""
        CompletionPolicy.settle_bin(self, ctx, grant, outcome)

    def finalize(self, ctx: CoreContext) -> None:
        """Terminate leftovers, advance, emit spot fleet metrics."""
        from repro.cloud.instance import InstanceState

        for g in ctx.grants:
            if g.lease is not None:
                continue  # manager-owned: released back to its warm pool
            if g.instance.state in (InstanceState.PENDING,
                                    InstanceState.RUNNING):
                g.instance.terminate(max(ctx.cloud.now, g.work_start))
        if ctx.report.runs:
            ctx.cloud.advance(max(r.duration for r in ctx.report.runs))
        self._emit_fleet_metrics(ctx)
        obs = ctx.obs
        if obs.enabled and self.stats.discount is not None:
            obs.metrics.gauge("runner.spot.discount").set(
                round(self.stats.discount, 4))


def execute_plan_spot(
    cloud: Cloud,
    workload: Workload,
    plan: ProvisioningPlan,
    *,
    policy: SpotFallbackPolicy | None = None,
    board: SpotMarketBoard | None = None,
    launcher: "ResilientLauncher | None" = None,
    service: ExecutionService | None = None,
    bill: bool = True,
    label: str = "execute_plan_spot",
) -> SpotRunResult:
    """Run ``plan`` on spot capacity with the full fallback ladder.

    The default ``board`` is forked off the cloud's root stream under the
    ``spot.board`` namespace, so attaching the market leaves every other
    draw (instance quality, boot delays, measurement noise) untouched —
    re-running with the same seed reproduces the identical report, ledger
    and engine clock whether or not other consumers were added since.

    Returns a :class:`SpotRunResult`; ``result.stats.total_cost`` is the
    billing truth (the report's ceil-hour ``cost`` property does not
    apply to per-hour spot pricing — read the cloud ledger instead).
    """
    policy = policy if policy is not None else SpotFallbackPolicy()
    board = board if board is not None else SpotMarketBoard.for_cloud(cloud)
    ladder = SpotLadder(board, policy=policy, chaos=cloud.chaos)
    stats = SpotRunStats()
    acquisition = SpotAcquisition(board, ladder=ladder, stats=stats,
                                  launcher=launcher)
    core = ExecutionCore(
        cloud, workload, plan,
        acquisition=acquisition,
        progress=SpotProgress(board, ladder, acquisition=acquisition,
                              chaos=cloud.chaos, stats=stats),
        completion=SpotCompletion(stats=stats),
        service=service,
        bill=bill,
        label=label,
        record_kind="spot",
    )
    result = core.run()
    return SpotRunResult(report=result.report, stats=stats,
                         timeline=result.timeline)
