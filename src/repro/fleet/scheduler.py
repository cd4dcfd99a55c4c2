"""Multi-tenant fleet scheduling: fair-share queues over shared leases.

The :class:`FleetScheduler` accepts campaign submissions through the
:class:`~repro.fleet.tenants.AdmissionController`, expands admitted plans
into per-bin tasks, and schedules them greedily in weighted-fair-share
order: the tenant with the least service per unit weight goes next, its
bin is placed on the best-fitting warm lease (or a cold boot while the
fleet may grow), and per-tenant concurrency quotas delay starts rather
than drop work.  Everything runs on *simulated* time against the shared
:class:`~repro.cloud.cluster.Cloud`; billing truth lives in the ledger
via the :class:`~repro.fleet.lease.LeaseManager`'s retroactive retires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.planner import ProvisioningPlan
from repro.fleet.lease import LeaseManager
from repro.fleet.report import BinRun, CampaignOutcome, FleetReport
from repro.fleet.tenants import AdmissionController, AdmissionDecision
from repro.vfs.files import Catalogue

__all__ = ["FleetRequest", "FleetScheduler"]

#: Queue-wait buckets: seconds a bin waited between submission and work
#: start (boot delays land in the first few buckets; contention beyond).
WAIT_BUCKETS: tuple[float, ...] = (30.0, 60.0, 120.0, 300.0, 600.0,
                                   1800.0, 3600.0)


@dataclass
class FleetRequest:
    """One campaign asking for fleet capacity."""

    tenant: str
    workload: Workload
    plan: ProvisioningPlan
    name: str
    priority: int = 0          # higher = earlier within the tenant's queue
    submitted_at: float | None = None


@dataclass
class _Task:
    request: FleetRequest
    bin_index: int
    units: Catalogue
    est_seconds: float


@dataclass
class _TenantState:
    weight: float
    quota: int
    served: float = 0.0                      # busy seconds granted so far
    tasks: list[_Task] = field(default_factory=list)
    busy: list[tuple[float, float]] = field(default_factory=list)


class FleetScheduler:
    """Admission, queueing, and placement for concurrent campaigns."""

    def __init__(self, cloud: Cloud, leases: LeaseManager,
                 admission: AdmissionController, *,
                 service: ExecutionService | None = None) -> None:
        self.cloud = cloud
        self.leases = leases
        self.admission = admission
        self.registry = admission.registry
        self.svc = service or ExecutionService(cloud)
        self.obs = cloud.obs
        self.decisions: list[tuple[FleetRequest, AdmissionDecision]] = []
        self._queued: list[FleetRequest] = []

    # -- submission --------------------------------------------------------

    def submit(self, request: FleetRequest) -> AdmissionDecision:
        """Review one campaign; enqueue it unless rejected."""
        if request.submitted_at is None:
            request.submitted_at = self.cloud.now
        active = sum(1 for r in self._queued if r.tenant == request.tenant)
        decision = self.admission.review(
            request, queue_depth=len(self._queued),
            tenant_active_campaigns=active)
        self.decisions.append((request, decision))
        if decision.enqueued:
            self._queued.append(request)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("fleet.admission.decisions",
                                kind=decision.kind).inc()
            obs.metrics.gauge("fleet.queue.depth").set(len(self._queued))
            obs.tracer.instant("fleet.admission", cat="fleet", track="fleet",
                               tenant=request.tenant, campaign=request.name,
                               kind=decision.kind, reason=decision.reason)
        return decision

    # -- scheduling --------------------------------------------------------

    def run(self) -> FleetReport:
        """Drain the queue; returns the fleet-wide report.

        Greedy weighted fair share: repeatedly pick the tenant with the
        least served-seconds per weight among those with pending bins,
        place its next bin, and charge the service to its share.  Bin
        placement annotates the originating plan with the lease source
        (``warm``/``cold``/``extension``), so plans record how much paid
        capacity they recycled.
        """
        tenants = self._expand_queue()
        outcomes = {id(r): CampaignOutcome(request=r, decision=d, runs=[])
                    for r, d in self.decisions if d.enqueued}
        obs = self.obs
        horizon = self.cloud.now

        while any(st.tasks for st in tenants.values()):
            name = min(
                (n for n, st in tenants.items() if st.tasks),
                key=lambda n: (tenants[n].served / tenants[n].weight, n),
            )
            st = tenants[name]
            task = st.tasks.pop(0)
            run = self._place(name, st, task)
            outcomes[id(task.request)].runs.append(run)
            st.served += run.duration
            st.busy.append((run.start, run.end))
            horizon = max(horizon, run.end)
            if obs.enabled:
                obs.tracer.add_span("fleet.bin.run", run.start, run.end,
                                    cat="fleet", track=run.instance_id,
                                    tenant=name, campaign=task.request.name,
                                    bin=task.bin_index, source=run.source)
                obs.metrics.histogram("fleet.queue.wait_seconds",
                                      buckets=WAIT_BUCKETS
                                      ).observe(run.wait_seconds)

        for outcome in outcomes.values():
            outcome.finished_at = max((r.end for r in outcome.runs),
                                      default=outcome.request.submitted_at or 0.0)
        if horizon > self.cloud.now:
            self.cloud.advance(horizon - self.cloud.now)
        self.leases.shutdown()
        self._queued.clear()

        if obs.enabled:
            shares = [st.served / st.weight for st in tenants.values()
                      if st.served > 0]
            if shares:
                jain = (sum(shares) ** 2) / (len(shares) * sum(s * s for s in shares))
                obs.metrics.gauge("fleet.fairness.jain").set(round(jain, 4))
            for n, st in tenants.items():
                obs.metrics.gauge("fleet.fairness.served_seconds",
                                  tenant=n).set(round(st.served, 1))

        return FleetReport(
            outcomes=list(outcomes.values()),
            rejected=[(r, d) for r, d in self.decisions if d.rejected],
            records=list(self.leases.records),
            slices=list(self.leases.slices),
            lease_stats=self.leases.stats(),
        )

    # -- internals ---------------------------------------------------------

    def _expand_queue(self) -> dict[str, _TenantState]:
        """Per-tenant task lists, campaigns ordered by priority then FIFO."""
        tenants: dict[str, _TenantState] = {}
        order = sorted(range(len(self._queued)),
                       key=lambda i: (-self._queued[i].priority, i))
        for i in order:
            request = self._queued[i]
            tenant = self.registry.get(request.tenant)
            st = tenants.setdefault(request.tenant, _TenantState(
                weight=tenant.weight, quota=tenant.max_concurrent_instances))
            times = request.plan.predicted_times
            for b, units in enumerate(request.plan.assignments):
                if not units:
                    continue
                est = times[b] if b < len(times) else 0.0
                st.tasks.append(_Task(request, b, units, est))
        return tenants

    def _place(self, tenant: str, st: _TenantState, task: _Task) -> BinRun:
        """Assign one bin to a lease and measure it."""
        s = task.request.submitted_at or 0.0
        s = self._quota_start(st, s)
        lease = self.leases.acquire(tenant, est_seconds=task.est_seconds,
                                    at=s, campaign=task.request.name)
        duration = self.svc.run(lease.instance, task.units,
                                task.request.workload, advance_clock=False)
        end = lease.ready_at + duration
        self.leases.release(lease, end)
        task.request.plan.annotate_lease(task.bin_index, lease.source,
                                         lease.lease_id)
        return BinRun(
            campaign=task.request.name,
            tenant=tenant,
            bin_index=task.bin_index,
            lease_id=lease.lease_id,
            instance_id=lease.instance.instance_id,
            source=lease.source,
            start=lease.ready_at,
            end=end,
            wait_seconds=lease.ready_at - (task.request.submitted_at or 0.0),
        )

    @staticmethod
    def _quota_start(st: _TenantState, s: float) -> float:
        """Earliest time ≥ ``s`` with a free slot under the tenant's quota."""
        while True:
            covering = [e for (b, e) in st.busy if b <= s < e]
            if len(covering) < st.quota:
                return s
            s = min(covering)
