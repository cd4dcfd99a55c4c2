"""End-to-end campaign: the full §4→§5 pipeline on one object.

``acquire → probe → select unit size → fit → (refit with samples) →
reshape → provision → execute``.  This is the "execution plan that meets a
user specified deadline while minimizing cost" of the abstract, and what
``examples/quickstart.py`` drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cloud.bonnie import acquire_good_instance
from repro.cloud.cluster import Cloud
from repro.cloud.service import ExecutionService, Workload
from repro.core.deadline import adjusted_deadline, adjustment_factor
from repro.core.planner import ProvisioningPlan, StaticProvisioner
from repro.core.reshape import ReshapePlan, reshape
from repro.perfmodel.measurement import ProbeSetResult
from repro.perfmodel.probes import ProbeCampaign
from repro.perfmodel.regression import AffinePredictor, Predictor, fit_affine
from repro.perfmodel.sampling import collect_sample_points, refit_with_samples
from repro.perfmodel.selection import PreferredUnit, preferred_unit_size
from repro.runner.execute import ExecutionReport, execute_plan
from repro.vfs.files import Catalogue

__all__ = ["CampaignResult", "Campaign"]


@dataclass
class CampaignResult:
    """Everything a campaign learned and did."""

    acquisition_attempts: int
    probe_sets: list[ProbeSetResult]
    preferred: PreferredUnit
    model: AffinePredictor
    refit_model: AffinePredictor | None
    reshape_plan: ReshapePlan
    plan: ProvisioningPlan
    report: ExecutionReport

    @property
    def final_model(self) -> Predictor:
        return self.refit_model if self.refit_model is not None else self.model

    def summary(self) -> dict:
        """Headline campaign facts in one flat dict."""
        out = {
            "acquisition_attempts": self.acquisition_attempts,
            "preferred_unit": self.preferred.label,
            "model": f"f(x) = {self.final_model.a:.4g} + {self.final_model.b:.4g}·x",
            "units": self.reshape_plan.n_units,
        }
        out.update(self.report.summary())
        return out


class Campaign:
    """Drives the whole pipeline against one catalogue and workload."""

    def __init__(
        self,
        cloud: Cloud,
        workload: Workload,
        catalogue: Catalogue,
        *,
        use_ebs: bool = False,
        probe_repeats: int = 5,
    ) -> None:
        self.cloud = cloud
        self.workload = workload
        self.catalogue = catalogue
        self.use_ebs = use_ebs
        self.probe_repeats = probe_repeats

    def run(
        self,
        deadline: float,
        *,
        initial_volume: int,
        unit_sizes_for: Callable[[int], Sequence[int]],
        strategy: str = "uniform",
        refit_samples: int = 0,
        sample_volume: int = 0,
        use_adjusted_deadline: bool = False,
        miss_probability: float = 0.10,
        max_probe_rounds: int = 5,
    ) -> CampaignResult:
        """Execute the full pipeline and return every intermediate artefact."""
        cloud = self.cloud
        obs = cloud.obs
        t_campaign_start = cloud.now
        # §4: vet an instance before trusting any measurement.
        probe_instance, attempts = acquire_good_instance(cloud)
        svc = ExecutionService(cloud)
        storage = None
        if self.use_ebs:
            storage = cloud.create_volume(size_gb=1000, zone=probe_instance.zone)
            storage.attach(probe_instance)
        probes = ProbeCampaign(svc, probe_instance, self.workload,
                               storage=storage, repeats=self.probe_repeats)
        protocol = probes.run_protocol(
            self.catalogue,
            initial_volume=initial_volume,
            unit_sizes_for=unit_sizes_for,
            max_rounds=max_probe_rounds,
        )
        preferred = preferred_unit_size(protocol.probe_sets)

        # A regression needs observations at several volumes; if the §4
        # protocol stabilised early, keep measuring the preferred variant
        # at escalating volumes ("we continue to profile the application
        # performance for larger volumes").
        from repro.perfmodel.probes import build_probe_set

        xs, ys = probes.timing_points(preferred.label)
        vol = max((int(x) for x in xs), default=initial_volume)
        while len(set(xs)) < 3 and vol < self.catalogue.total_size:
            vol = min(vol * 4, self.catalogue.total_size)
            sizes = [preferred.label] if isinstance(preferred.label, int) else []
            ps = build_probe_set(self.catalogue, vol, sizes)
            units = ps.variants[preferred.label]
            actual = sum(u.size for u in units)
            probes.measure_labeled(actual, preferred.label, units,
                                   directory=f"probes/extend/v{vol}")
            xs, ys = probes.timing_points(preferred.label)
        model = fit_affine(xs, ys)
        if obs.enabled:
            obs.metrics.counter("perfmodel.model.fits").inc()

        refit = None
        if refit_samples > 0:
            pts = collect_sample_points(
                probes, self.catalogue, cloud.rng.fork("campaign.samples"),
                n_samples=refit_samples,
                sample_volume=sample_volume or initial_volume,
                unit_size=preferred.label if isinstance(preferred.label, int) else None,
            )
            refit = refit_with_samples(list(zip(xs, ys)), pts)
            if obs.enabled:
                obs.metrics.counter("perfmodel.model.refits").inc()

        if storage is not None:
            storage.detach()
        cloud.terminate_instance(probe_instance)

        final_model = refit if refit is not None else model
        unit_size = preferred.label if isinstance(preferred.label, int) else None
        reshape_plan = reshape(self.catalogue, unit_size)

        provisioner = StaticProvisioner(final_model)
        planning_deadline = None
        if use_adjusted_deadline:
            a = adjustment_factor(final_model, miss_probability)
            planning_deadline = adjusted_deadline(deadline, a)
        plan = provisioner.plan(
            list(reshape_plan.units), deadline,
            strategy=strategy, planning_deadline=planning_deadline,
        )
        report = execute_plan(cloud, self.workload, plan, service=svc)
        if obs.enabled:
            obs.tracer.add_span("core.campaign.run", t_campaign_start,
                                cloud.now, cat="core", track="campaign",
                                strategy=strategy,
                                preferred_unit=str(preferred.label),
                                instances=plan.n_instances)
        return CampaignResult(
            acquisition_attempts=attempts,
            probe_sets=protocol.probe_sets,
            preferred=preferred,
            model=model,
            refit_model=refit,
            reshape_plan=reshape_plan,
            plan=plan,
            report=report,
        )
