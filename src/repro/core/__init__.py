"""The paper's primary contribution: reshape + model + provision (§4–§5).

* :mod:`repro.core.reshape` — turn a catalogue of small files into unit
  files of the preferred size (subset-sum first-fit merge);
* :mod:`repro.core.deadline` — the §5.2 residual analysis: relative
  residuals assumed normal, ``a = z·σ + μ`` for a chosen miss probability,
  adjusted deadline ``D/(1+a)``, and the closing "general strategy";
* :mod:`repro.core.planner` — static provisioning: instance counts from
  the model inverse, per-instance bins (first-fit original order or
  uniform), EBS volume assignment, and the §5 cost function;
* :mod:`repro.core.campaign` — the end-to-end pipeline from raw catalogue
  to an executed, billed run on the simulated cloud.
"""

from repro.core.deadline import (
    ResidualAnalysis,
    adjusted_deadline,
    adjustment_factor,
    expected_misses,
    general_strategy,
    miss_probability_of,
)
from repro.core.planner import (
    PlanError,
    ProvisioningPlan,
    StaticProvisioner,
    ebs_assignment,
    plan_cost,
)
from repro.core.campaign import Campaign, CampaignResult
from repro.core.procurement import (
    ProcurementDecision,
    choose_procurement,
    spot_completion_probability,
)
from repro.core.reshape import ReshapePlan, reshape
from repro.core.workflow import (
    TextWorkflow,
    WorkflowError,
    WorkflowStage,
    assign_subdeadlines,
    derived_catalogue,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "ProcurementDecision",
    "choose_procurement",
    "spot_completion_probability",
    "TextWorkflow",
    "WorkflowError",
    "WorkflowStage",
    "assign_subdeadlines",
    "derived_catalogue",
    "ResidualAnalysis",
    "adjustment_factor",
    "adjusted_deadline",
    "expected_misses",
    "general_strategy",
    "miss_probability_of",
    "PlanError",
    "ProvisioningPlan",
    "StaticProvisioner",
    "ebs_assignment",
    "plan_cost",
    "ReshapePlan",
    "reshape",
]
