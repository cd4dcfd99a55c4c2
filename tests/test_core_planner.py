"""Tests for the static provisioner, cost function and deadline adjustment."""

import math

import numpy as np
import pytest

from repro.core import (
    PlanError,
    ResidualAnalysis,
    StaticProvisioner,
    adjusted_deadline,
    adjustment_factor,
    ebs_assignment,
    general_strategy,
    plan_cost,
    reshape,
)
from repro.corpus import text_400k_like
from repro.perfmodel.regression import AffinePredictor, fit_affine, fit_power
from repro.units import GB, HOUR


def eq3_model() -> AffinePredictor:
    """The paper's Eq. (3): f(x) = 0.327 + 0.865e-4·x."""
    x = np.array([1e5, 1e6, 5e6, 1e7])
    y = 0.327 + 0.865e-4 * x
    return fit_affine(x, y)


def eq4_model() -> AffinePredictor:
    """The paper's Eq. (4): f(x) = 3.086 + 0.7255e-4·x."""
    x = np.array([1e5, 1e6, 5e6, 1e7])
    y = 3.086 + 0.725482e-4 * x
    return fit_affine(x, y)


class TestPlanCost:
    def test_deadline_over_one_hour(self):
        # D >= 1: cost = r * ceil(P)
        assert plan_cost(26.1, 1.0, 0.085) == pytest.approx(0.085 * 27)

    def test_deadline_under_one_hour(self):
        # D < 1: cost = r * ceil(P / D)
        assert plan_cost(2.0, 0.5, 0.085) == pytest.approx(0.085 * 4)

    def test_zero_work(self):
        assert plan_cost(0.0, 1.0, 0.085) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(PlanError):
            plan_cost(1.0, 0.0, 0.085)
        with pytest.raises(PlanError):
            plan_cost(-1.0, 1.0, 0.085)


class TestEbsAssignment:
    def test_paper_scenario(self):
        """§5.1: 100 GB split over 100 EBS devices of 1 GB each."""
        # Eq. (1)-like model admits ~272 GB/h; V0 = 1 GB
        out = ebs_assignment(100 * GB, 1 * GB, 272 * GB)
        assert out["devices"] == 100
        assert out["devices_per_instance"] == 272
        assert out["instances"] == 1

    def test_tight_deadline_more_instances(self):
        out = ebs_assignment(100 * GB, 1 * GB, 10 * GB)
        assert out["devices_per_instance"] == 10
        assert out["instances"] == 10

    def test_deadline_below_granularity_rejected(self):
        """§5.1: V0 > VD → cannot meet without reorganizing."""
        with pytest.raises(PlanError):
            ebs_assignment(100 * GB, 1 * GB, 0.5 * GB)

    def test_bad_volumes(self):
        with pytest.raises(PlanError):
            ebs_assignment(0, 1, 1.0)


class TestStaticProvisioner:
    def test_eq3_instance_count_matches_paper(self):
        """§5.2: V≈1.086 GB, D=1 h, Eq.(3) → 27 instances."""
        prov = StaticProvisioner(eq3_model())
        x0 = prov.volume_for(HOUR)
        assert x0 == pytest.approx((3600 - 0.327) / 0.865e-4, rel=1e-6)
        V = int(26.1 * math.floor(x0))
        assert prov.instances_for(V, HOUR) == 27

    def test_eq4_fewer_instances(self):
        """§5.2: the lower Eq.(4) slope prescribes 22 instances for the
        same volume (and 11 for D=2 h vs 14)."""
        prov3, prov4 = StaticProvisioner(eq3_model()), StaticProvisioner(eq4_model())
        V = int(26.1 * math.floor(prov3.volume_for(HOUR)))
        assert prov4.instances_for(V, HOUR) < prov3.instances_for(V, HOUR)
        assert prov4.instances_for(V, 2 * HOUR) < prov3.instances_for(V, 2 * HOUR)

    def test_plan_uniform_balances_volumes(self):
        cat = text_400k_like(scale=1e-3)
        units = reshape(cat, None).units
        prov = StaticProvisioner(eq3_model())
        plan = prov.plan(units, deadline=600.0, strategy="uniform")
        vols = [sum(u.size for u in b) for b in plan.assignments]
        assert max(vols) - min(vols) < max(u.size for u in units) * 2
        assert plan.total_volume == cat.total_size

    def test_plan_first_fit_can_be_uneven(self):
        cat = text_400k_like(scale=1e-3)
        units = reshape(cat, None).units
        prov = StaticProvisioner(eq3_model())
        ff = prov.plan(units, deadline=600.0, strategy="first-fit")
        uni = prov.plan(units, deadline=600.0, strategy="uniform")
        assert ff.n_instances == uni.n_instances
        # uniform reduces the worst-bin predicted time (Fig. 8(b) effect)
        assert uni.max_predicted_time() <= ff.max_predicted_time() + 1e-9

    def test_predicted_cost_ceil_hours(self):
        prov = StaticProvisioner(eq3_model())
        cat = text_400k_like(scale=5e-4)
        plan = prov.plan(cat, deadline=HOUR, strategy="uniform")
        assert plan.predicted_cost(0.085) == pytest.approx(0.085 * plan.n_instances)

    def test_planning_deadline_changes_count(self):
        cat = text_400k_like(scale=1e-3)
        units = cat
        prov = StaticProvisioner(eq3_model())
        loose = prov.plan(units, deadline=30.0)
        tight = prov.plan(units, deadline=30.0, planning_deadline=18.0)
        assert tight.n_instances > loose.n_instances
        assert tight.strategy == "adjusted"
        assert tight.deadline == 30.0

    def test_infeasible_deadline_rejected(self):
        prov = StaticProvisioner(eq3_model())
        with pytest.raises(PlanError):
            prov.plan(text_400k_like(scale=1e-4), deadline=0.1)

    def test_empty_units_rejected(self):
        with pytest.raises(PlanError):
            StaticProvisioner(eq3_model()).plan([], deadline=100.0)

    def test_bad_strategy(self):
        with pytest.raises(PlanError):
            StaticProvisioner(eq3_model()).plan(
                text_400k_like(scale=1e-4), deadline=600.0, strategy="magic")

    def test_bad_rate(self):
        with pytest.raises(PlanError):
            StaticProvisioner(eq3_model(), rate=0.0)

    def test_marginal_rule_fig2(self):
        x = np.array([1e3, 1e4, 1e5, 1e6])
        convex = StaticProvisioner(fit_power(x, 1e-6 * x**1.4))
        concave = StaticProvisioner(fit_power(x, 1e-1 * x**0.6))
        linear = StaticProvisioner(eq3_model())
        assert convex.marginal_rule() == "start-new-instances"
        assert concave.marginal_rule() == "pack-to-deadline"
        assert linear.marginal_rule() == "indifferent"


class TestDeadlineAdjustment:
    def noisy_model(self, rel_spread=0.4, seed=0):
        rng = np.random.default_rng(seed)
        x = np.linspace(1e5, 1e7, 30)
        y = (0.3 + 0.9e-4 * x) * (1.0 + rng.normal(0, rel_spread / 2, x.size))
        return fit_affine(x, y)

    def test_paper_z_value_preserved(self):
        """a = 1.29·σ + μ for the 10% miss target."""
        ra = ResidualAnalysis(mu=0.1, sigma=1.105, n=20)
        assert ra.factor(0.10) == pytest.approx(1.29 * 1.105 + 0.1)

    def test_other_quantiles_use_scipy(self):
        ra = ResidualAnalysis(mu=0.0, sigma=1.0, n=20)
        assert ra.factor(0.05) == pytest.approx(1.6449, rel=1e-3)

    def test_adjusted_deadline_paper_numbers(self):
        """§5.2 quotes D=3600 → D₁=3124 and D=7200 → D₁=6247.

        Note: the paper also quotes a = 1.525, which is inconsistent with
        its own D₁ values under D₁ = D/(1+a) (3600/2.525 ≈ 1426); the D₁
        pair implies a ≈ 0.1524.  We reproduce the self-consistent D₁
        arithmetic (see EXPERIMENTS.md, experiment F8d).
        """
        a = 3600.0 / 3124.0 - 1.0
        assert adjusted_deadline(3600.0, a) == pytest.approx(3124, abs=1)
        assert adjusted_deadline(7200.0, a) == pytest.approx(6247, abs=2)

    def test_adjustment_factor_grows_with_noise(self):
        calm = self.noisy_model(rel_spread=0.05, seed=1)
        wild = self.noisy_model(rel_spread=0.5, seed=1)
        assert adjustment_factor(wild) > adjustment_factor(calm)

    def test_adjusted_deadline_validation(self):
        with pytest.raises(ValueError):
            adjusted_deadline(0.0, 0.5)
        with pytest.raises(ValueError):
            adjusted_deadline(100.0, -1.0)

    def test_miss_probability_validation(self):
        ra = ResidualAnalysis(mu=0.0, sigma=1.0, n=5)
        with pytest.raises(ValueError):
            ra.factor(0.0)
        with pytest.raises(ValueError):
            ra.factor(1.0)

    def test_general_strategy_keeps_uniform_when_loose(self):
        model = self.noisy_model(rel_spread=0.02, seed=2)
        out = general_strategy(model, volume=10**7, deadline=2 * HOUR)
        assert out["adjusted"] is False
        assert out["instances"] >= 1

    def test_general_strategy_adjusts_when_risky(self):
        model = self.noisy_model(rel_spread=0.6, seed=3)
        out_adj = general_strategy(model, volume=10**8, deadline=HOUR)
        plain = StaticProvisioner(model).instances_for(10**8, HOUR)
        if out_adj["adjusted"]:
            assert out_adj["instances"] >= plain
            assert out_adj["planning_deadline"] < HOUR

    def test_general_strategy_validation(self):
        with pytest.raises(ValueError):
            general_strategy(self.noisy_model(), volume=0, deadline=HOUR)
