"""Tests for the hour-boundary straggler-replacement variant (§7)."""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import DynamicPolicy, execute_with_monitoring


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def make_plan(scale=5e-2, deadline=500.0):
    x = np.array([1e5, 1e6, 5e6])
    model = fit_affine(x, 0.327 + 0.865e-4 * x)
    cat = text_400k_like(scale=scale)
    return StaticProvisioner(model).plan(
        reshape(cat, None).units, deadline, strategy="uniform")


class Scripted:
    """First 2n quality draws slow, later draws (replacements) fast."""

    def __init__(self, n_slow, slow=0.35):
        self.remaining = n_slow
        self.slow = slow

    def draw_factor(self, rng):
        if self.remaining > 0:
            self.remaining -= 1
            return self.slow
        return 1.0


class TestHourBoundaryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DynamicPolicy(replace_at="later")

    def run_both(self, plan, seed=3):
        n = plan.n_instances
        wl = pos_workload()
        imm, ev_i = execute_with_monitoring(
            Cloud(seed=seed, heterogeneity=Scripted(2 * n)), wl, plan,
            policy=DynamicPolicy(slow_threshold=0.7, replace_at="immediately"))
        hb, ev_h = execute_with_monitoring(
            Cloud(seed=seed, heterogeneity=Scripted(2 * n)), wl, plan,
            policy=DynamicPolicy(slow_threshold=0.7, replace_at="hour-boundary"))
        return imm, ev_i, hb, ev_h

    def test_both_policies_replace_stragglers(self):
        plan = make_plan()
        imm, ev_i, hb, ev_h = self.run_both(plan)
        assert len(ev_i) >= 1 and len(ev_h) >= 1

    def test_hour_boundary_progresses_further_before_handover(self):
        """The extra paid-hour window does real work, so the handover
        happens at strictly more progress."""
        plan = make_plan()
        _, ev_i, _, ev_h = self.run_both(plan)
        prog_i = {e.bin_index: e.at_progress for e in ev_i}
        prog_h = {e.bin_index: e.at_progress for e in ev_h}
        common = set(prog_i) & set(prog_h)
        assert common
        assert all(prog_h[b] > prog_i[b] for b in common)

    def test_volume_conserved_under_both(self):
        plan = make_plan()
        imm, _, hb, _ = self.run_both(plan)
        assert sum(r.volume for r in imm.runs) == plan.total_volume
        assert sum(r.volume for r in hb.runs) == plan.total_volume

    def test_replacement_billed_only_for_its_own_span(self):
        """Billing fix: the replacement's ledger record must not cover the
        straggler's window."""
        plan = make_plan()
        n = plan.n_instances
        cloud = Cloud(seed=3, heterogeneity=Scripted(2 * n))
        report, events = execute_with_monitoring(
            cloud, pos_workload(), plan,
            policy=DynamicPolicy(slow_threshold=0.7))
        assert events
        replaced = {e.new_instance for e in events}
        by_instance = {}
        for rec in cloud.ledger.records:
            by_instance.setdefault(rec.instance_id, []).append(rec)
        for run in report.runs:
            if run.instance_id in replaced:
                rec = by_instance[run.instance_id][0]
                # the replacement record is strictly shorter than the
                # bin's total wall time
                assert rec.duration < run.duration

    def test_total_ledger_covers_every_working_span_once(self):
        plan = make_plan()
        n = plan.n_instances
        cloud = Cloud(seed=3, heterogeneity=Scripted(2 * n))
        report, events = execute_with_monitoring(
            cloud, pos_workload(), plan, policy=DynamicPolicy(slow_threshold=0.7))
        # per replaced bin: straggler span + penalty + replacement span ==
        # the run's duration
        penalties = DynamicPolicy().replacement_penalty
        for e in events:
            spans = [r.duration for r in cloud.ledger.records
                     if r.instance_id in (e.old_instance, e.new_instance)]
            run = next(r for r in report.runs if r.instance_id == e.new_instance)
            assert sum(spans) + penalties == pytest.approx(run.duration, rel=1e-9)
