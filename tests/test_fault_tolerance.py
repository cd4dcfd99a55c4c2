"""Tests for failure injection and fault-tolerant execution."""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, FailureModel, Workload
from repro.cloud.instance import InstanceError, InstanceState
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import FaultPolicy, execute_fault_tolerant
from repro.sim.random import RngStream


def model():
    x = np.array([1e5, 1e6, 5e6])
    return fit_affine(x, 0.327 + 0.865e-4 * x)


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


def make_plan(deadline=200.0, scale=2e-3):
    cat = text_400k_like(scale=scale)
    units = reshape(cat, None).units
    return StaticProvisioner(model()).plan(units, deadline, strategy="uniform")


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf_hours=0)

    def test_draw_distribution(self):
        fm = FailureModel(mtbf_hours=2.0)
        rng = RngStream(4)
        draws = [fm.draw_time_to_failure(rng.fork(str(i))) for i in range(2000)]
        assert np.mean(draws) == pytest.approx(2.0 * 3600, rel=0.1)
        assert all(d > 0 for d in draws)

    def test_cloud_without_model_never_fails(self):
        inst = Cloud(seed=1).launch_instance()
        assert inst.time_to_failure is None and inst.crash_at is None

    def test_cloud_with_model_sets_crash_time(self):
        cloud = Cloud(seed=1, failure_model=FailureModel(mtbf_hours=1.0))
        inst = cloud.launch_instance()
        assert inst.time_to_failure is not None
        assert inst.crash_at == pytest.approx(inst.running_since + inst.time_to_failure)


class TestInstanceFailState:
    def test_fail_from_running(self):
        cloud = Cloud(seed=2)
        inst = cloud.launch_instance()
        vol = cloud.create_volume(10, zone=inst.zone)
        vol.attach(inst)
        inst.fail(cloud.now)
        assert inst.state is InstanceState.FAILED
        assert vol.attached_to is None  # EBS survives, detached

    def test_fail_requires_running(self):
        cloud = Cloud(seed=2)
        inst = cloud.launch_instance(wait=False)
        with pytest.raises(InstanceError):
            inst.fail(cloud.now)

    def test_terminate_after_fail_rejected(self):
        cloud = Cloud(seed=2)
        inst = cloud.launch_instance()
        inst.fail(cloud.now)
        with pytest.raises(InstanceError):
            inst.terminate(cloud.now)

    def test_fail_instance_bills_usage(self):
        cloud = Cloud(seed=2)
        inst = cloud.launch_instance()
        cloud.advance(120.0)
        cloud.fail_instance(inst)
        assert cloud.ledger.total_instance_hours == 1


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(batch_units=0)
        with pytest.raises(ValueError):
            FaultPolicy(detection_timeout=-1)
        with pytest.raises(ValueError):
            FaultPolicy(max_crashes_per_bin=0)


class TestExecuteFaultTolerant:
    def test_no_failures_matches_plain_execution_work(self):
        plan = make_plan()
        report, events = execute_fault_tolerant(
            Cloud(seed=5), pos_workload(), plan)
        assert events == []
        assert sum(r.volume for r in report.runs) == plan.total_volume

    def test_crashes_detected_and_recovered(self):
        plan = make_plan()
        cloud = Cloud(seed=5, failure_model=FailureModel(mtbf_hours=0.05))
        report, events = execute_fault_tolerant(
            cloud, pos_workload(), plan,
            policy=FaultPolicy(batch_units=25))
        assert len(events) >= 1
        # all work still completed exactly once per bin
        assert sum(r.volume for r in report.runs) == plan.total_volume
        assert report.n_instances == plan.n_instances

    def test_crash_penalties_lengthen_durations(self):
        plan = make_plan()
        clean, _ = execute_fault_tolerant(Cloud(seed=5), pos_workload(), plan)
        faulty_cloud = Cloud(seed=5, failure_model=FailureModel(mtbf_hours=0.05))
        faulty, events = execute_fault_tolerant(
            faulty_cloud, pos_workload(), plan, policy=FaultPolicy(batch_units=25))
        crashed_bins = {e.bin_index for e in events}
        assert crashed_bins
        for run_c, run_f, (idx, _) in zip(
            clean.runs, faulty.runs,
            [(i, u) for i, u in enumerate(plan.assignments) if u],
        ):
            if idx in crashed_bins:
                assert run_f.duration > run_c.duration + 200.0  # timeout+penalty

    def test_crashed_instances_billed(self):
        plan = make_plan()
        cloud = Cloud(seed=5, failure_model=FailureModel(mtbf_hours=0.05))
        report, events = execute_fault_tolerant(
            cloud, pos_workload(), plan, policy=FaultPolicy(batch_units=25))
        if events:
            assert len(cloud.ledger.records) > report.n_instances

    def test_unusable_cloud_reports_failed_bins(self):
        # Regression: crash exhaustion used to raise and fold the whole
        # campaign; the default now reports the bin as failed with its
        # billed hours and the run carries on.
        plan = make_plan()
        cloud = Cloud(seed=5, failure_model=FailureModel(mtbf_hours=1e-4))
        report, events = execute_fault_tolerant(
            cloud, pos_workload(), plan,
            policy=FaultPolicy(batch_units=50, max_crashes_per_bin=2))
        assert report.failures, "an unusable cloud must surface failed bins"
        assert report.n_failed == len(report.failures)
        assert not report.met_deadline
        for f in report.failures:
            assert f.reason == "crash-exhausted"
            assert f.billed_hours >= 1          # crashed hours still paid
            assert f.completed_units < f.n_units
        # failed + completed bins account for the entire plan
        done = {r for r in range(len(plan.assignments)) if plan.assignments[r]}
        reported = {f.bin_index for f in report.failures}
        assert len(report.runs) + len(reported) == len(done)

    def test_unusable_cloud_raise_mode_preserved(self):
        plan = make_plan()
        cloud = Cloud(seed=5, failure_model=FailureModel(mtbf_hours=1e-4))
        with pytest.raises(RuntimeError, match="unusable"):
            execute_fault_tolerant(cloud, pos_workload(), plan,
                                   policy=FaultPolicy(batch_units=50,
                                                      max_crashes_per_bin=2,
                                                      on_exhaustion="raise"))

    def test_on_exhaustion_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(on_exhaustion="ignore")

    def test_deterministic(self):
        plan = make_plan()

        def run(seed):
            cloud = Cloud(seed=seed, failure_model=FailureModel(mtbf_hours=0.05))
            rep, ev = execute_fault_tolerant(cloud, pos_workload(), plan)
            return ([r.duration for r in rep.runs], len(ev))

        assert run(9) == run(9)
