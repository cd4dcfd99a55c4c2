"""Tests for cloud types, instances, billing, EBS and S3."""

import pytest

from repro.cloud import (
    Cloud,
    EbsVolume,
    Instance,
    InstanceState,
    PlacementModel,
    S3Store,
    SMALL,
    US_EAST,
)
from repro.cloud.billing import BillingLedger, billable_hours
from repro.cloud.ebs import EbsError
from repro.cloud.instance import HeterogeneityModel, InstanceError
from repro.cloud.s3 import MAX_OBJECT_SIZE, S3Error
from repro.cloud.types import InstanceType
from repro.sim.random import RngStream
from repro.units import GB, HOUR


class TestTypes:
    def test_small_instance_matches_paper(self):
        assert SMALL.memory_gb == 1.7
        assert SMALL.compute_units == 1.0
        assert SMALL.local_storage_gb == 160
        assert SMALL.hourly_rate == 0.085

    def test_region_zones(self):
        assert len(US_EAST.zones) == 4
        assert US_EAST.zone("a").name == "us-east-1a"

    def test_unknown_zone(self):
        with pytest.raises(KeyError):
            US_EAST.zone("z")

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            InstanceType("x", 0, 1, 1, 0.1)


class TestBillableHours:
    def test_partial_hour_rounds_up(self):
        assert billable_hours(1.0) == 1
        assert billable_hours(3599.0) == 1
        assert billable_hours(3601.0) == 2

    def test_exact_hours(self):
        assert billable_hours(7200.0) == 2

    def test_zero(self):
        assert billable_hours(0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            billable_hours(-1.0)


class TestBillingLedger:
    def test_cost_accumulates(self):
        led = BillingLedger()
        led.record("i-1", "m1.small", 0.0, 1800.0, 0.085)
        led.record("i-2", "m1.small", 0.0, 7200.0, 0.085)
        assert led.total_instance_hours == 3
        assert led.total_cost == pytest.approx(3 * 0.085)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            BillingLedger().record("i", "t", 10.0, 5.0, 0.1)

    def test_summary(self):
        led = BillingLedger()
        led.record("i-1", "m1.small", 0.0, 10.0, 0.085)
        s = led.summary()
        assert s["instances"] == 1 and s["instance_hours"] == 1


class TestHeterogeneity:
    def test_most_instances_good(self):
        model = HeterogeneityModel()
        rng = RngStream(1)
        factors = [model.draw_factor(rng.fork(str(i))) for i in range(500)]
        good = sum(1 for f in factors if f > 0.9)
        assert good / len(factors) > 0.75

    def test_spread_reaches_4x(self):
        model = HeterogeneityModel()
        rng = RngStream(2)
        factors = [model.draw_factor(rng.fork(str(i))) for i in range(500)]
        assert max(factors) / min(factors) > 3.0


class TestInstanceLifecycle:
    def test_launch_wait_running(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance()
        assert inst.state is InstanceState.RUNNING
        assert cloud.now == pytest.approx(inst.boot_delay)

    def test_boot_delay_in_range(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance()
        lo, hi = cloud.boot_delay_range
        assert lo <= inst.boot_delay <= hi

    def test_launch_nowait_pending(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance(wait=False)
        assert inst.state is InstanceState.PENDING
        cloud.advance(inst.ready_at - cloud.now)
        inst.mark_running(cloud.now)
        assert inst.state is InstanceState.RUNNING

    def test_cannot_start_before_boot(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance(wait=False)
        with pytest.raises(InstanceError):
            inst.mark_running(cloud.now)

    def test_double_terminate_rejected(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance()
        cloud.terminate_instance(inst)
        with pytest.raises(InstanceError):
            inst.terminate(cloud.now)

    def test_terminate_bills_partial_hour_as_full(self):
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance()
        cloud.advance(60.0)
        cloud.terminate_instance(inst)
        assert cloud.ledger.total_instance_hours == 1
        assert cloud.ledger.total_cost == pytest.approx(0.085)

    def test_pending_time_not_billed(self):
        """Only RUNNING time is billed (§3.1)."""
        cloud = Cloud(seed=3)
        inst = cloud.launch_instance()  # boots for ~2-3 min
        cloud.advance(HOUR - inst.boot_delay + 1.0)  # running just over 1h-boot
        cloud.terminate_instance(inst)
        rec = cloud.ledger.records[0]
        assert rec.start == pytest.approx(inst.boot_delay)
        assert rec.hours == 1

    def test_finalize_billing_covers_running(self):
        cloud = Cloud(seed=3)
        cloud.launch_instance()
        cloud.launch_instance()
        cloud.advance(100.0)
        cloud.finalize_billing()
        assert len(cloud.ledger.records) == 2

    def test_instance_quality_deterministic(self):
        a = Cloud(seed=7).launch_instance()
        b = Cloud(seed=7).launch_instance()
        assert a.cpu_factor == b.cpu_factor and a.io_factor == b.io_factor


class TestEbs:
    def make(self, seed=5):
        cloud = Cloud(seed=seed)
        inst = cloud.launch_instance()
        vol = cloud.create_volume(100, zone=inst.zone)
        return cloud, inst, vol

    def test_attach_detach(self):
        cloud, inst, vol = self.make()
        vol.attach(inst)
        assert vol.attached_to is inst
        assert vol in inst.attached_volumes
        vol.detach()
        assert vol.attached_to is None
        assert vol not in inst.attached_volumes

    def test_double_attach_rejected(self):
        cloud, inst, vol = self.make()
        vol.attach(inst)
        other = cloud.launch_instance()
        with pytest.raises(EbsError):
            vol.attach(other)

    def test_cross_zone_attach_rejected(self):
        cloud, inst, vol = self.make()
        other_zone = cloud.region.zones[1]
        inst2 = cloud.launch_instance(zone=other_zone)
        with pytest.raises(EbsError):
            vol.attach(inst2)

    def test_attach_requires_running(self):
        cloud, inst, vol = self.make()
        pend = cloud.launch_instance(wait=False)
        with pytest.raises(InstanceError):
            vol.attach(pend)

    def test_terminate_detaches_volumes(self):
        cloud, inst, vol = self.make()
        vol.attach(inst)
        cloud.terminate_instance(inst)
        assert vol.attached_to is None

    def test_swap_volume_survives_instance(self):
        """§7: replace a poor instance without data transfer."""
        cloud, inst, vol = self.make()
        vol.attach(inst)
        vol.store("probes/run1")
        factor_before = vol.placement_factor("probes/run1")
        replacement = cloud.launch_instance(zone=inst.zone)
        vol.detach()
        vol.attach(replacement)
        cloud.terminate_instance(inst)
        assert vol.attached_to is replacement
        assert vol.placement_factor("probes/run1") == factor_before

    def test_placement_factor_stable(self):
        _, _, vol = self.make()
        f1 = vol.store("data/a")
        f2 = vol.store("data/a")
        assert f1 == f2

    def test_clone_directories_roll_new_placement(self):
        """§5.1: clones of a directory can differ by up to 3x."""
        model = PlacementModel(p_bad=0.5, bad_range=(2.0, 3.0))
        rng = RngStream(11)
        factors = {model.factor(rng.fork(str(i)).seed, f"clone{i}") for i in range(40)}
        assert len(factors) > 1
        assert max(factors) <= 3.0 and min(factors) == 1.0

    def test_unknown_directory_rejected(self):
        _, _, vol = self.make()
        with pytest.raises(EbsError):
            vol.placement_factor("never/stored")

    def test_bad_volume_size(self):
        with pytest.raises(EbsError):
            EbsVolume(volume_id="v", size_gb=0, zone=US_EAST.zones[0])


class TestS3:
    def test_put_get(self):
        s3 = S3Store(region_name="us-east")
        s3.put("results/part0", 1000)
        assert s3.get("results/part0").size == 1000

    def test_object_size_limit(self):
        s3 = S3Store(region_name="us-east")
        with pytest.raises(S3Error):
            s3.put("big", MAX_OBJECT_SIZE + 1)
        s3.put("edge", MAX_OBJECT_SIZE)  # exactly 5 GB is allowed

    def test_missing_key(self):
        with pytest.raises(S3Error):
            S3Store(region_name="r").get("nope")

    def test_transfer_time_scales_with_size(self):
        s3 = S3Store(region_name="r", latency_sigma=0.0)
        small = s3.transfer_time(1000, RngStream(1))
        big = s3.transfer_time(1 * GB, RngStream(1))
        assert big > 10 * small

    def test_retrieval_fewer_objects_faster(self):
        """§1: less segmented output retrieves faster at equal volume."""
        s3 = S3Store(region_name="r", latency_sigma=0.0)
        for i in range(100):
            s3.put(f"frag/{i}", 1_000_00)
        s3.put("merged", 100 * 1_000_00)
        t_frag = s3.retrieval_time([f"frag/{i}" for i in range(100)], RngStream(2))
        t_merged = s3.retrieval_time(["merged"], RngStream(2))
        assert t_merged < t_frag
