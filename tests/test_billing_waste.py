"""Mid-hour termination accounting: the paid-but-unused remainder.

The §1.1 pricing fact is ``cost = r·⌈P⌉``; these tests pin the charge at
exact hour boundaries and make the thrown-away remainder
(``wasted_seconds``) visible — the quantity the fleet's warm pool exists
to recycle.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.billing import BillingLedger, UsageRecord
from repro.cloud.instance import InstanceError


class TestWastedSeconds:
    def test_exact_boundary_wastes_nothing(self):
        rec = UsageRecord("i-1", "m1.small", 0.0, 3600.0, 0.085)
        assert rec.hours == 1
        assert rec.wasted_seconds == 0.0

    def test_two_exact_hours_waste_nothing(self):
        rec = UsageRecord("i-1", "m1.small", 100.0, 100.0 + 7200.0, 0.085)
        assert rec.hours == 2
        assert rec.wasted_seconds == 0.0

    def test_one_second_past_boundary_buys_a_full_new_hour(self):
        rec = UsageRecord("i-1", "m1.small", 0.0, 3601.0, 0.085)
        assert rec.hours == 2
        assert rec.wasted_seconds == pytest.approx(3599.0)

    def test_mid_hour_termination_remainder(self):
        rec = UsageRecord("i-1", "m1.small", 0.0, 1800.0, 0.085)
        assert rec.hours == 1
        assert rec.wasted_seconds == pytest.approx(1800.0)

    def test_ledger_totals_and_summary(self):
        led = BillingLedger()
        led.record("i-1", "m1.small", 0.0, 1800.0, 0.085)   # wastes 1800
        led.record("i-2", "m1.small", 0.0, 3600.0, 0.085)   # wastes 0
        assert led.total_wasted_seconds == pytest.approx(1800.0)
        assert led.summary()["wasted_seconds"] == pytest.approx(1800.0)


class TestLeaseAwareTerminate:
    def test_terminate_returns_usage_record(self):
        cloud = Cloud(seed=1)
        inst = cloud.launch_instance()
        cloud.advance(1000.0)
        rec = cloud.terminate_instance(inst)
        assert rec is not None
        assert rec.duration == pytest.approx(1000.0)
        assert rec.wasted_seconds == pytest.approx(2600.0)

    def test_retroactive_terminate_bills_to_at(self):
        cloud = Cloud(seed=1)
        inst = cloud.launch_instance()
        stop = cloud.now + 600.0
        cloud.advance(5000.0)  # clock runs on while the instance idles
        rec = cloud.terminate_instance(inst, at=stop)
        assert rec.end == pytest.approx(stop)
        assert rec.hours == 1  # idle seconds past the lease are not billed

    def test_future_terminate_rejected(self):
        cloud = Cloud(seed=1)
        inst = cloud.launch_instance()
        with pytest.raises(InstanceError):
            cloud.terminate_instance(inst, at=cloud.now + 10.0)

    def test_paid_through_and_remaining(self):
        cloud = Cloud(seed=1)
        inst = cloud.launch_instance()
        start = inst.running_since
        # the first hour is committed the moment the instance runs
        assert cloud.paid_through(inst) == pytest.approx(start + 3600.0)
        assert cloud.paid_through(inst) - cloud.now == pytest.approx(3600.0)
        cloud.advance(3600.0)
        # exactly on the boundary: nothing of the paid hour remains
        assert cloud.paid_through(inst) - cloud.now == pytest.approx(0.0)
        cloud.advance(1.0)
        # one second into hour two: a fresh hour is committed
        assert cloud.paid_through(inst) - cloud.now == pytest.approx(3599.0)

    def test_paid_through_requires_running(self):
        cloud = Cloud(seed=1)
        inst = cloud.launch_instance(wait=False)
        with pytest.raises(InstanceError):
            cloud.paid_through(inst)
