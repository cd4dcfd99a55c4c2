"""Tests for the execution service, bonnie vetting and the spot market."""

import numpy as np
import pytest

from repro.apps import GrepApplication, GrepCostProfile, PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, ExecutionService, Workload, acquire_good_instance, bonnie_probe
from repro.cloud.bonnie import AcquisitionError, BONNIE_DURATION
from repro.cloud.instance import HeterogeneityModel
from repro.cloud.spot import SpotMarket, SpotRequest
from repro.corpus import text_400k_like
from repro.sim.random import RngStream
from repro.units import MB
from tests.catalogues import first


def grep_workload():
    return Workload("grep", GrepApplication(), GrepCostProfile())


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


@pytest.fixture()
def cloud():
    return Cloud(seed=42)


@pytest.fixture()
def units():
    return first(text_400k_like(scale=2e-4), 40)


class TestExecutionService:
    def test_run_returns_positive_time_and_advances_clock(self, cloud, units):
        inst = cloud.launch_instance()
        svc = ExecutionService(cloud)
        t0 = cloud.now
        t = svc.run(inst, units, pos_workload())
        assert t > 0
        assert cloud.now == pytest.approx(t0 + t)

    def test_run_deterministic_across_clouds(self, units):
        def measure(seed):
            cloud = Cloud(seed=seed)
            inst = cloud.launch_instance()
            return ExecutionService(cloud).run(inst, units, grep_workload())

        assert measure(5) == measure(5)
        assert measure(5) != measure(6)

    def test_repeated_runs_differ_by_noise_only(self, cloud, units):
        inst = cloud.launch_instance()
        svc = ExecutionService(cloud, noise_sigma=0.01)
        times = [svc.run(inst, units, pos_workload()) for _ in range(5)]
        assert np.std(times) / np.mean(times) < 0.2
        assert len(set(times)) == 5  # but they do differ

    def test_slow_instance_measures_slower(self, units):
        """Hidden heterogeneity is observable through measured times."""
        hmodel = HeterogeneityModel(p_slow=0.0, p_very_slow=0.0)
        fast_cloud = Cloud(seed=1, heterogeneity=hmodel)
        fast = fast_cloud.launch_instance()
        t_fast = ExecutionService(fast_cloud, noise_sigma=0.0).run(fast, units, pos_workload())

        slow_cloud = Cloud(seed=1, heterogeneity=hmodel)
        slow = slow_cloud.launch_instance()
        slow.cpu_factor = 0.3  # force a straggler
        t_slow = ExecutionService(slow_cloud, noise_sigma=0.0).run(slow, units, pos_workload())
        assert t_slow > 2.0 * t_fast

    def test_storage_placement_scales_io(self, cloud, units):
        inst = cloud.launch_instance()
        vol = cloud.create_volume(100, zone=inst.zone)
        vol.attach(inst)
        vol.store("good")
        vol._directories["good"] = 1.0
        vol.store("bad")
        vol._directories["bad"] = 3.0
        svc = ExecutionService(cloud, noise_sigma=0.0)
        t_good = svc.run(inst, units, grep_workload(), storage=vol, directory="good")
        t_bad = svc.run(inst, units, grep_workload(), storage=vol, directory="bad")
        assert t_bad > t_good  # grep is I/O-dominated

    def test_unattached_storage_rejected(self, cloud, units):
        inst = cloud.launch_instance()
        vol = cloud.create_volume(10, zone=inst.zone)
        vol.store("d")
        with pytest.raises(ValueError):
            ExecutionService(cloud).run(inst, units, grep_workload(), storage=vol, directory="d")

    def test_terminated_instance_rejected(self, cloud, units):
        inst = cloud.launch_instance()
        cloud.terminate_instance(inst)
        from repro.cloud.instance import InstanceError

        with pytest.raises(InstanceError):
            ExecutionService(cloud).run(inst, units, grep_workload())

    def test_negative_noise_rejected(self, cloud):
        with pytest.raises(ValueError):
            ExecutionService(cloud, noise_sigma=-0.1)


class TestBonnie:
    def test_probe_reflects_io_factor(self, cloud):
        inst = cloud.launch_instance()
        inst.io_factor = 0.5
        res = bonnie_probe(cloud, inst)
        expected = inst.itype.base_disk_bandwidth * 0.5
        assert res.block_read == pytest.approx(expected, rel=0.15)

    def test_probe_advances_clock(self, cloud):
        inst = cloud.launch_instance()
        t0 = cloud.now
        bonnie_probe(cloud, inst)
        assert cloud.now == t0 + BONNIE_DURATION

    def test_threshold(self):
        from repro.cloud.bonnie import BonnieResult

        good = BonnieResult(block_read=70 * MB, block_write=65 * MB)
        bad = BonnieResult(block_read=50 * MB, block_write=65 * MB)
        assert good.passes() and not bad.passes()

    def test_acquire_returns_good_instance(self):
        cloud = Cloud(seed=10)
        inst, attempts = acquire_good_instance(cloud)
        assert inst.io_factor > 0.7
        assert attempts >= 1
        # rejected instances were terminated and billed
        assert len(cloud.ledger.records) == attempts - 1

    def test_acquire_rejects_stragglers(self):
        """With a mostly-bad cloud, acquisition takes several attempts."""
        hmodel = HeterogeneityModel(p_slow=0.6, p_very_slow=0.3)
        cloud = Cloud(seed=3, heterogeneity=hmodel)
        inst, attempts = acquire_good_instance(cloud, max_attempts=100)
        assert attempts > 1
        assert inst.io_factor > 0.7

    def test_acquire_gives_up(self):
        hmodel = HeterogeneityModel(p_slow=0.0, p_very_slow=1.0)
        cloud = Cloud(seed=3, heterogeneity=hmodel)
        with pytest.raises(AcquisitionError):
            acquire_good_instance(cloud, max_attempts=5)

    def test_bad_repeats(self, cloud):
        with pytest.raises(ValueError):
            acquire_good_instance(cloud, repeats=0)


class TestSpotMarket:
    def test_prices_deterministic_and_floored(self):
        m1 = SpotMarket(rng=RngStream(8))
        m2 = SpotMarket(rng=RngStream(8))
        assert m1.prices(50) == m2.prices(50)
        assert all(p >= m1.floor for p in m1.prices(50))

    def test_price_negative_hour_rejected(self):
        with pytest.raises(ValueError):
            SpotMarket(rng=RngStream(1)).price(-1)

    def test_high_bid_always_runs(self):
        m = SpotMarket(rng=RngStream(2))
        req = SpotRequest(bid=10.0)
        assert req.active_hours(m, 24) == list(range(24))

    def test_low_bid_interrupted(self):
        m = SpotMarket(rng=RngStream(2), volatility=0.02)
        req = SpotRequest(bid=m.mean_price * 0.9)
        active = req.active_hours(m, 200)
        assert 0 < len(active) < 200

    def test_progress_completes_with_enough_capacity(self):
        m = SpotMarket(rng=RngStream(4))
        out = SpotRequest(bid=1.0).simulate_progress(m, horizon_hours=10, work_hours=5)
        assert out["done"] and out["completed_hour"] == 5
        assert out["cost"] == pytest.approx(sum(m.prices(5)))

    def test_progress_cheaper_than_ondemand_but_slower(self):
        """The §1.1 trade-off: spot saves money when time matters less."""
        m = SpotMarket(rng=RngStream(9), volatility=0.02)
        bid = m.mean_price * 1.02
        out = SpotRequest(bid=bid).simulate_progress(m, horizon_hours=500, work_hours=20)
        assert out["done"]
        on_demand_cost = 20 * 0.085
        assert out["cost"] < on_demand_cost
        assert out["completed_hour"] >= 20

    def test_bad_bid(self):
        with pytest.raises(ValueError):
            SpotRequest(bid=0.0)
