"""Tests for the column primitives of the cloud layer.

The columnar path (InstanceColumn / launch_column / run_column /
record_column) is a *new* deterministic API, not a re-draw of the scalar
path: its RNG forks live in their own namespace.  What these tests pin
down is the semantic contract:

* vectorized kernels compute member-for-member the same arithmetic as the
  scalar classes (factor mixture, duration composition, ceil-hour bill);
* columnar launches are bit-reproducible per seed;
* installing columnar launches never shifts scalar-path draws.
"""

import numpy as np
import pytest

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, ExecutionService, Workload
from repro.cloud.instance import (
    CPU_HETEROGENEITY,
    HeterogeneityModel,
    InstanceColumn,
    InstanceError,
)
from repro.sim.random import RngStream


def pos_workload():
    return Workload("postag", PosTaggerApplication(), PosCostProfile())


class TestDrawFactors:
    def test_deterministic_per_seed(self):
        m = CPU_HETEROGENEITY
        a = m.draw_factors(RngStream(42), 1000)
        b = m.draw_factors(RngStream(42), 1000)
        assert np.array_equal(a, b)

    def test_same_mixture_support_as_scalar(self):
        """Vector draws land in exactly the scalar mixture's support."""
        m = HeterogeneityModel()
        f = m.draw_factors(RngStream(7), 5000)
        lo = m.very_slow_range[0]
        assert float(f.min()) >= lo
        # good instances are clamped at 0.8 from below, same as scalar
        good = f[f >= 0.8]
        assert good.size > 0.7 * f.size  # the mixture is mostly good

    def test_mixture_proportions_roughly_match(self):
        m = HeterogeneityModel()
        f = m.draw_factors(RngStream(3), 20000)
        very_slow = (f < m.slow_range[0]).mean()
        assert very_slow == pytest.approx(m.p_very_slow, abs=0.01)


class TestInstanceColumn:
    def _column(self, n=4, t0=0.0):
        rng = RngStream(1)
        from repro.cloud.types import SMALL, US_EAST

        return InstanceColumn(
            "c-0001", SMALL, US_EAST.zones[0], t0,
            boot_delay=rng.uniforms(90.0, 210.0, n),
            cpu_factor=np.ones(n), io_factor=np.ones(n))

    def test_barrier_is_slowest_boot(self):
        col = self._column()
        assert col.barrier == pytest.approx(float(col.ready_at.max()))

    def test_lifecycle_guards(self):
        col = self._column()
        with pytest.raises(InstanceError):
            col.mark_running_all(0.0)        # before the barrier
        col.mark_running_all(col.barrier)
        with pytest.raises(InstanceError):
            col.mark_running_all(col.barrier)  # double start
        with pytest.raises(InstanceError):
            col.terminate_all(0.0)           # before running_since
        col.terminate_all(col.barrier + 10.0)
        with pytest.raises(InstanceError):
            col.terminate_all(col.barrier + 20.0)  # double terminate

    def test_mismatched_arrays_rejected(self):
        from repro.cloud.types import SMALL, US_EAST

        with pytest.raises(InstanceError):
            InstanceColumn("c-x", SMALL, US_EAST.zones[0], 0.0,
                           boot_delay=np.ones(3), cpu_factor=np.ones(2),
                           io_factor=np.ones(3))


class TestLaunchColumn:
    def test_deterministic_per_seed(self):
        a = Cloud(seed=11).launch_column(64)
        b = Cloud(seed=11).launch_column(64)
        assert np.array_equal(a.boot_delay, b.boot_delay)
        assert np.array_equal(a.cpu_factor, b.cpu_factor)
        assert np.array_equal(a.io_factor, b.io_factor)

    def test_does_not_shift_scalar_draws(self):
        """A columnar launch is RNG-invisible to later scalar launches."""
        plain = Cloud(seed=5)
        mixed = Cloud(seed=5)
        mixed.launch_column(100)
        i1 = plain.launch_instance(wait=False)
        i2 = mixed.launch_instance(wait=False)
        assert i1.cpu_factor == i2.cpu_factor
        assert i1.io_factor == i2.io_factor
        assert i1.boot_delay == i2.boot_delay

    def test_boot_delays_in_configured_range(self):
        cloud = Cloud(seed=2, boot_delay_range=(50.0, 60.0))
        col = cloud.launch_column(200)
        assert float(col.boot_delay.min()) >= 50.0
        assert float(col.boot_delay.max()) <= 60.0

    def test_rejects_empty_column(self):
        with pytest.raises(InstanceError):
            Cloud(seed=0).launch_column(0)


class TestRunColumnArithmetic:
    def test_composition_matches_scalar_formula(self):
        """With noise and setup spread zeroed, t = setup + io/f_io + cpu/f_cpu
        exactly — the same composition ExecutionService.run charges."""
        profile = PosCostProfile(jvm_startup_sigma=0.0)
        wl = Workload("postag", PosTaggerApplication(), profile)
        cloud = Cloud(seed=3)
        svc = ExecutionService(cloud, noise_sigma=0.0)
        col = cloud.launch_column(8)
        cloud.advance(col.barrier - cloud.now)
        col.mark_running_all(cloud.now)
        io_ref = np.linspace(10.0, 80.0, 8)
        cpu_ref = np.linspace(5.0, 40.0, 8)
        t = svc.run_column(col, wl, io_ref, cpu_ref)
        expected = (profile.jvm_startup_median
                    + io_ref / col.io_factor + cpu_ref / col.cpu_factor)
        assert np.allclose(t, expected, rtol=0, atol=1e-12)

    def test_requires_running_column(self):
        cloud = Cloud(seed=4)
        svc = ExecutionService(cloud)
        col = cloud.launch_column(4)
        with pytest.raises(InstanceError):
            svc.run_column(col, pos_workload(), np.ones(4), np.ones(4))

    def test_repeat_runs_draw_fresh_noise(self):
        cloud = Cloud(seed=6)
        svc = ExecutionService(cloud)
        col = cloud.launch_column(16)
        cloud.advance(col.barrier - cloud.now)
        col.mark_running_all(cloud.now)
        t1 = svc.run_column(col, pos_workload(), np.ones(16), np.ones(16))
        t2 = svc.run_column(col, pos_workload(), np.ones(16), np.ones(16))
        assert not np.array_equal(t1, t2)


class TestRecordColumn:
    def test_hours_match_scalar_billing(self):
        """Vectorized ceil-hours agree with the scalar ledger, member for
        member, including the zero-duration and boundary cases."""
        from repro.cloud.billing import BillingLedger

        start = 100.0
        ends = np.array([start, start + 1.0, start + 3600.0,
                         start + 3600.0 + 1e-6, start + 7200.0])
        col_ledger = BillingLedger()
        rec = col_ledger.record_column("c-0001", "m1.small", start, ends, 0.085)
        scalar_ledger = BillingLedger()
        for i, end in enumerate(ends):
            scalar_ledger.record(f"i-{i}", "m1.small", start, float(end), 0.085)
        assert rec.hours == scalar_ledger.total_instance_hours
        assert rec.cost == pytest.approx(scalar_ledger.total_cost)
        assert rec.total_wasted == pytest.approx(
            scalar_ledger.total_wasted_seconds)

    def test_negative_interval_rejected(self):
        from repro.cloud.billing import BillingLedger

        with pytest.raises(ValueError):
            BillingLedger().record_column("c", "t", 10.0,
                                          np.array([5.0]), 0.085)

    def test_ledger_totals_include_columns(self):
        from repro.cloud.billing import BillingLedger

        ledger = BillingLedger()
        ledger.record("i-1", "m1.small", 0.0, 1800.0, 0.085)
        ledger.record_column("c-1", "m1.small", 0.0,
                             np.array([1800.0, 5400.0]), 0.085)
        assert ledger.total_instance_hours == 1 + 3
        assert ledger.summary()["instances"] == 3
