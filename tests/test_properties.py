"""Cross-cutting property-based tests on system invariants.

Each property encodes something the reproduction's conclusions rest on:
volume conservation through reshaping and planning, ceil-hour billing
arithmetic, model inverse consistency, engine ordering, and deterministic
cloud behaviour.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cloud.billing import billable_hours
from repro.core import StaticProvisioner, reshape
from repro.core.deadline import adjusted_deadline
from repro.perfmodel.regression import fit_affine, fit_power
from repro.sim.engine import SimulationEngine
from repro.sim.random import RngStream
from tests.catalogues import make_catalogue


# --- strategies --------------------------------------------------------------

sizes_strategy = st.lists(st.integers(min_value=1, max_value=200_000),
                          min_size=1, max_size=80)


def catalogue_of(sizes):
    return make_catalogue(sizes, pattern="f%05d")


# --- reshaping ----------------------------------------------------------------


class TestReshapeProperties:
    @given(sizes_strategy, st.integers(min_value=1, max_value=500_000))
    @settings(max_examples=80)
    def test_volume_and_membership_conserved(self, sizes, unit):
        cat = catalogue_of(sizes)
        plan = reshape(cat, unit)
        assert plan.total_size == cat.total_size
        members = sorted(m.path for u in plan.units for m in u.members)
        assert members == sorted(f.path for f in cat)

    @given(sizes_strategy, st.integers(min_value=1, max_value=500_000))
    @settings(max_examples=80)
    def test_units_never_split_files(self, sizes, unit):
        cat = catalogue_of(sizes)
        plan = reshape(cat, unit)
        for u in plan.units:
            assert u.size <= unit or len(u.members) == 1

    @given(sizes_strategy)
    @settings(max_examples=40)
    def test_reshape_reduces_or_keeps_unit_count(self, sizes):
        cat = catalogue_of(sizes)
        plan = reshape(cat, max(sizes) * 2)
        assert plan.n_units <= len(cat)


# --- billing -------------------------------------------------------------------


class TestBillingProperties:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=100)
    def test_ceil_hour_bounds(self, duration):
        h = billable_hours(duration)
        assert h * 3600.0 >= duration
        if duration > 0:
            assert (h - 1) * 3600.0 < duration

    @given(st.floats(min_value=0.001, max_value=1e5),
           st.floats(min_value=0.001, max_value=1e5))
    @settings(max_examples=60)
    def test_splitting_a_run_never_cheapens_it(self, d1, d2):
        """Partial-hour pricing: one continuous run costs no more than the
        same time split across two instances."""
        assert billable_hours(d1 + d2) <= billable_hours(d1) + billable_hours(d2)


# --- regression ------------------------------------------------------------------


class TestModelProperties:
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-9, max_value=1e-2),
        st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=80)
    def test_affine_inverse_roundtrip(self, a, b, probe):
        x = np.array([1e3, 1e5, 1e7])
        model = fit_affine(x, a + b * x)
        y = float(model.predict(probe))
        assume(y > model.a)
        # tolerance reflects float conditioning of (y - a) / b for tiny b
        assert model.inverse(y) == pytest.approx(probe, rel=1e-3)

    @given(
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=0.2, max_value=2.5),
    )
    @settings(max_examples=60)
    def test_power_inverse_roundtrip(self, a, b):
        x = np.array([10.0, 1e3, 1e5])
        model = fit_power(x, a * x**b)
        assert model.inverse(model.predict(777.0)) == pytest.approx(777.0, rel=1e-6)

    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=-0.9, max_value=5.0))
    @settings(max_examples=60)
    def test_adjusted_deadline_direction(self, deadline, a):
        assume(abs(a) > 1e-9)  # a ≈ 0 degenerates to d1 == deadline
        d1 = adjusted_deadline(deadline, a)
        if a > 0:
            assert d1 <= deadline   # pessimistic residuals tighten the plan
        else:
            assert d1 >= deadline   # optimistic residuals relax it
        assert d1 == pytest.approx(deadline / (1 + a))

    @given(st.floats(min_value=10.0, max_value=1e4))
    @settings(max_examples=60)
    def test_more_instances_for_tighter_deadlines(self, deadline):
        x = np.array([1e5, 1e6, 1e7])
        model = fit_affine(x, 0.3 + 1e-4 * x)
        prov = StaticProvisioner(model)
        volume = 10**8
        assume(deadline > model.a + 1.0)
        tight = prov.instances_for(volume, deadline)
        loose = prov.instances_for(volume, deadline * 2)
        assert tight >= loose

    @given(st.integers(min_value=1, max_value=10**10),
           st.floats(min_value=10.0, max_value=1e4))
    @settings(max_examples=60)
    def test_instance_capacity_covers_volume(self, volume, deadline):
        x = np.array([1e5, 1e6, 1e7])
        model = fit_affine(x, 0.3 + 1e-4 * x)
        prov = StaticProvisioner(model)
        assume(deadline > 1.0)
        n = prov.instances_for(volume, deadline)
        x0 = math.floor(prov.volume_for(deadline))
        assert n * x0 >= volume
        assert (n - 1) * x0 < volume


# --- engine -----------------------------------------------------------------------


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e5,
                              allow_nan=False), max_size=40))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time(self, times):
        eng = SimulationEngine()
        fired = []
        for t in times:
            eng.schedule_at(t, lambda t=t: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


# --- catalogue / sampling ------------------------------------------------------------


class TestCatalogueProperties:
    @given(sizes_strategy, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_sample_is_subset_without_replacement(self, sizes, seed):
        cat = catalogue_of(sizes)
        target = cat.total_size // 2
        sample = cat.sample_by_volume(target, RngStream(seed))
        paths = [f.path for f in sample]
        assert len(paths) == len(set(paths))
        assert set(paths) <= {f.path for f in cat}

    @given(sizes_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60)
    def test_partition_is_ordered_cover(self, sizes, parts):
        cat = catalogue_of(sizes)
        pieces = cat.partition_volumes(parts)
        flat = [f.path for p in pieces for f in p]
        assert flat == [f.path for f in cat]


# --- cloud determinism -----------------------------------------------------------------


class TestCloudProperties:
    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=4000)
    def test_same_seed_same_fleet(self, seed, n):
        from repro.cloud import Cloud

        def fleet(s):
            cloud = Cloud(seed=s)
            return [(i.cpu_factor, i.io_factor, i.boot_delay)
                    for i in (cloud.launch_instance() for _ in range(n))]

        assert fleet(seed) == fleet(seed)
