"""Tests for measurements, probe construction, the §4 protocol, selection
and sampling refits."""

import pytest

from repro.apps import (
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, ExecutionService, Workload
from repro.corpus import text_400k_like
from repro.perfmodel import (
    Measurement,
    ProbeCampaign,
    ProbeSetResult,
    build_probe_set,
    collect_sample_points,
    preferred_unit_size,
    refit_with_samples,
)
from repro.sim.random import RngStream
from repro.units import KB
from repro.vfs import Segment


class TestMeasurement:
    def test_stats(self):
        m = Measurement(values=(1.0, 2.0, 3.0))
        assert m.mean == 2.0 and m.n == 3
        assert m.std == pytest.approx(1.0)
        assert m.cv == pytest.approx(0.5)

    def test_single_value_std_zero(self):
        m = Measurement(values=(5.0,))
        assert m.std == 0.0 and m.is_stable()

    def test_stability_threshold(self):
        assert Measurement(values=(10.0, 10.2, 9.8)).is_stable(0.25)
        assert not Measurement(values=(0.1, 1.0, 0.05)).is_stable(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Measurement(values=())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Measurement(values=(1.0, -0.1))

    def test_repeat_measure_bad_count(self):
        with pytest.raises(ValueError, match="repeats"):
            make_campaign(repeats=0)


class TestProbeSetResult:
    def make(self):
        return ProbeSetResult(
            volume=1000,
            variants={
                "orig": Measurement(values=(10.0, 10.1)),
                1000: Measurement(values=(8.0, 8.2)),
                2000: Measurement(values=(9.0, 9.1)),
            },
        )

    def test_stability(self):
        assert self.make().stable()


class TestBuildProbeSet:
    @pytest.fixture()
    def catalogue(self):
        return text_400k_like(scale=1e-3)

    def test_orig_variant_is_head(self, catalogue):
        ps = build_probe_set(catalogue, volume=50 * KB, unit_sizes=[])
        head = catalogue.head_by_volume(50 * KB)
        assert [u.path for u in ps.variants["orig"]] == [f.path for f in head]

    def test_variant_volume_conserved(self, catalogue):
        ps = build_probe_set(catalogue, volume=100 * KB, unit_sizes=[5 * KB, 10 * KB])
        orig_total = sum(u.size for u in ps.variants["orig"])
        for s in (5 * KB, 10 * KB):
            assert sum(u.size for u in ps.variants[s]) == orig_total

    def test_multiples_derive_from_base_packing(self, catalogue):
        """Units at k*s0 must coalesce k consecutive base bins."""
        ps = build_probe_set(catalogue, volume=100 * KB, unit_sizes=[5 * KB, 10 * KB])
        base = ps.variants[5 * KB]
        derived = ps.variants[10 * KB]
        # first derived unit contains exactly the members of the first two base units
        first_two = [m.path for seg in (base[0], base[1]) for m in seg.members]
        assert [m.path for m in derived[0].members] == first_two

    def test_non_multiple_size_packed_directly(self, catalogue):
        ps = build_probe_set(catalogue, volume=100 * KB, unit_sizes=[4 * KB, 6 * KB])
        assert all(isinstance(u, Segment) for u in ps.variants[6 * KB])
        assert all(u.size <= 6 * KB or len(u.members) == 1 for u in ps.variants[6 * KB])

    def test_unit_size_caps_at_volume(self, catalogue):
        """sn = V collapses the probe into a single unit (§4)."""
        ps = build_probe_set(catalogue, volume=50 * KB, unit_sizes=[50 * KB])
        units = ps.variants[50 * KB]
        assert len(units) <= 3  # nearly everything in one bin

    def test_bad_inputs(self, catalogue):
        with pytest.raises(ValueError):
            build_probe_set(catalogue, volume=0, unit_sizes=[1])
        with pytest.raises(ValueError):
            build_probe_set(catalogue, volume=100, unit_sizes=[0])

    def test_labels(self, catalogue):
        ps = build_probe_set(catalogue, volume=50 * KB, unit_sizes=[5 * KB])
        assert ps.labels() == ["orig", 5 * KB]


def make_campaign(seed=21, workload=None, repeats=3):
    cloud = Cloud(seed=seed)
    # quality-controlled instance so probe measurements are clean
    inst = cloud.launch_instance()
    inst.cpu_factor = inst.io_factor = 1.0
    svc = ExecutionService(cloud)
    wl = workload or Workload("postag", PosTaggerApplication(), PosCostProfile())
    return ProbeCampaign(svc, inst, wl, repeats=repeats), cloud


class TestProbeCampaign:
    def test_measure_repeats(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=2e-4)
        m = campaign.measure(cat._take(range(10), "first10"), directory="t")
        assert m.n == 3

    def test_protocol_escalates_until_stable(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=2e-3)
        result = campaign.run_protocol(
            cat,
            initial_volume=20 * KB,
            unit_sizes_for=lambda v: [KB, 10 * KB],
            growth=5,
            max_rounds=4,
        )
        assert len(result.probe_sets) >= 1
        volumes = [ps.volume for ps in result.probe_sets]
        assert volumes == sorted(volumes)
        if len(volumes) > 1:
            assert volumes[1] == volumes[0] * 5

    def test_observation_points_accumulate(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=5e-4)
        campaign.run_protocol(cat, initial_volume=100 * KB,
                              unit_sizes_for=lambda v: [KB], max_rounds=2)
        xs, ys = campaign.timing_points("orig")
        assert len(xs) == len(ys) >= 3
        assert all(y > 0 for y in ys)

    def test_bad_protocol_params(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=1e-4)
        with pytest.raises(ValueError):
            campaign.run_protocol(cat, initial_volume=0, unit_sizes_for=lambda v: [])
        with pytest.raises(ValueError):
            campaign.run_protocol(cat, initial_volume=10, unit_sizes_for=lambda v: [], growth=1)


class TestPreferredUnitSize:
    def test_minimum_selected(self):
        ps = ProbeSetResult(
            volume=10_000,
            variants={
                "orig": Measurement(values=(12.0, 12.1)),
                1000: Measurement(values=(10.0, 10.1)),
                5000: Measurement(values=(11.0, 11.2)),
            },
        )
        pick = preferred_unit_size([ps])
        assert pick.label == 1000

    def test_plateau_prefers_smallest_unit(self):
        ps = ProbeSetResult(
            volume=10_000,
            variants={
                "orig": Measurement(values=(20.0,)),
                1000: Measurement(values=(10.2,)),
                2000: Measurement(values=(10.0,)),
                4000: Measurement(values=(10.3,)),
            },
        )
        pick = preferred_unit_size([ps], plateau_tolerance=0.05)
        assert pick.label == 1000
        assert set(pick.plateau) == {1000, 2000, 4000}

    def test_orig_wins_when_fastest(self):
        """The POS case: original segmentation fares best (Fig. 7)."""
        ps = ProbeSetResult(
            volume=1000_000,
            variants={
                "orig": Measurement(values=(85.0,)),
                1000: Measurement(values=(86.0,)),
                100_000: Measurement(values=(120.0,)),
            },
        )
        assert preferred_unit_size([ps], plateau_tolerance=0.02).label == "orig"

    def test_later_stable_set_preferred(self):
        unstable_small = ProbeSetResult(
            volume=100,
            variants={"orig": Measurement(values=(0.1, 0.5, 0.05))},
        )
        stable_large = ProbeSetResult(
            volume=100_000,
            variants={
                "orig": Measurement(values=(50.0, 50.5)),
                10_000: Measurement(values=(40.0, 40.1)),
            },
        )
        pick = preferred_unit_size([unstable_small, stable_large])
        assert pick.from_volume == 100_000
        assert pick.label == 10_000

    def test_unstable_variants_excluded_from_plateau(self):
        ps = ProbeSetResult(
            volume=1000,
            variants={
                "orig": Measurement(values=(10.0, 10.1)),
                500: Measurement(values=(2.0, 18.0)),  # fast mean, wild std
            },
        )
        pick = preferred_unit_size([ps])
        assert pick.label == "orig"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            preferred_unit_size([])


class TestSamplingRefit:
    def test_collect_points_and_refit(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=2e-3)
        rng = RngStream(5)
        points = collect_sample_points(
            campaign, cat, rng,
            n_samples=3, sample_volume=100 * KB, unit_size=None,
        )
        # 3 samples x (full + one half subset)
        assert len(points) == 6
        base = [(50_000.0, 5.0), (100_000.0, 9.0)]
        model = refit_with_samples(base, points)
        assert model.b > 0

    def test_samples_disjoint(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=1e-3)
        rng = RngStream(6)
        pts_a = collect_sample_points(campaign, cat, rng, n_samples=2,
                                      sample_volume=50 * KB, unit_size=None)
        assert len(pts_a) == 4

    def test_reshaped_samples(self):
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        campaign, _ = make_campaign(workload=wl)
        cat = text_400k_like(scale=1e-3)
        pts = collect_sample_points(campaign, cat, RngStream(7), n_samples=2,
                                    sample_volume=50 * KB, unit_size=10 * KB)
        assert len(pts) == 4

    def test_bad_params(self):
        campaign, _ = make_campaign()
        cat = text_400k_like(scale=1e-4)
        with pytest.raises(ValueError):
            collect_sample_points(campaign, cat, RngStream(1), n_samples=0,
                                  sample_volume=100, unit_size=None)
        with pytest.raises(ValueError):
            collect_sample_points(campaign, cat, RngStream(1), n_samples=1,
                                  sample_volume=100, unit_size=None,
                                  subset_fractions=(1.5,))
        with pytest.raises(ValueError):
            refit_with_samples([], [(1.0, 1.0)])
