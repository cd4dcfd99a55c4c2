"""Cross-boundary consistency: native work, estimates and simulated time
must order the same way for every application.

These tests guard the reproduction's central honesty property: the hidden
cost profiles (what the simulator charges) and the real applications (what
actually happens to bytes) cannot drift apart without something failing.
"""

import pytest

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
    UnitColumns,
)
from repro.cloud import Cloud, ExecutionService, Workload
from repro.corpus import html_18mil_like, text_400k_like
from repro.core import reshape
from repro.units import KB
from tests.catalogues import first

APPS = [
    ("grep", GrepApplication(), GrepCostProfile(), html_18mil_like(scale=2e-5)),
    ("extract", ExtractorApplication(), ExtractCostProfile(), html_18mil_like(scale=2e-5)),
    ("postag", PosTaggerApplication(), PosCostProfile(), text_400k_like(scale=2e-4)),
]


@pytest.mark.parametrize("name,app,profile,cat", APPS, ids=[a[0] for a in APPS])
class TestBoundaryConsistency:
    def test_estimate_bytes_match_native_exactly(self, name, app, profile, cat):
        units = first(cat, 15)
        native = app.run_native(units).work
        est = app.estimate_work(UnitColumns(units))
        assert est.bytes_read == native.bytes_read
        assert est.files_opened == native.files_opened

    def test_more_data_costs_more_simulated_time(self, name, app, profile, cat):
        cloud = Cloud(seed=81)
        inst = cloud.launch_instance()
        inst.cpu_factor = inst.io_factor = 1.0
        svc = ExecutionService(cloud, noise_sigma=0.0)
        wl = Workload(name, app, profile)
        small = first(cat, 10)
        large = first(cat, 40)
        t_small = svc.run(inst, small, wl)
        t_large = svc.run(inst, large, wl)
        assert t_large > t_small

    def test_breakdown_components_nonnegative(self, name, app, profile, cat):
        b = profile.breakdown(UnitColumns(first(cat, 10)))
        assert b.setup >= 0 and b.io >= 0 and b.cpu >= 0
        assert b.total > 0

    def test_reshaping_preserves_estimated_bytes(self, name, app, profile, cat):
        plan = reshape(cat, 50 * KB)
        est_orig = app.estimate_work(UnitColumns(cat))
        est_merged = app.estimate_work(UnitColumns(plan.units))
        assert est_merged.bytes_read == est_orig.bytes_read
        assert est_merged.files_opened < est_orig.files_opened


class TestReshapingDirectionPerApp:
    """Reshaping must help grep-like profiles and not help the tagger —
    the paper's two headline outcomes, asserted straight on the profiles."""

    def simulated_time(self, name, app, profile, units):
        cloud = Cloud(seed=82)
        inst = cloud.launch_instance()
        inst.cpu_factor = inst.io_factor = 1.0
        svc = ExecutionService(cloud, noise_sigma=0.0)
        return svc.run(inst, units, Workload(name, app, profile))

    def test_grep_prefers_merged(self):
        cat = html_18mil_like(scale=2e-4)
        merged = reshape(cat, 1000 * KB).units
        t_orig = self.simulated_time("grep", GrepApplication(), GrepCostProfile(),
                                     cat)
        t_merged = self.simulated_time("grep", GrepApplication(), GrepCostProfile(),
                                       merged)
        assert t_merged < t_orig

    def test_pos_prefers_original(self):
        cat = text_400k_like(scale=2e-3)
        merged = reshape(cat, 500 * KB).units
        t_orig = self.simulated_time("postag", PosTaggerApplication(),
                                     PosCostProfile(), cat)
        t_merged = self.simulated_time("postag", PosTaggerApplication(),
                                       PosCostProfile(), merged)
        assert t_orig < t_merged
