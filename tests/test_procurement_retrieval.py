"""Tests for output-retrieval accounting."""

import numpy as np

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.runner import execute_plan
from repro.units import KB


class TestRetrievalAccounting:
    def model(self):
        x = np.array([1e6, 1e7, 1e8])
        return fit_affine(x, 0.2 + 1.33e-8 * x)

    def test_reshaped_output_retrieves_faster(self):
        """§1 end-to-end: the reshaped plan's results come back faster."""
        cat = text_400k_like(scale=5e-3)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        prov = StaticProvisioner(self.model())

        orig_units = reshape(cat, None).units
        merged_units = reshape(cat, 200 * KB).units
        plan_orig = prov.plan(orig_units, 30.0, strategy="uniform")
        plan_merged = prov.plan(merged_units, 30.0, strategy="uniform")

        rep_orig = execute_plan(Cloud(seed=12), wl, plan_orig,
                                measure_retrieval=True)
        rep_merged = execute_plan(Cloud(seed=12), wl, plan_merged,
                                  measure_retrieval=True)
        assert rep_orig.retrieval_seconds is not None
        assert rep_merged.retrieval_seconds is not None
        assert rep_merged.retrieval_seconds < rep_orig.retrieval_seconds

    def test_retrieval_not_measured_by_default(self):
        cat = text_400k_like(scale=1e-3)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        plan = StaticProvisioner(self.model()).plan(cat, 30.0)
        rep = execute_plan(Cloud(seed=13), wl, plan)
        assert rep.retrieval_seconds is None
