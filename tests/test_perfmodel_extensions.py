"""Tests for the §7 extensions: weighted fits and quality tracking."""

import numpy as np
import pytest

from repro.cloud.bonnie import BonnieResult
from repro.perfmodel import QualityTracker, volume_weighted_fit
from repro.perfmodel.quality import QualityError
from repro.perfmodel.regression import FitError
from repro.units import MB


def noisy_line(seed=0, noise_small=0.5, noise_large=0.02, n=24):
    """y = 2 + 1e-4 x with loud noise at small volumes, quiet at large."""
    rng = np.random.default_rng(seed)
    x = np.logspace(4, 8, n)
    rel = noise_small + (noise_large - noise_small) * (np.log(x) - np.log(x[0])) / (
        np.log(x[-1]) - np.log(x[0]))
    y = (2.0 + 1e-4 * x) * (1 + rng.normal(0, 1, n) * rel / 2)
    return x, np.maximum(y, 1e-3)


class TestVolumeWeightedFit:
    def test_weighted_sse_invariant(self):
        """The weighted fit minimises weighted SSE by construction — it can
        never do worse than the unweighted fit under its own metric (and
        vice versa)."""
        from repro.perfmodel.regression import fit_affine

        x, y = noisy_line(seed=1)
        w = (x / x.max()) ** 2.0
        fit_w = volume_weighted_fit(x, y, power=2.0)
        fit_u = fit_affine(x, y)
        wsse = lambda m: float(np.sum(w * (y - m.predict(x)) ** 2))
        usse = lambda m: float(np.sum((y - m.predict(x)) ** 2))
        assert wsse(fit_w) <= wsse(fit_u) + 1e-9
        assert usse(fit_u) <= usse(fit_w) + 1e-9

    def test_tracks_large_volumes_more_closely(self):
        """§7's stated goal: closer fits in the large-volume range."""
        from repro.perfmodel.regression import fit_affine

        for seed in range(10):
            x, y = noisy_line(seed=seed, noise_small=1.2, noise_large=0.01)
            fit_w = volume_weighted_fit(x, y, power=3.0)
            fit_u = fit_affine(x, y)
            res_w = abs(float(y[-1]) - fit_w.predict(float(x[-1])))
            res_u = abs(float(y[-1]) - fit_u.predict(float(x[-1])))
            assert res_w <= res_u

    def test_power_zero_equals_unweighted(self):
        from repro.perfmodel.regression import fit_affine

        x, y = noisy_line(seed=3)
        w = volume_weighted_fit(x, y, power=0.0)
        u = fit_affine(x, y)
        assert w.b == pytest.approx(u.b)

    def test_validation(self):
        with pytest.raises(FitError):
            volume_weighted_fit([1.0, 2.0], [1.0, 2.0], power=-1)
        with pytest.raises(FitError):
            volume_weighted_fit([0.0, 2.0], [1.0, 2.0])


def bonnie(read_mb: float) -> BonnieResult:
    return BonnieResult(block_read=read_mb * MB, block_write=read_mb * MB)


class TestQualityTracker:
    def test_classification_bands(self):
        t = QualityTracker()
        assert t.classify(bonnie(90)) == "fast"
        assert t.classify(bonnie(60)) == "ok"
        assert t.classify(bonnie(30)) == "slow"

    def test_band_validation(self):
        with pytest.raises(QualityError):
            QualityTracker(bands={})
        with pytest.raises(QualityError):
            QualityTracker(bands={"fast": 10.0})  # no catch-all

    def test_per_band_predictors_differ(self):
        t = QualityTracker()
        for v in (1e6, 2e6, 4e6):
            t.record("fast", v, 1e-4 * v)          # fast: 1e-4 s/B
            t.record("slow", v, 3e-4 * v)          # slow: 3x slower
        assert t.predictor_for("slow").b == pytest.approx(3e-4, rel=1e-6)
        assert t.volume_for("fast", 100.0) == pytest.approx(3 * t.volume_for("slow", 100.0), rel=0.01)

    def test_sparse_band_falls_back_to_pooled(self):
        t = QualityTracker()
        t.record("fast", 1e6, 100.0)
        t.record("fast", 2e6, 200.0)
        # "ok" has no data of its own -> pooled fit succeeds
        assert t.predictor_for("ok").b > 0

    def test_no_data_at_all(self):
        with pytest.raises(FitError):
            QualityTracker().predictor_for("fast")

    def test_record_validation(self):
        t = QualityTracker()
        with pytest.raises(QualityError):
            t.record("nope", 1.0, 1.0)
        with pytest.raises(QualityError):
            t.record("fast", 0.0, 1.0)

    def test_share_out_proportional_and_exact(self):
        t = QualityTracker()
        for v in (1e6, 2e6):
            t.record("fast", v, 1e-4 * v)
            t.record("slow", v, 2e-4 * v)
        shares = t.share_out(["fast", "slow"], 3_000_000, deadline=100.0)
        assert sum(shares) == 3_000_000
        assert shares[0] == pytest.approx(2 * shares[1], rel=0.01)

    def test_share_out_empty_fleet(self):
        with pytest.raises(QualityError):
            QualityTracker().share_out([], 100, 10.0)
