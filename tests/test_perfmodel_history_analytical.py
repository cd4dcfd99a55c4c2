"""Tests for historical and analytical prediction (§4's alternatives)."""

import numpy as np
import pytest

from repro.apps import GrepApplication, GrepCostProfile
from repro.cloud import Cloud, ExecutionService, Workload
from repro.corpus import html_18mil_like
from repro.obs.ledger import RunLedger, RunRecord
from repro.perfmodel import (
    AnalyticalStreamModel,
    HistoricalPredictor,
    calibrate_stream_model,
)
from repro.perfmodel.regression import FitError
from repro.units import KB, MB


def ledger_history(runs):
    """Past (app, volume, seconds) runs as history records in a ledger."""
    ledger = RunLedger(None)
    for app, volume, seconds in runs:
        ledger.append(RunRecord(kind="history", label=app,
                                extra={"volume": volume, "seconds": seconds}))
    return ledger


def ledger_points(ledger, app):
    """(volumes, seconds) of one application's history records."""
    past = ledger.records(kind="history", label=app)
    return ([r.extra["volume"] for r in past],
            [r.extra["seconds"] for r in past])


class TestRunHistory:
    """The past-run points a HistoricalPredictor is fitted from."""

    def test_append_and_filter(self):
        ledger = ledger_history([("grep", 1000, 1.0), ("postag", 1000, 9.0),
                                 ("grep", 2000, 2.0)])
        assert len(ledger) == 3
        assert ledger_points(ledger, "grep") == ([1000, 2000], [1.0, 2.0])

    def test_record_validation(self):
        for volumes, seconds in (([0, 2000], [1.0, 2.0]),
                                 ([1000, 2000], [1.0, 0.0]),
                                 ([-5, 2000], [1.0, 2.0])):
            with pytest.raises(FitError, match="positive volume and time"):
                HistoricalPredictor.from_runs(volumes, seconds)

    def test_points(self):
        p = HistoricalPredictor.from_runs([100, 200], [1.0, 2.0])
        assert p.x.tolist() == [100.0, 200.0] and p.y.tolist() == [1.0, 2.0]


def linear_history(rate=1e-6, setup=1.0, volumes=(1e6, 2e6, 4e6, 8e6),
                   reps=2, jitter=0.0, seed=0):
    """(volumes, seconds) of ``reps`` runs per volume on a linear cost."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for v in volumes:
        for _ in range(reps):
            noise = 1.0 + (rng.normal(0, jitter) if jitter else 0.0)
            xs.append(int(v))
            ys.append((setup + rate * v) * noise)
    return xs, ys


class TestHistoricalPredictor:
    def test_interpolates_between_buckets(self):
        p = HistoricalPredictor.from_runs(*linear_history())
        assert p.predict(3e6) == pytest.approx(1.0 + 1e-6 * 3e6, rel=1e-9)

    def test_extrapolates_with_marginal_rate(self):
        p = HistoricalPredictor.from_runs(*linear_history())
        assert p.predict(16e6) == pytest.approx(1.0 + 1e-6 * 16e6, rel=1e-6)

    def test_inverse_roundtrip(self):
        p = HistoricalPredictor.from_runs(*linear_history())
        for v in (1.5e6, 5e6, 20e6):
            assert p.inverse(p.predict(v)) == pytest.approx(v, rel=1e-6)

    def test_monotone_enforced(self):
        # the 2000-byte run is a noisy dip
        p = HistoricalPredictor.from_runs([1000, 2000, 4000], [5.0, 3.0, 9.0])
        xs = np.linspace(1000, 4000, 20)
        ys = p.predict(xs)
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_needs_two_volumes(self):
        with pytest.raises(FitError):
            HistoricalPredictor.from_runs([1000, 1000], [1.0, 1.1])

    def test_unknown_app(self):
        ledger = ledger_history([("postag", 1000, 9.0), ("postag", 2000, 18.0)])
        with pytest.raises(FitError):
            HistoricalPredictor.from_runs(*ledger_points(ledger, "grep"))

    def test_inverse_validation(self):
        p = HistoricalPredictor.from_runs(*linear_history())
        with pytest.raises(FitError):
            p.inverse(0.0)


class TestAnalyticalStreamModel:
    def test_prediction_formula(self):
        m = AnalyticalStreamModel(setup=1.0, per_file=0.01, bandwidth=1e6)
        assert m.predict(2e6, 10) == pytest.approx(1.0 + 0.1 + 2.0)

    def test_validation(self):
        with pytest.raises(FitError):
            AnalyticalStreamModel(setup=0.0, per_file=0.0, bandwidth=0.0)
        m = AnalyticalStreamModel(setup=0.0, per_file=0.0, bandwidth=1.0)
        with pytest.raises(FitError):
            m.predict(-1, 0)


class TestCalibration:
    def test_calibrated_primitives_near_ground_truth(self):
        cloud = Cloud(seed=41)
        inst = cloud.launch_instance()
        inst.cpu_factor = inst.io_factor = 1.0
        svc = ExecutionService(cloud, noise_sigma=0.0)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        cat = html_18mil_like(scale=3e-4)
        model = calibrate_stream_model(
            svc, inst, wl, cat,
            probe_volume=100 * MB, small_unit=100 * KB, repeats=3)
        truth = GrepCostProfile()
        # per-file overhead recovered within ~20 %
        assert model.per_file == pytest.approx(truth.per_file_overhead, rel=0.2)
        # bandwidth comes from bonnie: the raw disk number, not grep's
        # effective rate (disk + pattern CPU) — the §4 calibration blind spot
        effective_rate = 1.0 / (1.0 / truth.stream_bandwidth + truth.cpu_per_byte)
        assert model.bandwidth > effective_rate

    def test_calibration_validation(self):
        cloud = Cloud(seed=41)
        inst = cloud.launch_instance()
        svc = ExecutionService(cloud)
        wl = Workload("grep", GrepApplication(), GrepCostProfile())
        cat = html_18mil_like(scale=3e-4)
        with pytest.raises(FitError):
            calibrate_stream_model(svc, inst, wl, cat, probe_volume=100 * MB,
                                   small_unit=100 * KB, repeats=0)
