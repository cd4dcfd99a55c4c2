"""Empirical performance estimation (§4 and §5 of the paper).

This package implements the paper's measurement methodology *as a user of
the cloud*: it only ever sees measured execution times, never the
simulator's ground-truth cost profiles.

Pipeline:

1. :mod:`repro.perfmodel.probes` builds probe sets ``P^V_orig`` and
   ``P^V_{s0..sn}`` by reshaping the head of the catalogue at several unit
   file sizes, and runs the escalating §4 protocol (discard unstable small
   probes, grow the volume until measurements stabilise);
2. :mod:`repro.perfmodel.selection` picks the preferred unit file size
   (plateau detection, later probe sets preferred);
3. :mod:`repro.perfmodel.regression` fits the paper's candidate predictors
   — linear ``y=ax``, affine ``y=a+bx``, power ``y=ax^b``, exponential
   ``y=a·e^{bx}`` and ``y=x^{a·ln x+b}`` — with the log-space handling the
   paper uses for non-equidistant samples;
4. :mod:`repro.perfmodel.sampling` refits with random samples of the full
   data set (Eq. (2), Eq. (4)).
"""

from repro.perfmodel.measurement import Measurement, ProbeSetResult
from repro.perfmodel.probes import ProbeCampaign, ProbeSet, build_probe_set
from repro.perfmodel.regression import (
    AffinePredictor,
    ExponentialPredictor,
    LinearPredictor,
    PowerPredictor,
    Predictor,
    XLogXPredictor,
    fit_affine,
    fit_all,
    fit_exponential,
    fit_linear,
    fit_power,
    fit_xlogx,
    select_best,
)
from repro.perfmodel.analytical import AnalyticalStreamModel, calibrate_stream_model
from repro.perfmodel.history import HistoricalPredictor
from repro.perfmodel.quality import QualityTracker
from repro.perfmodel.sampling import collect_sample_points, refit_with_samples
from repro.perfmodel.selection import PreferredUnit, preferred_unit_size
from repro.perfmodel.weighted import volume_weighted_fit

__all__ = [
    "Measurement",
    "ProbeSetResult",
    "ProbeCampaign",
    "ProbeSet",
    "build_probe_set",
    "Predictor",
    "LinearPredictor",
    "AffinePredictor",
    "PowerPredictor",
    "ExponentialPredictor",
    "XLogXPredictor",
    "fit_linear",
    "fit_affine",
    "fit_power",
    "fit_exponential",
    "fit_xlogx",
    "fit_all",
    "select_best",
    "collect_sample_points",
    "refit_with_samples",
    "PreferredUnit",
    "preferred_unit_size",
    "QualityTracker",
    "volume_weighted_fit",
    "AnalyticalStreamModel",
    "calibrate_stream_model",
    "HistoricalPredictor",
]
