"""Historical-data runtime prediction (§4's alternative [17]).

"Performance estimation can be done through analytical modeling,
empirically and by relying on historical data [Smith, Foster, Taylor]."
The paper rejects history because the cloud is "volatile and opaque"; this
module implements the approach so the comparison is runnable
(``benchmarks/test_prediction_approaches.py``).

:class:`HistoricalPredictor` is fitted from past runs' (volume, seconds)
points — X6 passes the runs it just made, ``examples/fleet_learning.py``
reads them back from a :class:`~repro.obs.ledger.RunLedger` file — and
predicts by volume interpolation over them, which inherits the quality
mix of whatever instances happened to serve past runs, exactly the
weakness the paper calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.regression import FitError, Predictor, _validate

__all__ = ["HistoricalPredictor"]


@dataclass
class HistoricalPredictor(Predictor):
    """Volume-interpolated predictor over aggregated history.

    Records are bucketed by volume (identical volumes pooled), means are
    made monotone with a running maximum (runtime cannot decrease with
    volume), predictions interpolate between buckets, and extrapolation
    beyond the observed range uses the marginal rate of the outermost
    bucket pair.
    """

    volumes: np.ndarray = field(default=None, repr=False)
    times: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.name = "historical"

    @classmethod
    def from_runs(cls, volumes, seconds) -> "HistoricalPredictor":
        """Fit over past runs given as parallel (bytes, seconds) arrays."""
        x, y = _validate(volumes, seconds, 2)
        if np.any(x <= 0) or np.any(y <= 0):
            raise FitError("past runs need positive volume and time")
        vols = np.unique(x)
        if vols.size < 2:
            raise FitError("history covers a single volume; cannot interpolate")
        means = np.array([float(y[x == v].mean()) for v in vols])
        means = np.maximum.accumulate(means)  # enforce monotone runtime
        p = cls(volumes=vols, times=means)
        p.x, p.y = x, y
        return p

    # -- Predictor interface -------------------------------------------------

    def _rate(self, lo: int, hi: int) -> float:
        dv = self.volumes[hi] - self.volumes[lo]
        dt = self.times[hi] - self.times[lo]
        return dt / dv if dv > 0 else 0.0

    def _f(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.volumes, self.times)
        below = x < self.volumes[0]
        above = x > self.volumes[-1]
        if np.any(below):
            r = self._rate(0, 1)
            out = np.where(
                below,
                np.maximum(0.0, self.times[0] - (self.volumes[0] - x) * r),
                out,
            )
        if np.any(above):
            r = self._rate(-2, -1)
            out = np.where(above, self.times[-1] + (x - self.volumes[-1]) * r, out)
        return out

    def _f_inv(self, y):
        times = self.times
        if y <= times[0]:
            r = self._rate(0, 1)
            if r <= 0:
                raise FitError("history is flat; inverse undefined below range")
            return self.volumes[0] - (times[0] - y) / r
        if y >= times[-1]:
            r = self._rate(-2, -1)
            if r <= 0:
                raise FitError("history is flat; inverse undefined above range")
            return self.volumes[-1] + (y - times[-1]) / r
        return float(np.interp(y, times, self.volumes))

    def inverse(self, y: float) -> float:
        """Volume processable in ``y`` seconds per the history."""
        if y <= 0:
            raise FitError("target time must be positive")
        v = float(self._f_inv(y))
        if v <= 0:
            raise FitError(f"no volume completes in {y}s according to history")
        return v
