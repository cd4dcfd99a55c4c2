"""Weighted curve fitting (§7 future work).

"To account for the larger standard deviation of measurements at small
data volumes, we can build a performance model using weighted curve
fitting demanding closer fits in the large data volume range and allowing
for looser fits in the small data volume range."

:func:`volume_weighted_fit` weights each point by ``(x/x_max)**power``,
trusting large volumes more simply because they are large.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.regression import AffinePredictor, FitError, fit_affine

__all__ = ["volume_weighted_fit"]


def volume_weighted_fit(x, y, *, power: float = 1.0) -> AffinePredictor:
    """Affine OLS with weights growing with volume."""
    if power < 0:
        raise FitError("power must be non-negative")
    x = np.asarray(x, dtype=float)
    if x.size == 0 or np.any(x <= 0):
        raise FitError("volume weighting requires positive volumes")
    w = (x / x.max()) ** power
    return fit_affine(x, y, weights=w)
