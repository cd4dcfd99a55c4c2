"""Repeated measurements and probe-set results (§4).

"All performance measurements are repeated 5 times and the average and
standard deviation are noted."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["Measurement", "ProbeSetResult", "DEFAULT_REPEATS"]

DEFAULT_REPEATS = 5


@dataclass(frozen=True)
class Measurement:
    """Summary of repeated timings of one probe."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a measurement needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("negative timing")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def cv(self) -> float:
        """Coefficient of variation — the §4 (in)stability signal."""
        return self.std / self.mean if self.mean > 0 else float("inf")

    def is_stable(self, cv_threshold: float = 0.25) -> bool:
        """Stable enough to trust, per the §4 escalation rule."""
        return self.cv <= cv_threshold


@dataclass(frozen=True)
class ProbeSetResult:
    """Measurements for all variants of one probe volume.

    ``variants`` maps a variant label — ``"orig"`` or the unit size in
    bytes as an int — to its measurement.
    """

    volume: int
    variants: Mapping[str | int, Measurement]

    def stable(self, cv_threshold: float = 0.25) -> bool:
        """A probe set is stable when every variant is."""
        return all(m.is_stable(cv_threshold) for m in self.variants.values())
