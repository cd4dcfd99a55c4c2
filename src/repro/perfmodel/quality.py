"""Instance-quality tracking with per-quality predictors (§7 future work).

"A further improvement can be made by tracking the quality of newly
acquired instances and including instance quality likelihood estimates
when devising an execution plan. … we may decide to invest in lightweight
tests to establish the quality of the instances and then use different
predictors for each instance quality level to decide how much data to
send to meet the deadline."

:class:`QualityTracker` buckets instances by their bonnie++ measurement,
accumulates per-bucket timing observations, fits a predictor per bucket,
and answers the planner's question — how many bytes can *this* instance
take by the deadline — bucket-aware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.bonnie import BonnieResult
from repro.perfmodel.regression import FitError, fit_affine
from repro.units import MB

__all__ = ["QualityTracker", "QualityError"]


class QualityError(ValueError):
    """Misconfigured quality bands or unanswerable queries."""


@dataclass
class QualityTracker:
    """Buckets instances by measured disk throughput.

    ``bands`` maps a label to its minimum block-read speed; classification
    picks the fastest band the measurement clears.  Observations are
    tracked per band.
    """

    bands: dict[str, float] = field(default_factory=lambda: {
        "fast": 75 * MB,
        "ok": 55 * MB,
        "slow": 0.0,
    })
    _points: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bands:
            raise QualityError("need at least one quality band")
        if min(self.bands.values()) > 0:
            raise QualityError("lowest band must have threshold 0 (catch-all)")

    # -- classification ------------------------------------------------------

    def classify(self, result: BonnieResult) -> str:
        """Label for a vetting measurement (fastest band it clears)."""
        eligible = [(thr, name) for name, thr in self.bands.items()
                    if result.block_read >= thr]
        return max(eligible)[1]

    # -- per-band models -------------------------------------------------------

    def record(self, label: str, volume: float, seconds: float) -> None:
        """Add a timing observation for an instance of this quality."""
        if label not in self.bands:
            raise QualityError(f"unknown band {label!r}")
        if volume <= 0 or seconds <= 0:
            raise QualityError("observations must be positive")
        self._points.setdefault(label, []).append((float(volume), float(seconds)))

    def predictor_for(self, label: str):
        """Band-specific predictor; pools all bands as a fallback when the
        band has too few points of its own.

        Clustered or noisy observations can make the affine slope
        non-positive (useless for capacity questions); the tracker then
        falls back to a through-origin rate fit, which always has a
        positive slope on positive data.
        """
        pts = self._points.get(label, [])
        if len(pts) < 2 or len({p[0] for p in pts}) < 2:
            pts = [p for band in self._points.values() for p in band]
        if len(pts) < 2:
            raise FitError(f"not enough observations to model band {label!r}")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        model = fit_affine(xs, ys)
        if model.b <= 0:
            from repro.perfmodel.regression import fit_linear

            return fit_linear(xs, ys)
        return model

    def volume_for(self, label: str, deadline: float) -> float:
        """Bytes an instance of this quality processes by ``deadline``."""
        return self.predictor_for(label).inverse(deadline)

    # -- fleet planning -----------------------------------------------------

    def share_out(self, labels: list[str], total_volume: int,
                  deadline: float) -> list[int]:
        """Split ``total_volume`` across a fleet with known quality labels.

        Each instance receives data proportional to what its band can
        handle by the deadline — the §7 "decide how much data to send"
        step.  The shares sum exactly to ``total_volume``.
        """
        if not labels:
            raise QualityError("empty fleet")
        caps = [self.volume_for(lab, deadline) for lab in labels]
        total_cap = sum(caps)
        if total_cap <= 0:
            raise QualityError("fleet has no capacity")
        raw = [total_volume * c / total_cap for c in caps]
        shares = [int(r) for r in raw]
        # distribute the rounding remainder to the largest fractional parts
        remainder = total_volume - sum(shares)
        order = sorted(range(len(raw)), key=lambda i: raw[i] - shares[i],
                       reverse=True)
        for i in order[:remainder]:
            shares[i] += 1
        return shares
