"""Graceful degradation: re-pack orphaned work, restate the deadline.

When acquisition fails outright (every zone refusing, retry budget
exhausted) the static plan's bins outnumber the instances that actually
exist.  Silently dropping the orphaned bins would under-report cost and
over-report deadline compliance; raising would throw away the capacity
already bought.  The :class:`DegradationPlanner` does the honest third
thing: spread the orphaned units over the survivors (largest unit onto
the least-loaded bin — the same greedy LPT shape the packers use) and
recompute what deadline the degraded fleet can still promise, using the
predictor's residual spread exactly as §5.2 derives the planning deadline
from the nominal one: ``advisory = predict(v_max) * (1 + a)`` with
``a = 1.29 sigma + mu`` over relative residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.vfs.files import Catalogue

__all__ = ["ReplanResult", "DegradationPlanner"]


@dataclass(frozen=True)
class ReplanResult:
    """Outcome of absorbing orphaned work onto the surviving bins."""

    assignments: tuple[Catalogue, ...]  # units per surviving bin, post-merge
    predicted_times: tuple[float, ...]  # per-bin predicted seconds
    moved_units: int                    # orphans re-homed
    moved_volume: int                   # bytes re-homed
    advisory_deadline: float | None     # residual-adjusted promise, if known

    @property
    def max_predicted(self) -> float:
        """Slowest surviving bin's predicted seconds after the merge."""
        return max(self.predicted_times, default=0.0)


class DegradationPlanner:
    """Re-packs residual work onto survivors after capacity loss.

    ``predictor`` is any ``predict(volume) -> seconds`` model (the fitted
    affine models the planners use); without one, per-bin times scale
    proportionally with the added volume, which keeps the greedy choice
    meaningful but leaves ``advisory_deadline`` unset.
    """

    def __init__(self, predictor=None, *, miss_probability: float = 0.10) -> None:
        self.predictor = predictor
        self.miss_probability = miss_probability
        self.replans: list[ReplanResult] = []

    def _predict(self, volume: int) -> float | None:
        if self.predictor is None:
            return None
        try:
            return float(self.predictor.predict(volume))
        except Exception:
            return None

    def replan(
        self,
        survivors: Sequence[Catalogue],
        orphans: Catalogue,
        *,
        predicted_times: Sequence[float] | None = None,
    ) -> ReplanResult:
        """Spread ``orphans`` over ``survivors``; recompute the promise.

        ``predicted_times`` seeds the per-bin load estimates (falls back
        to the predictor, then to raw volume).  Returns the merged
        assignments in survivor order: each survivor followed by the
        orphans it took, in the order it took them.
        """
        if not survivors:
            raise ValueError("no surviving bins to absorb orphaned work")
        volumes = [units.total_size for units in survivors]
        if predicted_times is not None and len(predicted_times) == len(survivors):
            times = [float(t) for t in predicted_times]
        else:
            times = [self._predict(v) or float(v) for v in volumes]
        # Per-bin seconds-per-byte lets us grow each estimate as units
        # land, without re-querying the predictor inside the loop.
        rates = [t / v if v else 0.0 for t, v in zip(times, volumes)]

        sizes = orphans.sizes().tolist()
        taken: list[list[int]] = [[] for _ in survivors]
        for k in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
            i = min(range(len(survivors)), key=lambda j: times[j])
            taken[i].append(k)
            volumes[i] += sizes[k]
            times[i] += sizes[k] * (rates[i] or _mean(rates))

        advisory = None
        v_max = max(volumes, default=0)
        base = self._predict(v_max)
        if base is not None:
            a = self._adjustment()
            advisory = base * (1.0 + a) if a is not None else base

        result = ReplanResult(
            assignments=tuple(
                Catalogue.concat([units, orphans._take(t, f"{units.name}+orphans")],
                                 name=units.name) if t else units
                for units, t in zip(survivors, taken)),
            predicted_times=tuple(times),
            moved_units=len(sizes),
            moved_volume=sum(sizes),
            advisory_deadline=advisory,
        )
        self.replans.append(result)
        return result

    def _adjustment(self) -> float | None:
        """§5.2 residual adjustment ``a`` for the configured predictor."""
        from repro.core.deadline import adjustment_factor

        try:
            return adjustment_factor(self.predictor,
                                     miss_probability=self.miss_probability)
        except Exception:
            return None


def _mean(xs: Sequence[float]) -> float:
    vals = [x for x in xs if x > 0]
    return sum(vals) / len(vals) if vals else 1.0
