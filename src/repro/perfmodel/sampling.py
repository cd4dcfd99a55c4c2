"""Random-sample model refits (§5.1 Eq. (2), §5.2 Eq. (4)).

"A possible source of improvement for the predictive power of our
performance model is to consider random samples from our entire data set
and re-estimate our predictor."  Samples are drawn without replacement;
each sample is measured at its full volume and at a few smaller head
subsets ("and a few of their smaller subsets"), then pooled with the
original probe points for a refit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.packing import PackingCache
from repro.perfmodel.probes import ProbeCampaign
from repro.perfmodel.regression import AffinePredictor, fit_affine
from repro.sim.random import RngStream
from repro.vfs.files import Catalogue

__all__ = ["collect_sample_points", "refit_with_samples"]


def collect_sample_points(
    campaign: ProbeCampaign,
    catalogue: Catalogue,
    rng: RngStream,
    *,
    n_samples: int,
    sample_volume: int,
    unit_size: int | None,
    subset_fractions: Sequence[float] = (0.5,),
) -> list[tuple[float, float]]:
    """Measure random samples; returns ``(volume, seconds)`` points.

    ``unit_size=None`` keeps the original segmentation (the POS choice);
    otherwise each sample is reshaped with subset-sum first-fit before
    measuring (the grep choice, "we consider these samples already in the
    chosen 100 MB unit file size").  A sample is packed once, at its full
    volume: its smaller heads are cut from that pack.
    """
    if n_samples < 1 or sample_volume <= 0:
        raise ValueError("need n_samples >= 1 and a positive sample volume")
    for f in subset_fractions:
        if not 0 < f < 1:
            raise ValueError("subset fractions must be in (0, 1)")
    points: list[tuple[float, float]] = []
    taken = np.zeros(len(catalogue), dtype=bool)
    for i in range(n_samples):
        cache = PackingCache()
        sample = catalogue.sample_by_volume(sample_volume, rng.fork(f"sample.{i}"),
                                            exclude=taken)
        taken[sample.positions] = True
        if sample.total_size == 0:
            break
        volumes = [sample.total_size] + [
            int(sample.total_size * f) for f in subset_fractions
        ]
        for v in volumes:
            part = sample.head_by_volume(v)
            if len(part) == 0:
                continue
            if unit_size is None:
                units = part
            else:
                layouts = cache.pack_layout(part, unit_size)
                units = part._packed(layouts, f"sample{i}_v{v}", digits=5)
            m = campaign.measure(units, directory=f"samples/{i}/v{v}")
            points.append((float(part.total_size), m.mean))
    return points


def refit_with_samples(
    base_points: Sequence[tuple[float, float]],
    sample_points: Sequence[tuple[float, float]],
) -> AffinePredictor:
    """Pool probe and sample observations and refit the affine model.

    "Including the new measurements, we obtain another linear fit of good
    quality" — the refit uses *all* observations, not just the samples.
    """
    pts = list(base_points) + list(sample_points)
    if len(pts) < 2:
        raise ValueError("need at least two points to refit")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return fit_affine(xs, ys)
