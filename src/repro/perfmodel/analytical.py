"""Analytical (white-box) runtime modelling (§4's alternative [3, 13]).

The PACE-style approach: decompose runtime into primitive resource costs
measured by microbenchmarks, then compose a closed-form prediction.  For a
streaming text tool:

``t(V, n_files) = setup + n_files·c_open + V / bw``

where ``bw`` comes from a bonnie pass and ``(setup, c_open)`` from two
differential probes.  The paper prefers the empirical model because the
cloud's characteristics are "volatile and opaque" — an analytical model
calibrated in one corner (one placement, one instant) silently carries
those conditions into every prediction.  The comparison bench quantifies
that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.bonnie import bonnie_probe
from repro.cloud.ebs import EbsVolume
from repro.cloud.instance import Instance
from repro.cloud.service import ExecutionService, Workload
from repro.perfmodel.probes import build_probe_set
from repro.perfmodel.regression import FitError
from repro.vfs.files import Catalogue

__all__ = ["AnalyticalStreamModel", "calibrate_stream_model"]


@dataclass(frozen=True)
class AnalyticalStreamModel:
    """Closed-form model for streaming tools (grep/extract)."""

    setup: float                # seconds per run
    per_file: float             # seconds per file opened
    bandwidth: float            # bytes per second sustained

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise FitError("bandwidth must be positive")
        if self.per_file < 0 or self.setup < 0:
            raise FitError("cost primitives must be non-negative")

    def predict(self, volume: float, n_files: int) -> float:
        """Closed-form seconds for ``volume`` bytes over ``n_files`` files."""
        if volume < 0 or n_files < 0:
            raise FitError("volume and file count must be non-negative")
        return self.setup + n_files * self.per_file + volume / self.bandwidth


def calibrate_stream_model(
    service: ExecutionService,
    instance: Instance,
    workload: Workload,
    catalogue: Catalogue,
    *,
    probe_volume: int,
    small_unit: int,
    storage: EbsVolume | None = None,
    repeats: int = 3,
) -> AnalyticalStreamModel:
    """Measure the three primitives with microbenchmarks.

    * ``bandwidth`` — one bonnie pass (block read);
    * ``per_file`` — differential probe: the same volume as one big unit
      vs many ``small_unit`` files; the time difference is pure per-file
      overhead;
    * ``setup`` — the big-unit probe time minus its streaming share.
    """
    if repeats < 1:
        raise FitError("repeats must be >= 1")
    bw = bonnie_probe(service.cloud, instance).block_read

    ps = build_probe_set(catalogue, probe_volume, [small_unit, probe_volume])
    big_units = ps.variants[probe_volume]
    small_units = ps.variants[small_unit]
    volume = big_units.total_size

    def measure(units, directory):
        if storage is not None:
            storage.store(directory)
        breakdown = workload.price(units)
        vals = [service.charge(instance, breakdown, workload, storage=storage,
                               directory=directory) for _ in range(repeats)]
        return sum(vals) / len(vals)

    t_big = measure(big_units, "analytical/big")
    t_small = measure(small_units, "analytical/small")

    n_big = len(big_units)
    n_small = len(small_units)
    if n_small <= n_big:
        raise FitError("small-unit probe did not increase the file count")
    per_file = max(0.0, (t_small - t_big) / (n_small - n_big))
    setup = max(0.0, t_big - volume / bw - n_big * per_file)
    return AnalyticalStreamModel(setup=setup, per_file=per_file, bandwidth=bw)
