"""Data reshaping: merge small files into preferred-size unit files (§1, §4).

"Using the subset-sum first fit heuristic we reshape the input data by
merging files in order to match as closely as possible the desired file
size."  The output is a catalogue of :class:`~repro.vfs.Segment` unit files
that any text application can consume unmodified (concatenation is
transparent to grep and the tagger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.apps.base import Unit
from repro.packing import subset_sum_layout
from repro.vfs.files import Catalogue, Segment, volume_of

__all__ = ["ReshapePlan", "reshape"]


@dataclass(frozen=True)
class ReshapePlan:
    """The result of reshaping a catalogue.

    ``unit_size`` of ``None`` means the original segmentation was kept (the
    Fig. 7 outcome for the POS workload) and ``units`` is the catalogue
    itself; otherwise the units are segments holding catalogue positions.
    """

    unit_size: int | None
    units: Sequence[Unit]
    n_input_files: int

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def total_size(self) -> int:
        return volume_of(self.units)

    def fill_stats(self) -> dict:
        """How closely unit files match the desired size."""
        if self.unit_size is None or not self.units:
            return {"target": self.unit_size, "mean_fill": None, "min_fill": None}
        fills = np.array([min(1.0, u.size / self.unit_size) for u in self.units])
        return {
            "target": self.unit_size,
            "mean_fill": float(fills.mean()),
            "min_fill": float(fills.min()),
            "oversized_units": int(sum(u.size > self.unit_size for u in self.units)),
        }


def reshape(
    catalogue: Catalogue,
    unit_size: int | None,
    *,
    preserve_order: bool = True,
    name_prefix: str = "reshaped",
) -> ReshapePlan:
    """Merge ``catalogue`` into unit files of ≈``unit_size`` bytes.

    ``unit_size=None`` (or the string label ``"orig"`` upstream) keeps the
    original files untouched.  With ``preserve_order`` the paper's §5.2
    choice is honoured: files are considered "in the order in which they
    are provided" rather than sorted descending, to avoid front-loading
    large files.
    """
    if unit_size is None:
        return ReshapePlan(unit_size=None, units=catalogue,
                           n_input_files=len(catalogue))
    if unit_size <= 0:
        raise ValueError("unit size must be positive")
    # Columnar: pack the cached size column; each segment holds its bin's
    # catalogue positions, so no file object is built.
    layouts = subset_sum_layout(
        catalogue.sizes().tolist(), unit_size,
        preserve_order=preserve_order,
        keys=None if preserve_order else catalogue.paths(),
    )
    units = tuple(Segment.from_layouts(layouts, catalogue, name_prefix, digits=6))
    return ReshapePlan(unit_size=unit_size, units=units,
                       n_input_files=len(catalogue))
