"""Data reshaping: merge small files into preferred-size unit files (§1, §4).

"Using the subset-sum first fit heuristic we reshape the input data by
merging files in order to match as closely as possible the desired file
size."  The output is a packed catalogue: one row per unit file, whose
view is a :class:`~repro.vfs.Segment` that any text application can
consume unmodified (concatenation is transparent to grep and the tagger),
and whose size and stats are columns that pricing and planning read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.packing import subset_sum_layout
from repro.vfs.files import Catalogue

__all__ = ["ReshapePlan", "reshape"]


@dataclass(frozen=True)
class ReshapePlan:
    """The result of reshaping a catalogue.

    ``unit_size`` of ``None`` means the original segmentation was kept (the
    Fig. 7 outcome for the POS workload) and ``units`` is the catalogue
    itself; otherwise ``units`` is the packed catalogue of its segments.
    """

    unit_size: int | None
    units: Catalogue
    n_input_files: int

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def total_size(self) -> int:
        return self.units.total_size

    def fill_stats(self) -> dict:
        """How closely unit files match the desired size."""
        if self.unit_size is None or not self.units:
            return {"target": self.unit_size, "mean_fill": None, "min_fill": None}
        sizes = self.units.sizes()
        fills = np.minimum(sizes / self.unit_size, 1.0)
        return {
            "target": self.unit_size,
            "mean_fill": float(fills.mean()),
            "min_fill": float(fills.min()),
            "oversized_units": int((sizes > self.unit_size).sum()),
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
    # Columnar: pack the cached size column; each packed row holds its
    # bin's catalogue positions, so no file object is built.
    layouts = subset_sum_layout(
        catalogue.sizes().tolist(), unit_size,
        preserve_order=preserve_order,
        keys=None if preserve_order else catalogue.paths(),
    )
    units = catalogue._packed(layouts, name_prefix, digits=6)
    return ReshapePlan(unit_size=unit_size, units=units,
                       n_input_files=len(catalogue))
