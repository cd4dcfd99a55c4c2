"""Campaign-level memoisation of packings (§4's "pack once" discipline).

Probe-set construction re-packs the same catalogue head at many unit sizes
and many heads of one catalogue at the same unit size, and every
provisioning strategy re-packs the data per candidate deadline.  All are
pure functions of ``(size column, unit size)``, so a campaign-scoped
:class:`PackingCache` answers a request by one of three routes before it
runs the packer:

* **exact hits** — a repeat returns the memoised layout immediately;
* **multiples** — a requested size that is a *multiple* of an
  already-packed base size is routed through
  :func:`~repro.packing.subset_sum.derive_multiples_layout` — §4's trick of
  coalescing ``k`` consecutive base bins instead of re-running the packer
  — so ``P^V_s`` probe sets pack once per volume, not once per
  (volume, size) pair;
* **prefix cuts** — when the requested size column is a prefix of one
  already packed directly (not derived) at the same unit size, as a
  smaller head of the same catalogue is,
  :func:`~repro.packing.first_fit.cut_first_fit` cuts that layout: the
  pack of a prefix is the prefix of the pack.  Nested heads built largest
  first therefore pack once per unit size, not once per head.

A route is only taken where it gives the layout the packer would: cuts
come from direct packs only, and a size routed to multiples stays
coalesced.  The packer is the order-preserving subset-sum first-fit, i.e.
:func:`~repro.packing.first_fit.first_fit_layout`.  Keys use
:meth:`Catalogue.fingerprint`, a content hash of the size column.
Layouts are pure functions of the size column, so catalogues with equal
size columns may legitimately share entries.  Returned layouts are shared
objects: treat them as immutable.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs import get_obs
from repro.packing.first_fit import cut_first_fit, first_fit_layout
from repro.packing.index import BinLayout
from repro.packing.subset_sum import derive_multiples_layout

if TYPE_CHECKING:  # pragma: no cover
    from repro.vfs.files import Catalogue

__all__ = ["PackingCache"]

#: The ``heuristic`` label of the ``packing.*`` metrics and spans.
_HEURISTIC = "subset_sum"


class PackingCache:
    """Memoises packings keyed by (catalogue fingerprint, unit size)."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self.max_entries = max_entries
        # key -> (layouts, size column); the column is kept for direct
        # first-fit layouts, which prefix cuts may start from, else None.
        self._store: dict[tuple, tuple[list[BinLayout], np.ndarray | None]] = {}
        self.hits = 0
        self.misses = 0
        self.derived = 0
        self.cut = 0

    def __len__(self) -> int:
        return len(self._store)

    def pack_layout(
        self,
        catalogue: "Catalogue",
        unit_size: int,
        *,
        derive_from: int | None = None,
    ) -> list[BinLayout]:
        """Layout for ``catalogue`` at ``unit_size``, memoised.

        On a miss, if ``unit_size`` is a multiple of a cached base size for
        the same catalogue (the smallest such base, or exactly
        ``derive_from`` when given), the layout is derived by coalescing
        consecutive base bins; otherwise, if the size column is a prefix of
        a direct pack cached at ``unit_size``, that pack is cut; otherwise
        the packer runs.  The result is stored.
        """
        obs = get_obs()
        fp = catalogue.fingerprint()
        key = (fp, unit_size)
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            if obs.enabled:
                obs.metrics.counter("packing.cache.hits",
                                    heuristic=_HEURISTIC).inc()
            return found[0]
        self.misses += 1
        column = None
        layouts = self._derive(fp, unit_size, derive_from)
        if layouts is None:
            column = catalogue.sizes()
            layouts = self._cut(column, unit_size)
        derived = layouts is not None
        if layouts is None:
            if obs.enabled:
                with obs.tracer.span("packing.pack", cat="packing",
                                     track="packing", heuristic=_HEURISTIC,
                                     unit_size=unit_size, n=len(catalogue)):
                    t0 = time.perf_counter()
                    layouts = first_fit_layout(column.tolist(), unit_size)
                    obs.metrics.histogram(
                        "packing.pack.seconds", heuristic=_HEURISTIC
                    ).observe(time.perf_counter() - t0)
            else:
                layouts = first_fit_layout(column.tolist(), unit_size)
        if obs.enabled:
            obs.metrics.counter("packing.cache.misses",
                                heuristic=_HEURISTIC).inc()
            if derived:
                obs.metrics.counter("packing.cache.derived",
                                    heuristic=_HEURISTIC).inc()
            obs.metrics.histogram(
                "packing.layout.bins",
                buckets=(1, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
            ).observe(len(layouts))
        self._remember(key, (layouts, column))
        return layouts

    def _derive(
        self,
        fp: str,
        unit_size: int,
        derive_from: int | None,
    ) -> list[BinLayout] | None:
        if derive_from is not None:
            bases: Sequence[int] = (
                [derive_from] if 0 < derive_from < unit_size
                and unit_size % derive_from == 0 else []
            )
        else:
            bases = sorted(
                s for (f, s) in self._store
                if f == fp and 0 < s < unit_size and unit_size % s == 0
            )
        for base in bases:
            found = self._store.get((fp, base))
            if found is not None:
                k = unit_size // base
                self.derived += 1
                return derive_multiples_layout(found[0], [k])[k]
        return None

    def _cut(self, sizes: np.ndarray, unit_size: int) -> list[BinLayout] | None:
        """Cut the shortest cached direct pack at ``unit_size`` whose size
        column starts with ``sizes``; ``None`` when there is none."""
        k = len(sizes)
        best = None
        for (_, s), (layouts, column) in self._store.items():
            if (s == unit_size and column is not None and len(column) > k
                    and (best is None or len(column) < len(best[1]))
                    and np.array_equal(column[:k], sizes)):
                best = (layouts, column)
        if best is None:
            return None
        self.derived += 1
        self.cut += 1
        return cut_first_fit(best[0], best[1], k)

    def _remember(self, key: tuple,
                  entry: tuple[list[BinLayout], np.ndarray | None]) -> None:
        while len(self._store) >= self.max_entries:
            self._store.pop(next(iter(self._store)))
        self._store[key] = entry

    def stats(self) -> dict:
        """Hit/miss/derive counters (the cache-efficiency bench reads these).

        ``derived`` counts the misses answered from another entry without
        running the packer, by either route; ``cut`` counts the prefix cuts
        among them.
        """
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "derived": self.derived,
            "cut": self.cut,
        }
