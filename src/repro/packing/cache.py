"""Campaign-level memoisation of packings (§4's "pack once" discipline).

Probe-set construction re-packs the same catalogue head at many unit sizes,
and every provisioning strategy re-packs the data per candidate deadline.
Both are pure functions of ``(catalogue, unit size)``, so a campaign-scoped
:class:`PackingCache` removes the repeats:

* exact repeats return the memoised layout immediately;
* a requested size that is a *multiple* of an already-packed base size is
  routed through :func:`~repro.packing.subset_sum.derive_multiples_layout`
  — §4's trick of coalescing ``k`` consecutive base bins instead of
  re-running the packer — so ``P^V_s`` probe sets pack once per volume, not
  once per (volume, size) pair.

The packer is the order-preserving subset-sum first-fit, i.e.
:func:`~repro.packing.first_fit.first_fit_layout`.  Keys use
:meth:`Catalogue.fingerprint`, a content hash of the size column.
Layouts are pure functions of the size column, so catalogues with equal
size columns may legitimately share entries.  Returned layouts are shared
objects: treat them as immutable.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.obs import get_obs
from repro.packing.first_fit import first_fit_layout
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
        self._store: dict[tuple, list[BinLayout]] = {}
        self.hits = 0
        self.misses = 0
        self.derived = 0

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
        consecutive base bins rather than re-packed; otherwise the packer
        runs and the result is stored.
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
            return found
        self.misses += 1
        layouts = self._derive(fp, unit_size, derive_from)
        derived = layouts is not None
        if layouts is None:
            if obs.enabled:
                with obs.tracer.span("packing.pack", cat="packing",
                                     track="packing", heuristic=_HEURISTIC,
                                     unit_size=unit_size, n=len(catalogue)):
                    t0 = time.perf_counter()
                    layouts = first_fit_layout(catalogue.sizes().tolist(),
                                               unit_size)
                    obs.metrics.histogram(
                        "packing.pack.seconds", heuristic=_HEURISTIC
                    ).observe(time.perf_counter() - t0)
            else:
                layouts = first_fit_layout(catalogue.sizes().tolist(),
                                           unit_size)
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
        self._remember(key, layouts)
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
            base_layouts = self._store.get((fp, base))
            if base_layouts is not None:
                k = unit_size // base
                self.derived += 1
                return derive_multiples_layout(base_layouts, [k])[k]
        return None

    def _remember(self, key: tuple, layouts: list[BinLayout]) -> None:
        while len(self._store) >= self.max_entries:
            self._store.pop(next(iter(self._store)))
        self._store[key] = layouts

    def stats(self) -> dict:
        """Hit/miss/derive counters (the cache-efficiency bench reads these)."""
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "derived": self.derived,
        }
