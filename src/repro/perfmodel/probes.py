"""Probe construction and the escalating measurement protocol (§4).

A *probe set* for volume ``V`` contains the head of the catalogue in its
original segmentation (``P^V_orig``) plus reshaped variants ``P^V_s`` for a
range of unit file sizes ``s0..sn``.  Per the paper, the bin packing runs
once at the base size ``s0`` and variants at multiples of ``s0`` are derived
by coalescing consecutive bins; non-multiple sizes are packed directly.

The protocol starts at a small volume, discards measurements that are "too
unstable" (small means, large deviations — dominated by setup overheads),
and escalates the volume by a factor ``k`` until a stable probe set is
obtained or the budget runs out.

Packing goes through a :class:`~repro.packing.cache.PackingCache`: the base
size ``s0`` is packed once per probe volume, multiples of ``s0`` are derived
by coalescing consecutive base bins, and repeated probe-set construction
(re-planning per deadline, protocol re-runs) hits the memo instead of
re-packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cloud.ebs import EbsVolume
from repro.cloud.instance import Instance
from repro.cloud.service import ExecutionService, Workload
from repro.packing import PackingCache
from repro.perfmodel.measurement import DEFAULT_REPEATS, Measurement, ProbeSetResult
from repro.vfs.files import Catalogue

__all__ = ["ProbeSet", "build_probe_set", "ProbeCampaign", "ProtocolResult"]


@dataclass(frozen=True)
class ProbeSet:
    """All variants of one probe volume, ready to run.

    ``"orig"`` is the head slice of the catalogue; every other variant is
    that slice's packed catalogue, whose rows are segments holding
    positions in it.
    """

    volume: int
    variants: dict[str | int, Catalogue]

    def labels(self) -> list[str | int]:
        """Variant labels: ``"orig"`` first, then unit sizes ascending."""
        return ["orig"] + sorted(k for k in self.variants if isinstance(k, int))


def build_probe_set(
    catalogue: Catalogue,
    volume: int,
    unit_sizes: Sequence[int],
    *,
    cache: PackingCache | None = None,
) -> ProbeSet:
    """Construct ``P^V_orig`` and ``P^V_{s}`` for each requested unit size.

    Reuses one base packing for sizes that are multiples of ``unit_sizes[0]``
    (the §4 efficiency trick) and packs other sizes directly.  A shared
    ``cache`` (e.g. a campaign's) additionally memoises across calls, so
    re-building the same probe set packs nothing at all.
    """
    if volume <= 0:
        raise ValueError("probe volume must be positive")
    sizes = sorted(set(int(s) for s in unit_sizes))
    if any(s <= 0 for s in sizes):
        raise ValueError("unit sizes must be positive")
    head = catalogue.head_by_volume(volume)
    variants: dict[str | int, Catalogue] = {"orig": head}
    if not sizes:
        return ProbeSet(volume=volume, variants=variants)

    if cache is None:
        cache = PackingCache()
    s0 = sizes[0]
    for s in sizes:
        # derive_from=s0 routes multiples of the base through bin
        # coalescing and packs non-multiples directly — the seed behaviour,
        # now memoised.
        layouts = cache.pack_layout(head, s, derive_from=s0)
        variants[s] = head._packed(layouts, f"probe_v{volume}_s{s}", digits=5)
    return ProbeSet(volume=volume, variants=variants)


@dataclass
class ProtocolResult:
    """Outcome of the escalating protocol: every probe set measured."""

    probe_sets: list[ProbeSetResult] = field(default_factory=list)
    stable: bool = False


class ProbeCampaign:
    """Runs probe sets on a vetted instance, §4-style.

    Each variant is staged into its own EBS directory (when a volume is
    given), so distinct variants can land on placements of different
    quality — which is both realistic and the mechanism behind the Fig. 5
    spikes.
    """

    def __init__(
        self,
        service: ExecutionService,
        instance: Instance,
        workload: Workload,
        *,
        storage: EbsVolume | None = None,
        repeats: int = DEFAULT_REPEATS,
    ) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.service = service
        self.instance = instance
        self.workload = workload
        self.storage = storage
        self.repeats = repeats
        self.pack_cache = PackingCache()
        self._obs = service.cloud.obs
        self._observations: list[tuple[int, str | int, Measurement]] = []

    # -- low-level -----------------------------------------------------------

    def measure(self, units: Catalogue, directory: str) -> Measurement:
        """Time one probe ``repeats`` times (mean/std recorded).

        The probe's reference work is priced once; each repeat is charged
        with its own setup draw and noise, exactly as ``repeats`` calls of
        :meth:`ExecutionService.run` would be.
        """
        if self.storage is not None:
            self.storage.store(directory)
        obs = self._obs
        # Probe runs advance the simulated clock, so a live span brackets
        # all repeats of this probe on simulated time.
        with obs.tracer.span("perfmodel.probe.measure", cat="perfmodel",
                             track="probes", directory=directory,
                             units=len(units), repeats=self.repeats):
            breakdown = self.workload.price(units)
            values = tuple(
                self.service.charge(
                    self.instance, breakdown, self.workload,
                    storage=self.storage, directory=directory,
                )
                for _ in range(self.repeats)
            )
        if obs.enabled:
            obs.metrics.counter("perfmodel.probe.runs").inc(self.repeats)
        return Measurement(values=values)

    def measure_labeled(self, volume: int, label: str | int,
                        units: Catalogue, directory: str) -> Measurement:
        """Measure one variant and record it as a regression observation."""
        m = self.measure(units, directory)
        self._observations.append((volume, label, m))
        return m

    def run_probe_set(self, probe_set: ProbeSet) -> ProbeSetResult:
        """Measure every variant of one probe set."""
        results: dict[str | int, Measurement] = {}
        for label, units in probe_set.variants.items():
            directory = f"probes/v{probe_set.volume}/{label}"
            m = self.measure(units, directory)
            results[label] = m
            self._observations.append((probe_set.volume, label, m))
        return ProbeSetResult(volume=probe_set.volume, variants=results)

    # -- the §4 protocol -----------------------------------------------------

    def run_protocol(
        self,
        catalogue: Catalogue,
        *,
        initial_volume: int,
        unit_sizes_for,
        growth: int = 5,
        stability_cv: float = 0.25,
        max_rounds: int = 6,
    ) -> ProtocolResult:
        """Escalate probe volume until measurements stabilise.

        ``unit_sizes_for(volume)`` supplies the unit-size sweep for a given
        volume (the paper caps ``sn`` at the probe volume itself).
        """
        if initial_volume <= 0 or growth < 2:
            raise ValueError("need positive initial volume and growth >= 2")
        result = ProtocolResult()
        obs = self._obs
        volume = initial_volume
        for round_no in range(max_rounds):
            sizes = [s for s in unit_sizes_for(volume) if s <= volume]
            ps = build_probe_set(catalogue, volume, sizes, cache=self.pack_cache)
            measured = self.run_probe_set(ps)
            result.probe_sets.append(measured)
            if obs.enabled:
                obs.tracer.instant("perfmodel.protocol.round",
                                   cat="perfmodel", track="probes",
                                   round=round_no, volume=volume,
                                   stable=measured.stable(stability_cv))
                obs.metrics.counter("perfmodel.protocol.rounds").inc()
            if measured.stable(stability_cv):
                result.stable = True
                if obs.enabled:
                    obs.metrics.counter("perfmodel.protocol.stabilised").inc()
                break
            if obs.enabled:
                # Unstable round: its measurements are discarded and the
                # volume escalates (§4's "too unstable" rule).
                obs.metrics.counter("perfmodel.protocol.unstable_rounds").inc()
            if volume >= catalogue.total_size:
                break
            volume = min(volume * growth, catalogue.total_size)
        return result

    # -- model input -----------------------------------------------------------

    def timing_points(self, label: str | int) -> tuple[list[float], list[float]]:
        """Raw per-repeat points for regression: every repeat is a sample."""
        xs: list[float] = []
        ys: list[float] = []
        for v, lab, m in self._observations:
            if lab == label:
                for t in m.values:
                    xs.append(float(v))
                    ys.append(t)
        return xs, ys
