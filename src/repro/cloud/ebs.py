"""Elastic Block Store volumes with placement-dependent access quality.

Models the §1.1/§5.1 EBS facts the experiments rely on:

* a volume lives in one availability zone and attaches to at most one
  instance at a time (but persists across instances — the §3.1/§7 recovery
  trick of re-attaching a volume to a replacement instance);
* logical volumes are backed by physical placements of varying quality:
  "our probes, while on the same EBS logical storage volume, were placed in
  different locations some of which have a consistently higher access
  time … working with clones of a large sized directory can result in
  performance variations of up to a factor of 3" — the repeatable Fig. 5
  spikes.  Placement quality is a *stable* deterministic function of
  (volume, directory), so re-measuring the same probe reproduces the spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.instance import Instance
from repro.cloud.types import AvailabilityZone
from repro.sim.random import RngStream, stable_seed

__all__ = ["PlacementModel", "EbsVolume", "EbsError"]


class EbsError(RuntimeError):
    """Attachment-rule violations (cross-AZ, double attach, …)."""


@dataclass(frozen=True)
class PlacementModel:
    """Distribution of per-directory access-time multipliers.

    A directory lands on a *bad* placement with probability ``p_bad``; bad
    placements cost a uniform factor in ``bad_range`` (up to the paper's
    observed 3×).  Good placements are exactly 1.0 — the spikes stand out
    from a flat plateau, as in Fig. 5.
    """

    p_bad: float = 0.12
    bad_range: tuple[float, float] = (1.6, 3.0)

    def factor(self, volume_seed: int, directory: str) -> float:
        """Deterministic access-time multiplier for (volume, directory)."""
        rng = RngStream(stable_seed(volume_seed, f"placement:{directory}"))
        if rng.uniform() < self.p_bad:
            return rng.uniform(*self.bad_range)
        return 1.0


@dataclass
class EbsVolume:
    """A persistent block volume.

    Directories are registered with :meth:`store`; each registration pins a
    deterministic placement factor that :class:`ExecutionService` folds
    into I/O time for reads from that directory.
    """

    volume_id: str
    size_gb: int
    zone: AvailabilityZone
    placement_model: PlacementModel = field(default_factory=PlacementModel)
    seed: int = 0
    attached_to: Instance | None = None
    #: Chaos hook: zero-arg callable giving the *current* throughput
    #: multiplier for this volume's zone (degraded-EBS episodes).  The
    #: cloud wires it when a fault injector is installed; ``None`` keeps
    #: the undegraded fast path.
    degradation: Callable[[], float] | None = None
    _directories: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_gb <= 0:
            raise EbsError(f"volume size must be positive, got {self.size_gb}")

    # -- attachment ---------------------------------------------------------

    def attach(self, instance: Instance) -> None:
        """Attach to a running instance in this volume's zone."""
        if self.attached_to is not None:
            raise EbsError(
                f"{self.volume_id} already attached to {self.attached_to.instance_id}"
            )
        if instance.zone != self.zone:
            raise EbsError(
                f"{self.volume_id} is in {self.zone.name}, instance in {instance.zone.name}"
            )
        instance.require_running()
        self.attached_to = instance
        instance.attached_volumes.append(self)

    def detach(self) -> None:
        """Release the volume (idempotent)."""
        if self.attached_to is None:
            return
        inst = self.attached_to
        self.attached_to = None
        if self in inst.attached_volumes:
            inst.attached_volumes.remove(self)

    # -- data placement -------------------------------------------------------

    def store(self, directory: str) -> float:
        """Register a directory; returns its (stable) placement factor.

        Storing the same directory twice returns the same factor; storing a
        *clone* under a new name rolls new placement dice — exactly the
        §5.1 clone observation.
        """
        if not directory:
            raise EbsError("directory name must be non-empty")
        if directory not in self._directories:
            self._directories[directory] = self.placement_model.factor(
                stable_seed(self.seed, self.volume_id), directory
            )
        return self._directories[directory]

    def placement_factor(self, directory: str) -> float:
        """Access-time multiplier for reads from ``directory``."""
        if directory not in self._directories:
            raise EbsError(f"directory {directory!r} not stored on {self.volume_id}")
        return self._directories[directory]

    def access_factor(self, directory: str) -> float:
        """Placement factor times any active degradation episode.

        This is what the execution service folds into I/O time: the
        stable per-directory placement quality, further inflated while a
        chaos scenario degrades this volume's zone.
        """
        f = self.placement_factor(directory)
        if self.degradation is not None:
            f *= self.degradation()
        return f

    def bulk_io_seconds(self, directory: str, size: int, rng: RngStream,
                        *, throughput: float = 60_000_000.0,
                        sigma: float = 0.08) -> float:
        """Seconds to stream ``size`` bytes to or from ``directory``.

        The inter-stage data-sharing surface: sustained sequential
        throughput scaled by :meth:`access_factor` — so a badly-placed
        directory slows a whole stage handoff by the same §5.1 factor a
        probe read sees, and chaos degradation episodes stretch it
        further — under one mild lognormal draw per batch.
        """
        if size < 0:
            raise EbsError("negative transfer size")
        base = (size / throughput) * self.access_factor(directory)
        return base * rng.lognormal(0.0, sigma)
