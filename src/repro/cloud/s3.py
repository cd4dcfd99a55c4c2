"""A Simple-Storage-Service-like object store (§1.1).

"Users can store an unlimited number of objects each of size of up to
5 GB.  Multiple instances can access this storage in parallel with low
latency, which is however higher and more variable than that for EBS
storage volumes."  The experiments stage results through S3 in the
retrieval example, so put/get latency modelling is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.random import RngStream
from repro.units import GB, MB

__all__ = ["S3Object", "S3Store", "S3Error", "MAX_OBJECT_SIZE"]

MAX_OBJECT_SIZE = 5 * GB


class S3Error(RuntimeError):
    """Object-store misuse (oversized object, missing key)."""


@dataclass(frozen=True)
class S3Object:
    key: str
    size: int
    region_name: str


@dataclass
class S3Store:
    """Region-scoped object store with variable transfer latency.

    ``transfer_time`` draws per-request latency: a base round-trip plus a
    bandwidth term, both noisier than EBS (lognormal multiplier).
    """

    region_name: str
    base_latency: float = 0.08          # seconds per request
    bandwidth: float = 40 * MB          # bytes/s sustained
    latency_sigma: float = 0.35         # request-to-request variability
    #: Chaos hook: zero-arg callable returning ``(factor, sigma_boost)``
    #: for the current simulated time — a brownout stretches transfers by
    #: ``factor`` and fattens the latency tail by ``sigma_boost``.  Wired
    #: by the cloud when a fault injector is installed; ``None`` keeps
    #: the undegraded fast path.
    degradation: Callable[[], tuple[float, float]] | None = None
    _objects: dict[str, S3Object] = field(default_factory=dict)

    def put(self, key: str, size: int) -> S3Object:
        """Store an object (size-checked against the 5 GB cap)."""
        if not key:
            raise S3Error("empty key")
        if size < 0 or size > MAX_OBJECT_SIZE:
            raise S3Error(f"object size {size} outside [0, {MAX_OBJECT_SIZE}]")
        obj = S3Object(key=key, size=size, region_name=self.region_name)
        self._objects[key] = obj
        return obj

    def get(self, key: str) -> S3Object:
        """Look up an object by key."""
        if key not in self._objects:
            raise S3Error(f"no such object: {key!r}")
        return self._objects[key]

    def transfer_time(self, size: int, rng: RngStream) -> float:
        """Seconds to move ``size`` bytes in or out of the store."""
        if size < 0:
            raise S3Error("negative transfer size")
        base = self.base_latency + size / self.bandwidth
        sigma = self.latency_sigma
        if self.degradation is not None:
            factor, boost = self.degradation()
            base *= factor
            sigma += boost
        return base * rng.lognormal(0.0, sigma)

    def bulk_transfer_time(self, size: int, n_objects: int,
                           rng: RngStream) -> float:
        """Seconds to move a batch of ``n_objects`` totalling ``size`` bytes.

        The inter-stage data-sharing surface: one round-trip latency per
        object plus one sustained-bandwidth term for the payload, under a
        single lognormal draw — a deliberately coarse-grained cousin of
        :meth:`transfer_time` that stays one RNG draw per batch however
        many objects a stage hands over.  Degradation episodes stretch the
        batch exactly as they stretch individual requests.
        """
        if size < 0:
            raise S3Error("negative transfer size")
        if n_objects < 0:
            raise S3Error("negative object count")
        base = n_objects * self.base_latency + size / self.bandwidth
        sigma = self.latency_sigma
        if self.degradation is not None:
            factor, boost = self.degradation()
            base *= factor
            sigma += boost
        return base * rng.lognormal(0.0, sigma)

    def retrieval_time(self, keys: list[str], rng: RngStream) -> float:
        """Total time to fetch many result objects sequentially.

        Output segmentation is why reshaping "speeds up the task of
        retrieving the results" (§1): per-request latency dominates when
        results are scattered across many small objects.
        """
        return sum(self.transfer_time(self.get(k).size, rng) for k in keys)
