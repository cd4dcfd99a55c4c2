"""Hierarchical deterministic random streams.

All stochastic behaviour in the reproduction — instance speed heterogeneity,
EBS placement, measurement noise, corpus size draws, text generation — flows
through :class:`RngStream` objects.  Streams are forked by *name*, and a
child stream's seed is derived from ``(parent_seed, name)`` via a stable
hash, so:

* the same campaign seed always reproduces the same end-to-end run, and
* adding a brand-new consumer (a new fork name) never shifts the draws that
  existing consumers observe.  This is the property that keeps every figure
  in ``benchmarks/`` byte-stable as the codebase grows.

The implementation wraps :class:`numpy.random.Generator` (PCG64) and exposes
only the handful of distributions the project needs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RngStream", "stable_seed", "stable_seeds"]


def stable_seed(parent_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``parent_seed`` and a stream name.

    Uses BLAKE2b rather than Python's ``hash`` so the derivation is stable
    across processes and Python versions (``PYTHONHASHSEED`` does not leak
    into results).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(parent_seed.to_bytes(16, "little", signed=False))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def stable_seeds(parent_seed: int, names: Iterable[str]) -> list[int]:
    """``[stable_seed(parent_seed, n) for n in names]``, encoding the parent once.

    A corpus build derives one content seed per file from the same parent.
    Hashing the encoded parent and each name in one constructor call is
    the same BLAKE2b input as :func:`stable_seed`'s two updates, and
    faster than copying a hash state that has absorbed the parent.
    """
    prefix = parent_seed.to_bytes(16, "little", signed=False)
    blake2b, from_bytes = hashlib.blake2b, int.from_bytes
    return [from_bytes(blake2b(prefix + name.encode("utf-8"), digest_size=8).digest(),
                       "little")
            for name in names]


class RngStream:
    """A named, forkable deterministic random stream.

    Parameters
    ----------
    seed:
        Root seed for this stream.
    name:
        Dotted path describing where in the hierarchy this stream lives;
        informational only (shown in ``repr``), the seed is authoritative.
    """

    __slots__ = ("seed", "name", "_gen")

    def __init__(self, seed: int, name: str = "root") -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.name = name
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStream(name={self.name!r}, seed={self.seed})"

    # -- forking ---------------------------------------------------------

    def fork(self, name: str) -> "RngStream":
        """Create an independent child stream.

        Forking is a pure function of ``(self.seed, name)``: it does not
        consume state from this stream, so forks may happen in any order.
        """
        return RngStream(stable_seed(self.seed, name), f"{self.name}.{name}")

    # -- scalar draws ----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from [low, high)."""
        return float(self._gen.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return int(self._gen.integers(low, high + 1))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """One normal draw."""
        return float(self._gen.normal(mean, std))

    def lognormal(self, mean: float, sigma: float) -> float:
        """One lognormal draw (log-space mean/sigma)."""
        return float(self._gen.lognormal(mean, sigma))

    def pareto(self, shape: float) -> float:
        """Standard Pareto draw (support ``[0, inf)``, heavier for small shape)."""
        return float(self._gen.pareto(shape))

    def exponential(self, scale: float) -> float:
        """One exponential draw with the given scale."""
        return float(self._gen.exponential(scale))

    def choice(self, options: Sequence, weights: Sequence[float] | None = None):
        """Pick one element of ``options`` (optionally weighted)."""
        if not len(options):
            raise ValueError("cannot choose from an empty sequence")
        p = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(options),):
                raise ValueError("weights must match options length")
            p = w / w.sum()
        idx = int(self._gen.choice(len(options), p=p))
        return options[idx]

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher–Yates shuffle.

        The permutation depends only on ``len(items)``: a list and a 1-d
        array of the same length are permuted alike.
        """
        self._gen.shuffle(items)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """``k`` distinct indices from ``range(n)`` (without replacement)."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n} without replacement")
        return [int(i) for i in self._gen.choice(n, size=k, replace=False)]

    # -- vector draws ----------------------------------------------------

    def normals(self, mean: float, std: float, size: int) -> np.ndarray:
        """Vector of normal draws."""
        return self._gen.normal(mean, std, size=size)

    def lognormals(self, mean: float, sigma: float, size: int) -> np.ndarray:
        """Vector of lognormal draws."""
        return self._gen.lognormal(mean, sigma, size=size)

    def uniforms(self, low: float, high: float, size: int) -> np.ndarray:
        """Vector of uniform draws."""
        return self._gen.uniform(low, high, size=size)

    def paretos(self, shape: float, size: int) -> np.ndarray:
        """Vector of standard Pareto draws."""
        return self._gen.pareto(shape, size=size)
