"""Long-tailed file-size distributions matching Fig. 1.

Both of the paper's data sets have the same qualitative shape: a body of
small files and a long tail ("The majority of the files are less than 50 kB
and the distribution of the file sizes exhibits a long tail.  The largest
file size is 43 MB").  We model sizes as a lognormal body mixed with a
Pareto tail, truncated at a maximum size — three interpretable parameters
per data set, enough to regenerate the Fig. 1 histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.random import RngStream

__all__ = ["LongTailSizeDistribution"]


@dataclass(frozen=True)
class LongTailSizeDistribution:
    """Mixture of a lognormal body and a Pareto tail, truncated.

    Parameters
    ----------
    body_median:
        Median of the lognormal body, in bytes.
    body_sigma:
        Log-space spread of the body.
    tail_weight:
        Probability mass assigned to the Pareto tail.
    tail_shape:
        Pareto shape (smaller = heavier tail).
    tail_scale:
        Pareto scale in bytes (tail sizes are ``tail_scale * (1 + Pareto)``).
    min_size / max_size:
        Hard truncation bounds (resampling the tail, clipping the body).
    """

    body_median: float
    body_sigma: float
    tail_weight: float
    tail_shape: float
    tail_scale: float
    min_size: int
    max_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.tail_weight <= 1:
            raise ValueError("tail_weight must be in [0, 1]")
        if self.min_size <= 0 or self.max_size < self.min_size:
            raise ValueError("need 0 < min_size <= max_size")
        if self.body_median <= 0 or self.tail_shape <= 0 or self.tail_scale <= 0:
            raise ValueError("distribution parameters must be positive")

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw ``n`` file sizes (int64 bytes, within bounds, deterministic)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        mu = float(np.log(self.body_median))
        body = rng.lognormals(mu, self.body_sigma, n)
        tail = self.tail_scale * (1.0 + rng.paretos(self.tail_shape, n))
        is_tail = rng.uniforms(0.0, 1.0, n) < self.tail_weight
        sizes = np.where(is_tail, tail, body)
        sizes = np.clip(sizes, self.min_size, self.max_size)
        return sizes.astype(np.int64)

    def ensure_max_present(self, sizes: np.ndarray) -> np.ndarray:
        """Force the catalogue maximum to equal ``max_size``.

        The paper quotes exact maxima (43 MB, 705 kB); pinning the largest
        draw keeps the headline statistic honest for any sample size.
        """
        if sizes.size == 0:
            return sizes
        out = sizes.copy()
        out[int(np.argmax(out))] = self.max_size
        return out
