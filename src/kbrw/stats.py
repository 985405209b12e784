"""Small statistical helpers for the Monte Carlo harness."""

from __future__ import annotations

import math

import numpy as np

from .rng import replicate_stream

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval here because the survival
    probabilities of interest sit close to zero, where Wald collapses.
    """
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # rounding can push a bound past the point estimate by an ulp; the
    # interval must contain it
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def proportion_stderr(p_hat: float, trials: int) -> float:
    if trials <= 0:
        return math.inf
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def replicate_chunks(seed: int, replicates: int, chunk: int):
    """Yield ``(first, k, rng)`` for consecutive chunks of ``replicates``.

    Chunk c covers replicates ``first .. first + k - 1`` (k <= ``chunk``)
    and draws from ``replicate_stream(seed, c)``, so the chunk size decides
    which stream a replicate reads.
    """
    for c, first in enumerate(range(0, replicates, chunk)):
        yield first, min(chunk, replicates - first), replicate_stream(seed, c)


def closed_cdf(probs) -> np.ndarray:
    """Cumulative sums of ``probs`` with their final plateau raised to 1.

    Rounding can leave the total an ulp short of 1, and a uniform above it
    would index past the table under ``searchsorted(side="right")``.  Other
    uniforms read the same atom; a trailing zero atom is never drawn.
    """
    cdf = np.cumsum(probs)
    cdf[cdf == cdf[-1]] = 1.0
    return cdf


def chunked_mean(seed: int, replicates: int, chunk: int, draw) -> tuple[float, float]:
    """Mean and standard error of ``replicates`` values sampled chunk by chunk.

    ``draw(rng, k)`` returns the values of the next k replicates as a 1-D
    float array; chunks and streams are those of ``replicate_chunks``.
    Only a running sum and sum of squares are kept.
    """
    total = total_sq = 0.0
    for _, k, rng in replicate_chunks(seed, replicates, chunk):
        w = draw(rng, k)
        total += float(w.sum())
        total_sq += float(np.dot(w, w))
    mean = total / replicates
    var = max(total_sq / replicates - mean * mean, 0.0) * replicates / max(replicates - 1, 1)
    return mean, math.sqrt(var / replicates)


def regression_slope(x, y) -> float:
    """Least-squares slope of y on x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


__all__ = ["Z95", "wilson_interval", "proportion_stderr", "replicate_chunks",
           "closed_cdf", "chunked_mean", "regression_slope"]
