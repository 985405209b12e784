"""Small statistical helpers for the Monte Carlo harness."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .rng import replicate_stream

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval here because the survival
    probabilities of interest sit close to zero, where Wald collapses.
    A count of trials below 1 is refused.
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    p = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # rounding can push a bound past the point estimate by an ulp; the
    # interval must contain it
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def replicate_chunks(seed: int, replicates: int, chunk: int):
    """Yield ``(first, k, rng)`` for consecutive chunks of ``replicates``.

    Chunk c covers replicates ``first .. first + k - 1`` (k <= ``chunk``)
    and draws from ``replicate_stream(seed, c)``, so the chunk size decides
    which stream a replicate reads.  A count below 1 is refused at the call.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    return ((first, min(chunk, replicates - first), replicate_stream(seed, c))
            for c, first in enumerate(range(0, replicates, chunk)))


def replicate_groups(seed: int, replicates: int, chunk: int, group: int):
    """Yield ``(first, k, rngs)`` for consecutive groups of up to ``group`` chunks.

    The chunks and their streams are those of ``replicate_chunks``: a group
    covers replicates ``first .. first + k - 1`` and ``rngs[i]`` is the
    stream of its chunk i.  The group size decides only which chunks share
    array operations, never which stream a replicate reads.
    """
    chunks = replicate_chunks(seed, replicates, chunk)
    while batch := list(islice(chunks, group)):
        yield batch[0][0], sum(k for _, k, _ in batch), [rng for _, _, rng in batch]


def closed_cdf(probs) -> np.ndarray:
    """Cumulative sums of ``probs`` with their final plateau raised to 1.

    Rounding can leave the total an ulp short of 1, and a uniform above it
    would index past the table under ``searchsorted(side="right")``.  Other
    uniforms read the same atom; a trailing zero atom is never drawn.
    """
    cdf = np.cumsum(probs)
    cdf[cdf == cdf[-1]] = 1.0
    return cdf


def mean_stderr(parts, n: int) -> tuple[float, float]:
    """Mean and standard error of ``n`` values given as consecutive 1-D float
    arrays; only a running sum and sum of squares are kept, added part by
    part in order.  The squares are summed by numpy, not by a BLAS dot
    product, whose order of summation depends on its thread count."""
    total = total_sq = 0.0
    for w in parts:
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def chunked_mean(seed: int, replicates: int, chunk: int, draw) -> tuple[float, float]:
    """Mean and standard error of ``replicates`` values sampled chunk by chunk.

    ``draw(rng, k)`` returns the values of the next k replicates as a 1-D
    float array; chunks and streams are those of ``replicate_chunks``.
    """
    return mean_stderr((draw(rng, k) for _, k, rng in replicate_chunks(seed, replicates, chunk)),
                       replicates)


__all__ = ["Z95", "wilson_interval", "replicate_chunks", "replicate_groups",
           "closed_cdf", "mean_stderr", "chunked_mean"]
