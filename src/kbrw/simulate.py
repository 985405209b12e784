"""Monte Carlo engine for the killed branching random walk.

Breadth-first simulation in the centered coordinates: a particle at
generation j is removed once its position exceeds ``slope * j``.  Survival
to depth n estimates the finite-depth survival probability; the embedded
two-phase construction samples the offspring count of the minorizing
Galton-Watson tree used in the lower-bound argument.

Every routine advances a chunk of CHUNK replicates at once as flat
(owner, position) arrays; chunk c reads the Philox stream (seed, c), so
results are bitwise reproducible regardless of scheduling.  Per-replicate
results are reductions over the owner index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .analysis import CriticalProfile
from .errors import GridExhausted
from .models import BOUNDARY_TOL
from .stats import replicate_chunks, wilson_interval
from .transform import VLaw, barrier_map

# replicates advanced together; fixed, because it decides which stream a
# replicate reads
CHUNK = 64
# particles one chunk may hold in the unkilled walk of estimate_M_kappa
POPULATION_GUARD = 10_000_000


@dataclass(frozen=True)
class BarrierSpec:
    """Linear kill line, in either coordinate system.

    coordinate "V": kill when V(x_j) >  slope * j   (slope = b >= 0)
    coordinate "U": kill when U(x_j) < (gamma - slope) * j   (slope = eps >= 0)
    """

    coordinate: str
    slope: float

    def __post_init__(self):
        if self.coordinate not in ("U", "V"):
            raise ValueError("coordinate must be 'U' or 'V'")
        if not self.slope >= 0.0:
            raise ValueError("slope must be >= 0")

    def v_slope(self, profile: CriticalProfile) -> float:
        if self.coordinate == "V":
            return self.slope
        return barrier_map(self.slope, profile)


@dataclass(frozen=True)
class SurvivalEstimate:
    replicates: int
    survivors: int
    p_hat: float
    ci_low: float
    ci_high: float
    cap_hits: int


@dataclass(frozen=True)
class GwEmbedParams:
    """Parameters of the embedded two-phase Galton-Watson construction.

    Generation-n particles qualify when their path stays below the
    alpha*eps line up to level L and no vertex of the level-L ancestor's
    subtree rises more than (1-alpha)*eps*L above it.  The block
    inequality (1-alpha)*eps*L >= M*(n-L) makes the second phase typical.
    """

    n: int
    eps: float
    alpha: float
    L: int
    M: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.n > self.L >= 1:
            raise ValueError("need n > L >= 1")

    @property
    def satisfies_block_inequality(self) -> bool:
        return (1.0 - self.alpha) * self.eps * self.L >= self.M * (self.n - self.L) - 1e-12


def _advance(vlaw: VLaw, owner: np.ndarray, v: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One generation: every particle at ``v`` reproduces once.

    Returns the children's owners and positions in brood order and the
    brood sizes, by which callers repeat any other per-particle arrays.
    """
    counts, flat = models.sample_broods(vlaw.base, v.size, rng)
    return (np.repeat(owner, counts), np.repeat(v, counts) + vlaw.v_increment(flat),
            counts)


def _killed(vlaw: VLaw, v_slope: float, n: int, escape_cap: float, k: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance k roots under the kill line until depth n or extinction.

    Returns the (owner, position) arrays of the last live population and
    each replicate's peak population.  A replicate whose population reaches
    escape_cap stops drawing and drops its particles; its peak records it.
    """
    owner, v = np.arange(k), np.zeros(k)
    pop = np.ones(k, dtype=np.int64)
    peak = pop.copy()
    for gen in range(1, n + 1):
        capped = pop >= escape_cap
        if capped.any():
            live = ~capped[owner]
            owner, v = owner[live], v[live]
        if v.size == 0:
            break
        owner, v, _ = _advance(vlaw, owner, v, rng)
        keep = v <= v_slope * gen + BOUNDARY_TOL
        # compress, not v[keep]: about 3x faster on populations of 10^5 and up
        owner, v = owner.compress(keep), v.compress(keep)
        pop = np.bincount(owner, minlength=k)
        np.maximum(peak, pop, out=peak)
    return owner, v, peak


def estimate_rho(vlaw: VLaw, barrier: BarrierSpec | float, n: int, replicates: int,
                 escape_cap: float = 10_000, seed: int = 0) -> SurvivalEstimate:
    """Wilson-intervalled survival frequency over independent replicates.

    ``barrier`` is either a BarrierSpec or a bare slope in the centered
    coordinates.  Deterministic for a fixed seed whatever the execution
    order.  The escape rule declares a replicate surviving once its
    population reaches escape_cap and stops it there (a cap hit).  The
    induced bias is one-sided: survival is overestimated by at most the
    chance that escape_cap barrier-respecting particles all die out, which
    shrinks as the cap grows.
    """
    return escape_cap_sweep(vlaw, barrier, n, replicates, (escape_cap,), seed)[0]


def escape_cap_sweep(vlaw: VLaw, barrier: BarrierSpec | float, n: int,
                     replicates: int, caps, seed: int = 0) -> list[SurvivalEstimate]:
    """Sensitivity of the survival estimate to the escape cap.

    One set of runs under the largest cap is read at every cap c: a
    replicate survives under c if it is alive at depth n or its peak
    population is >= c, and it is a cap hit if its peak is >= c.  The runs
    are therefore coupled pathwise and the estimates are exactly
    non-increasing in the cap.  A flat tail across caps certifies the
    default cap is large enough.
    """
    caps = list(caps)
    if not all(c >= 1 for c in caps):
        raise ValueError("escape_cap must be >= 1 (may be math.inf)")
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    b = barrier.v_slope(vlaw.profile) if isinstance(barrier, BarrierSpec) else float(barrier)
    alive = np.zeros(replicates, dtype=bool)
    peak = np.zeros(replicates, dtype=np.int64)
    for first, k, rng in replicate_chunks(seed, replicates, CHUNK):
        owner, _, peak[first:first + k] = _killed(vlaw, b, n, max(caps), k, rng)
        alive[first + owner] = True
    out = []
    for cap in caps:
        cap_hits = int(np.count_nonzero(peak >= cap))
        survivors = int(np.count_nonzero(alive | (peak >= cap)))
        lo, hi = wilson_interval(survivors, replicates)
        out.append(SurvivalEstimate(replicates=replicates, survivors=survivors,
                                    p_hat=survivors / replicates, ci_low=lo, ci_high=hi,
                                    cap_hits=cap_hits))
    return out


def estimate_M_kappa(vlaw: VLaw, j_max: int = 10, replicates: int = 800,
                     seed: int = 0, grid: np.ndarray | None = None) -> tuple[float, float]:
    """Empirical displacement-bound constant M and lower-mass kappa.

    Finds the smallest grid value M such that the running maximum of the
    centered walk over all vertices up to depth j stays below M*j with
    empirical probability >= 1/2 (with 3 sigma slack) for every 1 <= j <=
    j_max, then reports kappa_hat = min_j P{generation j alive and max <=
    M*j} at that M.  The 3 sigma slack is a pragmatic stand-in for the
    existence constant, not a sharp estimate.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    prefix_max = np.zeros((replicates, j_max))
    alive = np.zeros((replicates, j_max), dtype=bool)
    for first, k, rng in replicate_chunks(seed, replicates, CHUNK):
        owner, v = np.arange(k), np.zeros(k)
        running = np.zeros(k)
        for j in range(j_max):
            if v.size:
                owner, v, _ = _advance(vlaw, owner, v, rng)
                if v.size > POPULATION_GUARD:
                    raise GridExhausted("unkilled population exceeded the guard; lower j_max")
                np.maximum.at(running, owner, v)
            prefix_max[first:first + k, j] = running
            alive[first + owner, j] = True
    if grid is None:
        # the largest increment, 6 standard deviations of the normal part past its atom
        values, _, noise = models.intensity_atoms(vlaw.base)
        vmax = max(float(vlaw.v_increment(values).max() + 6.0 * vlaw.t_star * noise), 1e-6)
        grid = np.linspace(0.0, 4.0 * vmax, 401)[1:]
    slack = 3.0 * math.sqrt(0.25 / replicates)
    js = np.arange(1, j_max + 1)
    for m in grid:
        ok = (prefix_max <= m * js + BOUNDARY_TOL).mean(axis=0)
        if np.all(ok >= 0.5 - slack):
            kept = (prefix_max <= m * js + BOUNDARY_TOL) & alive
            kappa_hat = float(kept.mean(axis=0).min())
            return float(m), kappa_hat
    raise GridExhausted("no M on the grid met the 1/2 criterion; vlaw looks mis-certified")


def simulate_G(vlaw: VLaw, params: GwEmbedParams, replicates: int, seed: int = 0,
               strict: bool = True) -> np.ndarray:
    """Sample the first-generation size of the embedded Galton-Watson tree.

    Returns one qualified-descendant count per replicate (zeros included);
    ``np.bincount`` of the result is the offspring histogram.  Iterating
    the construction is distributionally identical, so one generation
    determines the embedded process.  With ``strict`` the block inequality
    is enforced; the relaxed mode exists for brute-force cross-checks at
    parameters outside the lemma's regime.
    """
    if strict and not params.satisfies_block_inequality:
        raise ValueError("(1-alpha)*eps*L >= M*(n-L) fails for these parameters")
    phase1_slope = params.alpha * params.eps
    limit = (1.0 - params.alpha) * params.eps * params.L
    out = np.zeros(replicates, dtype=np.int64)
    for first, k, rng in replicate_chunks(seed, replicates, CHUNK):
        owner, _, _ = _killed(vlaw, phase1_slope, params.L, math.inf, k, rng)
        # phase 2: each level-L survivor heads a lineage whose every vertex
        # must stay within `limit` above it; a disqualified lineage drops out
        # with its subtree
        lineage = np.arange(owner.size)
        delta = np.zeros(owner.size)
        qualified = np.ones(owner.size, dtype=bool)
        for _ in range(params.n - params.L):
            if lineage.size == 0:
                break
            lineage, delta, _ = _advance(vlaw, lineage, delta, rng)
            qualified[lineage[delta > limit + BOUNDARY_TOL]] = False
            keep = qualified[lineage]
            lineage, delta = lineage[keep], delta[keep]
        out[first:first + k] = np.bincount(owner[lineage], minlength=k)
    return out


__all__ = [
    "BarrierSpec", "SurvivalEstimate", "GwEmbedParams",
    "estimate_rho", "escape_cap_sweep",
    "estimate_M_kappa", "simulate_G",
]
