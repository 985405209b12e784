"""Monte Carlo engine for the killed branching random walk.

Breadth-first simulation in the centered coordinates: a particle at
generation j is removed once its position exceeds ``slope * j``.  Survival
to depth n estimates the finite-depth survival probability; the embedded
two-phase construction samples the offspring count of the minorizing
Galton-Watson tree used in the lower-bound argument.

Replicates are independent tasks.  Each owns a Philox stream keyed by
(seed, replicate index), and every aggregate is a commutative reduction,
so results are bitwise reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .analysis import CriticalProfile
from .errors import GridExhausted
from .models import BOUNDARY_TOL
from .rng import StreamPool
from .stats import wilson_interval
from .transform import VLaw, barrier_map


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
    coordinate: str
    slope: float            # in the coordinate above
    n: int
    replicates: int
    survivors: int
    p_hat: float
    ci_low: float
    ci_high: float
    cap_hits: int
    seed: int


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


def _advance(vlaw: VLaw, v: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """One generation: every particle at ``v`` reproduces once.

    Returns the children's positions in brood order and the brood sizes,
    by which callers repeat any per-particle arrays they carry alongside.
    """
    counts, flat = models.sample_broods(vlaw.base, v.size, rng)
    return np.repeat(v, counts) + vlaw.v_increment(flat), counts


def _killed_population(vlaw: VLaw, v_slope: float, n: int, escape_cap: float,
                       rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """Advance the root under the kill line until depth n, extinction or the cap.

    Returns the last live population and the population per generation.
    """
    v = np.zeros(1)
    trace = [1]
    for gen in range(1, n + 1):
        if v.size == 0 or v.size >= escape_cap:
            break
        child_v, _ = _advance(vlaw, v, rng)
        v = child_v[child_v <= v_slope * gen + BOUNDARY_TOL]
        trace.append(v.size)
    return v, trace


def run_killed_brw(vlaw: VLaw, v_slope: float, n: int, escape_cap: float,
                   rng: np.random.Generator) -> tuple[bool, list[int]]:
    """One replicate of the killed walk; returns (survived, population trace).

    The trace holds the live population per generation, starting with the
    root at generation 0.  The
    escape rule declares survival once the population reaches escape_cap
    and truncates the replicate (a cap hit is visible in the trace as a
    final entry >= escape_cap).  The induced bias is one-sided: survival is
    overestimated by at most the chance that escape_cap barrier-respecting
    particles all die out, which shrinks as the cap grows.
    """
    if not escape_cap >= 1:
        raise ValueError("escape_cap must be >= 1 (may be math.inf)")
    v, trace = _killed_population(vlaw, v_slope, n, escape_cap, rng)
    return v.size > 0, trace


def estimate_rho(vlaw: VLaw, barrier: BarrierSpec | float, n: int, replicates: int,
                 escape_cap: float = 10_000, seed: int = 0) -> SurvivalEstimate:
    """Wilson-intervalled survival frequency over independent replicates.

    ``barrier`` is either a BarrierSpec or a bare slope in the centered
    coordinates.  Deterministic for a fixed seed: replicate i draws from
    the (seed, i) stream whatever the execution order.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    if isinstance(barrier, BarrierSpec):
        coordinate, slope = barrier.coordinate, barrier.slope
        b = barrier.v_slope(vlaw.profile)
    else:
        coordinate, slope = "V", float(barrier)
        b = float(barrier)
    pool = StreamPool(seed)
    survivors = 0
    cap_hits = 0
    for i in range(replicates):
        survived, trace = run_killed_brw(vlaw, b, n, escape_cap, pool.rekey(i))
        survivors += survived
        cap_hits += math.isfinite(escape_cap) and trace[-1] >= escape_cap
    lo, hi = wilson_interval(survivors, replicates)
    return SurvivalEstimate(coordinate=coordinate, slope=slope, n=n,
                            replicates=replicates, survivors=survivors,
                            p_hat=survivors / replicates, ci_low=lo, ci_high=hi,
                            cap_hits=cap_hits, seed=seed)


def escape_cap_sweep(vlaw: VLaw, barrier: BarrierSpec | float, n: int,
                     replicates: int, caps, seed: int = 0) -> list[SurvivalEstimate]:
    """Sensitivity of the survival estimate to the escape cap.

    Each cap reuses the same replicate streams, which couples the runs
    pathwise: a replicate declared surviving under a larger cap is also
    declared surviving under any smaller one, so the estimates are exactly
    non-increasing in the cap.  A flat tail across caps certifies the
    default cap is large enough.
    """
    return [estimate_rho(vlaw, barrier, n, replicates, escape_cap=cap, seed=seed)
            for cap in caps]


def estimate_M_kappa(vlaw: VLaw, j_max: int = 10, replicates: int = 800,
                     seed: int = 0, grid: np.ndarray | None = None,
                     population_guard: int = 10_000_000) -> tuple[float, float]:
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
    base = vlaw.base
    prefix_max = np.zeros((replicates, j_max))
    alive = np.zeros((replicates, j_max), dtype=bool)
    pool = StreamPool(seed)
    for i in range(replicates):
        rng = pool.rekey(i)
        v = np.zeros(1)
        running = 0.0
        for j in range(1, j_max + 1):
            if v.size:
                v, _ = _advance(vlaw, v, rng)
                if v.size > population_guard:
                    raise GridExhausted("unkilled population exceeded the guard; lower j_max")
                if v.size:
                    running = max(running, float(v.max()))
            prefix_max[i, j - 1] = running
            alive[i, j - 1] = v.size > 0
    if grid is None:
        atoms = models.intensity_atoms(base)
        if atoms is not None:
            vmax = float(vlaw.v_increment(atoms[0]).max())
        else:
            vmax = float(vlaw.psi_tstar + 6.0 * vlaw.t_star * base.step.stddev)
        vmax = max(vmax, 1e-6)
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
    depth2 = params.n - params.L
    pool = StreamPool(seed)
    out = np.zeros(replicates, dtype=np.int64)
    for i in range(replicates):
        rng = pool.rekey(i)
        v, _ = _killed_population(vlaw, phase1_slope, params.L, math.inf, rng)
        if v.size == 0:
            continue
        # phase 2: per level-L survivor, require every subtree vertex within
        # `limit` above it; disqualified owners drop out with their subtree
        owner = np.arange(v.size)
        delta = np.zeros(v.size)
        qualified = np.ones(v.size, dtype=bool)
        for _ in range(depth2):
            child_delta, counts = _advance(vlaw, delta, rng)
            child_owner = np.repeat(owner, counts)
            bad = child_delta > limit + BOUNDARY_TOL
            if bad.any():
                qualified[np.unique(child_owner[bad])] = False
            keep = qualified[child_owner]
            delta, owner = child_delta[keep], child_owner[keep]
            if delta.size == 0:
                break
        out[i] = delta.size
    return out


__all__ = [
    "BarrierSpec", "SurvivalEstimate", "GwEmbedParams",
    "run_killed_brw", "estimate_rho", "escape_cap_sweep",
    "estimate_M_kappa", "simulate_G",
]
