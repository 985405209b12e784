"""Monte Carlo engine for the killed branching random walk.

Breadth-first simulation in the centered coordinates: a particle at
generation j is removed once its position exceeds ``slope * j``.  Survival
to depth n estimates the finite-depth survival probability; the embedded
two-phase construction samples the offspring count of the minorizing
Galton-Watson tree used in the lower-bound argument.

Particles are flat (owner, position) arrays and per-replicate results are
reductions over the owner index.  Every routine keeps the owners
nondecreasing: roots are numbered in order, a brood follows its parent, and
filters and splits keep order.  So each replicate's particles form one run,
which a group counts by binary search once its populations are large.
Owners are int32, counted from the group's first replicate, and positions
float64, so a particle costs 12 bytes a generation.  A step replaces each
column as soon as its successor exists and forms the children in the
buffer of their displacements.

A chunk of CHUNK replicates is the unit of streams: chunk c reads the
Philox stream (seed, c), so results are bitwise reproducible regardless of
scheduling.  A group of consecutive chunks is the unit of array operations:
every routine advances a group at once, and only the draws stay per chunk,
in the order and amounts the chunk would draw alone.  A group that outgrows
GROUP_BUDGET particles splits in two by chunk; the budget is a memory
setting that never changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .analysis import CriticalProfile
from .errors import GridExhausted
from .models import BOUNDARY_TOL
from .stats import replicate_groups, wilson_interval
from .transform import VLaw

# replicates that share one stream; fixed, because it decides which stream a
# replicate reads
CHUNK = 64
# particles a group of chunks may hold at the start of a generation before it
# splits in two; a memory setting only, since no chunk's draws depend on it
GROUP_BUDGET = 1 << 14
# particles one chunk may hold in the unkilled walk of estimate_M_kappa
POPULATION_GUARD = 10_000_000
# owners per replicate above which a group's populations are counted by one
# binary search per replicate, not by reading every owner; a speed setting only
SEARCH_RATIO = 32


@dataclass(frozen=True)
class BarrierSpec:
    """Linear kill line, in either coordinate system.

    coordinate "V": kill when V(x_j) >  slope * j   (slope = b >= 0)
    coordinate "U": kill when U(x_j) < (gamma - slope) * j   (slope = eps >= 0)

    The one place where the two coordinates meet: with V = -t* U + psi(t*),
    a U line of deficit eps is the V line of slope b = t* eps, and a V line
    of slope b keeps U(x_j) >= ((psi(t*) - b) / t*) j.
    """

    coordinate: str
    slope: float

    def __post_init__(self):
        if self.coordinate not in ("U", "V"):
            raise ValueError("coordinate must be 'U' or 'V'")
        if not self.slope >= 0.0:
            raise ValueError("slope must be >= 0")

    def v_slope(self, profile: CriticalProfile) -> float:
        """The slope b of the line in the centered coordinate V."""
        if self.coordinate == "V":
            return self.slope
        return profile.t_star * self.slope

    def u_line(self, profile: CriticalProfile) -> float:
        """The slope c of the line in the original coordinate: keep when U(x_j) >= c j."""
        return (profile.psi_tstar - self.v_slope(profile)) / profile.t_star


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


def _roots(seed: int, replicates: int):
    """The groups of chunks at generation 0, one root at V = 0 per replicate.

    A group is ``(first, k, rngs, cols)``: replicates ``first .. first + k -
    1``, the streams of its chunks, and a list of per-particle columns
    (owner, then position, then any a routine adds), ordered by chunk, with
    owners counted from ``first``.  A group starts with as many chunks as
    its roots fit in GROUP_BUDGET.
    """
    for first, k, rngs in replicate_groups(seed, replicates, CHUNK,
                                           max(1, GROUP_BUDGET // CHUNK)):
        yield first, k, rngs, [np.arange(k, dtype=np.int32), np.zeros(k)]


def _halves(first: int, k: int, rngs: list, cols: list) -> tuple[tuple, tuple]:
    """A group split in two by chunk.  The second half's columns are copies,
    so they do not keep the whole group's arrays alive while the first half
    runs, and ``cols`` is emptied, so it does not either."""
    mid = len(rngs) // 2
    b = mid * CHUNK
    cut = int(np.searchsorted(cols[0], b))
    head = (first, b, rngs[:mid], [c[:cut] for c in cols])
    tail = (first + b, k - b, rngs[mid:],
            [cols[0][cut:] - b] + [c[cut:].copy() for c in cols[1:]])
    cols.clear()
    return head, tail


def _run(groups, gens: int, step):
    """Advance each group ``gens`` generations and yield it, in chunk order.

    ``step(gen, first, k, rngs, cols)`` returns a group's columns after
    generation ``gen``.  It replaces the entries of ``cols`` in place, so no
    one else holds an old array and each is freed as soon as the step
    replaces it.  A group of several chunks that holds more than
    GROUP_BUDGET particles at the start of a generation splits in two by
    chunk, and each half carries on from that generation.  A yielded
    group's columns are cleared once the next group is asked for, so the
    caller's loop does not hold them while that group runs.
    """
    for first, k, rngs, cols in groups:
        todo = [(0, first, k, rngs, cols)]
        while todo:
            done, first, k, rngs, cols = todo.pop()
            while done < gens:
                if cols[0].size > GROUP_BUDGET and len(rngs) > 1:
                    (first, k, rngs, cols), tail = _halves(first, k, rngs, cols)
                    todo.append((done, *tail))
                    continue
                done += 1
                cols = step(done, first, k, rngs, cols)
            yield first, k, rngs, cols
            cols.clear()


def _advance(sample, vlaw: VLaw, rngs: list, cols: list):
    """One generation of a group: every particle reproduces once.

    Chunk i's particles draw their broods from ``rngs[i]``.  Replaces the
    positions ``cols[1]`` by the children's, in brood order, and every other
    column by its entries repeated by brood, each as soon as its
    replacement exists.  Returns the parents' brood sizes.
    """
    parents = cols[0].size
    ends = cols[0].searchsorted(np.arange(CHUNK, CHUNK * len(rngs) + 1, CHUNK,
                                          dtype=cols[0].dtype))
    counts, children = sample(ends.tolist(), rngs)
    # the children are formed in the displacements' buffer; IEEE addition
    # commutes, so the bits are those of v + v_increment(u)
    vlaw.v_increment(children, out=children)
    if isinstance(counts, int):
        # k strided adds over the (parents, k) view, faster than the
        # np.repeat below and without its child-sized copy
        broods = children.reshape(-1, counts)
        for j in range(counts):
            broods[:, j] += cols[1]
    else:
        children += np.repeat(cols[1], counts)
    cols[1] = children
    for i in (0, *range(2, len(cols))):
        cols[i] = np.repeat(cols[i], counts)
    # a view, where the sampler gave one size for every brood
    return np.broadcast_to(counts, parents)


def _counts(owner: np.ndarray, k: int) -> np.ndarray:
    """Particles of each of a group's replicates 0 .. k - 1, from its
    nondecreasing owners.  ``bincount`` reads every owner and a binary
    search reads log2(owners) of them per replicate, so the search wins
    once there are more than SEARCH_RATIO owners per replicate."""
    if owner.size > SEARCH_RATIO * k:
        return np.diff(owner.searchsorted(np.arange(k + 1, dtype=owner.dtype)))
    return np.bincount(owner, minlength=k)


def _where(mask: np.ndarray, cols: list) -> None:
    """Keep each column's entries where ``mask`` holds, in order, replacing
    the columns in place, each as soon as its filtered copy exists, and
    frees the mask once read (on Python 3.11 and later; before 3.11 the
    caller's frame holds its argument until the call returns).  The columns
    stay as they are where it holds everywhere, as it does for about a third
    of the entries that rows reaching the escape cap filter, and else one
    index array and one ``take`` per column, which beats ``compress`` and
    boolean indexing from about 10^4 entries up."""
    if mask.all():
        return
    kept = np.flatnonzero(mask)
    del mask
    for i in range(len(cols)):
        cols[i] = cols[i].take(kept)


def _killed(vlaw: VLaw, v_slope: float, n: int, escape_cap: float, seed: int,
            replicates: int, peak: np.ndarray):
    """Advance the replicates' roots under the kill line until depth n.

    Yields each group with the (owner, position) columns of its last live
    population, and fills ``peak`` with each replicate's peak population.  A
    replicate whose population reaches escape_cap stops drawing and drops
    its particles; its peak records it.
    """
    sample = models.brood_sampler(vlaw.base)
    pop = np.ones(replicates, dtype=np.int64)
    peak[:] = 1

    def step(gen, first, k, rngs, cols):
        here = pop[first:first + k]
        capped = here >= escape_cap
        if capped.any():
            _where((~capped)[cols[0]], cols)
        if cols[0].size:
            _advance(sample, vlaw, rngs, cols)
            _where(cols[1] <= v_slope * gen + BOUNDARY_TOL, cols)
            here[:] = _counts(cols[0], k)
            np.maximum(peak[first:first + k], here, out=peak[first:first + k])
        return cols

    return _run(_roots(seed, replicates), n, step)


def estimate_rho(vlaw: VLaw, barrier: BarrierSpec, n: int, replicates: int,
                 escape_cap: float = 10_000, seed: int = 0) -> SurvivalEstimate:
    """Wilson-intervalled survival frequency over independent replicates.

    Particles are killed above ``barrier``'s line in the centered
    coordinate V.  Deterministic for a fixed seed whatever the execution
    order.  The escape rule declares a replicate surviving once its
    population reaches escape_cap and stops it there (a cap hit).  The
    induced bias is one-sided: survival is overestimated by at most the
    chance that escape_cap barrier-respecting particles all die out, which
    shrinks as the cap grows.
    """
    return escape_cap_sweep(vlaw, barrier, n, replicates, (escape_cap,), seed)[0]


def escape_cap_sweep(vlaw: VLaw, barrier: BarrierSpec, n: int,
                     replicates: int, caps, seed: int = 0) -> list[SurvivalEstimate]:
    """Sensitivity of the survival estimate to the escape cap.

    Kills on ``barrier`` as ``estimate_rho`` does.  One set of runs under
    the largest cap is read at every cap c: a replicate survives under c if
    it is alive at depth n or its peak population is >= c, and it is a cap
    hit if its peak is >= c.  The runs are therefore coupled pathwise and
    the estimates are exactly non-increasing in the cap.  A flat tail
    across caps certifies the default cap is large enough.
    """
    caps = list(caps)
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    if not caps:
        raise ValueError("caps must hold at least one escape cap")
    if not all(c >= 1 for c in caps):
        raise ValueError("escape_cap must be >= 1 (may be math.inf)")
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    b = barrier.v_slope(vlaw.profile)
    alive = np.zeros(replicates, dtype=bool)
    peak = np.empty(replicates, dtype=np.int64)
    for first, k, _, cols in _killed(vlaw, b, n, max(caps), seed, replicates, peak):
        alive[first:first + k][cols[0]] = True
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
    sample = models.brood_sampler(vlaw.base)
    prefix_max = np.zeros((replicates, j_max))
    alive = np.zeros((replicates, j_max), dtype=bool)
    running = np.zeros(replicates)

    def step(j, first, k, rngs, cols):
        top = running[first:first + k]
        if cols[0].size:
            _advance(sample, vlaw, rngs, cols)
        owner, v = cols
        # the guard holds per chunk, whatever the group
        if v.size > POPULATION_GUARD and np.bincount(owner // CHUNK).max() > POPULATION_GUARD:
            raise GridExhausted("unkilled population exceeded the guard; lower j_max")
        # the replicates with particles, and where each one's run starts
        bounds = owner.searchsorted(np.arange(k + 1, dtype=owner.dtype))
        seen = np.flatnonzero(bounds[1:] > bounds[:-1])
        top[seen] = np.maximum(top[seen], np.maximum.reduceat(v, bounds[seen]))
        prefix_max[first:first + k, j - 1] = top
        alive[first + seen, j - 1] = True
        return cols

    for _ in _run(_roots(seed, replicates), j_max, step):
        pass
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
    sample = models.brood_sampler(vlaw.base)

    def step(gen, first, k, rngs, cols):
        # phase 2: each level-L survivor heads a lineage whose every vertex
        # must stay within `limit` above it; a disqualified lineage drops out
        # with its subtree; cols are (owner, delta, lineage)
        if cols[0].size:
            _advance(sample, vlaw, rngs, cols)
            out_of_bounds = cols[2][cols[1] > limit + BOUNDARY_TOL]
            if out_of_bounds.size:
                qualified = np.ones(int(cols[2][-1]) + 1, dtype=bool)
                qualified[out_of_bounds] = False
                _where(qualified[cols[2]], cols)
        return cols

    def heads():
        # phase 2 reads each chunk's stream where phase 1 left it
        for first, k, rngs, cols in _killed(vlaw, phase1_slope, params.L, math.inf, seed,
                                            replicates, np.empty(replicates, dtype=np.int64)):
            cols[1:] = [np.zeros(cols[0].size), np.arange(cols[0].size)]
            yield first, k, rngs, cols

    out = np.zeros(replicates, dtype=np.int64)
    for first, k, _, cols in _run(heads(), params.n - params.L, step):
        out[first:first + k] = _counts(cols[0], k)
    return out


__all__ = [
    "BarrierSpec", "SurvivalEstimate", "GwEmbedParams",
    "estimate_rho", "escape_cap_sweep",
    "estimate_M_kappa", "simulate_G",
]
