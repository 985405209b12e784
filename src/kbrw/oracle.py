"""Exact dynamic programming on lattice laws, whose displacements lie on a + h Z.

Ground truth for everything the Monte Carlo engine estimates: the
probability that some lineage of length n stays above a linear kill line
U(x_i) >= u_line * i, in the original coordinate, and the probability that
a single random walk stays inside an integer corridor.  Both recursions
carry probabilities, not their complements, so their error is relative
until the values underflow below about 1e-308, where they return 0:

- the path DP recurses on survival probabilities R, not on extinction
  probabilities Q, so values far below one ulp of 1 keep their digits
  (7.7e-40 at u_line 0.95, n = 300 for binary p = 0.3).  A kill line that
  no lineage can follow gives exactly 0.  Each level's window is trimmed
  at the top: from the first sum whose R has reached g_k, the survival of
  the unkilled process with k generations left, every higher sum reads g_k
  and is not computed.  On the pemantle grid down to eps_U = 0.003 this
  leaves at most 15 of up to 4,500 states per level, and agrees with an
  untrimmed 80-bit evaluation to 1.5e-15 relative.  The pass keeps only
  that window and computes each kill bound at its level: one call at
  eps_U = 0.003 peaks at 3.4 kB (tracemalloc) at n = 4,096 and at 262,144.
- the corridor DP carries probabilities forward.  It works run by run:
  the levels of a run share their bounds and so one transfer matrix T,
  and a long run is applied as binary powers of T**64 where that costs
  less than one slice step per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import GridExhausted, LatticeError
from .models import BOUNDARY_TOL, OffspringLaw


@dataclass(frozen=True)
class LatticeLaw:
    """Lattice view of an offspring law: displacements a + h K on its frame.

    Every law carries its offspring pgf and ``models.lattice_frame`` (a, h).
    Product-structured laws add the pmf of the integer step K; explicit laws
    keep their atomic outcomes in K, since displacements within one brood are
    then dependent.  Laws hold no atom of probability 0, and neither does K.
    """

    pgf_coeffs: tuple[float, ...]
    step_values: tuple[int, ...]
    step_probs: tuple[float, ...] | None
    outcomes: tuple[tuple[tuple[int, ...], float], ...] | None
    frame: tuple[float, float]

    @classmethod
    def from_law(cls, law: OffspringLaw) -> "LatticeLaw":
        values, _, noise = models.intensity_atoms(law)
        if noise or (frame := models.lattice_frame(values)) is None:
            raise LatticeError("exact DP requires finite displacements on a lattice a + h Z")
        a, h = frame
        pmf = dict(models.offspring_pmf(law))
        coeffs = [pmf.get(k, 0.0) for k in range(max(pmf) + 1)]
        step = models.step_law(law)
        if step is None:
            outs = tuple((tuple(round((d - a) / h) for d in ds), p) for ds, p in law.outcomes)
            values = tuple(sorted({d for ds, _ in outs for d in ds}))
            return cls(tuple(coeffs), values, None, outs, frame)
        values = tuple(round((v - a) / h) for v in step.values.tolist())
        return cls(tuple(coeffs), values, tuple(step.probs), None, frame)

    @property
    def u_min(self) -> int:
        return min(self.step_values)

    @property
    def u_max(self) -> int:
        return max(self.step_values)


def exact_path_survival(ll: LatticeLaw, n: int, u_line: float) -> float:
    """P{some lineage of length n satisfies the kill constraint at every level}.

    The constraint is U(x_i) >= u_line * i for all 1 <= i <= n, in the
    original coordinate; ``simulate.BarrierSpec.u_line`` gives the line of
    a barrier in either coordinate.  Backward recursion over survival
    probabilities R of the frame's integer sums: a particle at level j with
    sum s survives iff some child is above the kill line and survives, giving
    R_j(s) = H(E_Y[R_{j+1}(s+Y)]) with H(x) = 1 - G_Z(1 - x) =
    x * sum_i P(Z > i) (1 - x)^i for product laws, and
    sum_b p_b (1 - prod_{d in b} (1 - R_{j+1}(s+d))) over broods b for
    explicit laws.  Killed children read 0.  The pass keeps only the window
    below it and computes each level's kill bound when it reaches the level;
    a line that outruns every lineage gives exactly 0.  A negative n or a
    NaN line raises ``ValueError``.

    The zero pad below each window is long enough: at every level j the
    pass slices, low(j + 1) - low(j) <= u_max + 1.  low(j) is
    max(ceil(y_j), j * u_min) with y_j the computed c * j - tol, so it rises
    by at most the larger of ceil(y_{j+1}) - ceil(y_j) and u_min <= u_max.
    A line c > u_max + 1/2 has y_n > n * u_max, so the pass returns 0 at
    level n, before any slice.  Otherwise y_{j+1} - y_j is c plus rounding
    far below 1/2 (while |c| * n < 2^48), so less than u_max + 1, and
    ceil(y_{j+1}) - ceil(y_j) < y_{j+1} - y_j + 1 is at most u_max + 1.  The
    pad holds u_max + 2 - u_min zeros, one more than that needs.
    """
    c = (float(u_line) - ll.frame[0]) / ll.frame[1]     # the line in K: U = a i + h K
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    if math.isnan(c):
        raise ValueError("u_line is NaN")
    u_min, u_max = ll.u_min, ll.u_max
    # a line below the lowest step (above the highest) spares (kills) every
    # lineage, as one a unit past that step does; clipping keeps c*j finite
    c = min(max(c, u_min - 1), u_max + 1)

    def low(j: int) -> int:
        # lowest alive sum at level j; near-integer thresholds stay inclusive
        return max(math.ceil(c * j - BOUNDARY_TOL), j * u_min)

    span = u_max - u_min + 1

    # level(child, width): R of ``width`` sums whose step-y children read
    # child[i + y - u_min]
    if ll.outcomes is None:
        # H(m) = m * sum_i d_i (1 - m)^i with tails d_i = P(Z > i) >= 0: every
        # term is nonnegative, so the error stays relative for every m
        d = list(np.cumsum(ll.pgf_coeffs[:0:-1])[::-1]) or [0.0]
        top, inner, d0 = d[-1], d[-2:0:-1], d[0]
        # numpy scalars, so that no level converts a Python float
        (o0, q0), *moves = [(y - u_min, np.float64(q))
                            for y, q in zip(ll.step_values, ll.step_probs)]

        def level(child: np.ndarray, width: int) -> np.ndarray:
            m = q0 * child[o0: o0 + width]
            for o, q in moves:
                m += q * child[o: o + width]
            if len(d) == 1:
                return top * m
            # Horner in x = 1 - m from top * x, which gives the very products
            # that a vector filled with top would
            x = 1.0 - m
            r = top * x
            for a in inner:
                r += a
                r *= x
            r += d0
            r *= m
            return r
    else:
        broods = [([d - u_min for d in ds], p) for ds, p in ll.outcomes]

        def level(child: np.ndarray, width: int) -> np.ndarray:
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a sure survivor
                logs = np.log1p(-child)
            r = np.zeros(width)
            for offs, p in broods:
                acc = np.zeros(width)
                for o in offs:
                    acc += logs[o: o + width]
                r -= p * np.expm1(acc)
            return r

    # ``child`` holds level j+1: zeros on the ``gap`` sums below lo1 (killed),
    # R on [lo1, top1), then ``pad``, ``span`` copies of the saturation value
    # g_k.  The gap reaches the lowest child of the next level's window: the
    # low bound rises by at most u_max + 1 per sliced level (see above).
    gap = u_max + 2 - u_min
    zeros = np.zeros(gap)
    pad = np.ones(span)             # g_0 = 1: every leaf survives
    lo1 = top1 = low(n)
    child = np.concatenate((zeros, pad))
    fixed = False
    for j in range(n - 1, -1, -1):
        if lo1 > (j + 1) * u_max:
            # the line outruns every lineage at level j+1
            return 0.0
        if not fixed:
            # g_{k+1} from a sum whose children all read g_k, by the very
            # operations of the recursion, so that such sums compute to it
            g_next = level(pad, 1)[0]
            fixed = g_next == pad[0]
            pad = np.full(span, g_next)
        lo = low(j)
        # sums from top1 - u_min up have every child saturated; sums above
        # j * u_max are unreachable
        width = max(min(top1 - u_min, j * u_max + 1) - lo, 0)
        r = level(child[lo + u_min - lo1 + gap:], width)
        # trim where R has reached saturation: R grows with the sum, and
        # any sum that reads g_{k+1} or more has all sums above it within
        # rounding of g_{k+1}
        r = r[:r.searchsorted(g_next)]
        child = np.concatenate((zeros, r, pad))
        lo1, top1 = lo, lo + r.size
    return float(child[gap])


# Powers of a window's transfer matrix T start from T**_BLOCK, built by
# _BLOCK slice steps on the identity.  Squaring from T itself rounds T**2
# once and raises that error to the power levels/2: on the lazy strip at
# n = 1e6 that is 15x the slice steps' own error; from T**64 on, the
# squarings add less than the slice steps do.
_BLOCK = 64
# Costs in multiply-adds of an einsum matrix product: a slice step costs
# about _SLICE_COST per step value (numpy call overhead), plus about 8 per
# entry when it moves a matrix.
_SLICE_COST = 10_000


def _slice_step(dist, lo, hi, nlo, nhi, steps, probs):
    """One level of the walk for each row of ``dist``: mass on [lo, hi]
    moved onto the window [nlo, nhi]."""
    new = np.zeros(dist.shape[:-1] + (nhi - nlo + 1,))
    for y, qy in zip(steps, probs):
        # old states s contribute to s+y; keep the part landing inside
        src_lo = max(lo, nlo - y)
        src_hi = min(hi, nhi - y)
        if src_lo <= src_hi:
            new[..., src_lo + y - nlo: src_hi + y - nlo + 1] += \
                qy * dist[..., src_lo - lo: src_hi - lo + 1]
    return new


def _powering_pays(levels: int, width: int, n_steps: int) -> bool:
    """Whether all but levels % _BLOCK of ``levels`` levels in one window go
    faster as powers of T**_BLOCK: building it, then about
    bit_length(levels // _BLOCK) products of width**3 multiply-adds."""
    blocks = levels // _BLOCK
    build = _BLOCK * n_steps * (_SLICE_COST + 8 * width ** 2)
    return build + blocks.bit_length() * width ** 3 < blocks * _BLOCK * n_steps * _SLICE_COST


def _power_step(dist, lo, hi, steps, probs, blocks):
    """dist @ (T**_BLOCK)**blocks in the window [lo, hi], by binary powering.
    einsum without ``optimize`` sums in one fixed order, so the result does
    not depend on the BLAS thread count."""
    t = np.eye(hi - lo + 1)
    for _ in range(_BLOCK):
        t = _slice_step(t, lo, hi, lo, hi, steps, probs)
    while True:
        if blocks & 1:
            dist = np.einsum("i,ij->j", dist, t)
        blocks >>= 1
        if not blocks:
            return dist
        t = np.einsum("ij,jk->ik", t, t)


def exact_corridor_walk(step_values, step_probs, lower, upper,
                        endpoint: tuple[int, int] | None = None
                        ) -> tuple[float, float | None]:
    """P{an integer walk satisfies lower[i-1] <= S_i <= upper[i-1] for i <= n}.

    Bounds are inclusive; an empty corridor at some level gives probability
    zero (not an error).  Forward DP over the occupation measure restricted
    to the corridor, run by run: a run of r levels with the same bounds
    takes one slice step into its window; the other r - 1 levels are slice
    steps too, or, where that is cheaper, mostly one power of the window's
    transfer matrix.  Returns ``(prob, endpoint_prob)``: the second value further restricts
    S_n to the window ``endpoint`` and is read off the same pass, or is
    None when no window is given.

    Exact for the step probabilities as the doubles it is given, up to
    rounding of about 2e-18 n relative.  Those doubles are the walk that
    runs: the lazy walk's fl(1/3) loses 1 - 3 fl(1/3) ~ 5.55e-17 of mass
    per level, so at n = 10^5 its probabilities sit 5.7e-12 relative below
    those of the walk with exact thirds.
    """
    steps = [int(y) for y in np.asarray(step_values, dtype=np.int64)]
    probs = [float(q) for q in np.asarray(step_probs, dtype=np.float64)]
    lower = np.asarray(lower, dtype=np.int64)
    upper = np.asarray(upper, dtype=np.int64)
    if lower.shape != upper.shape:
        raise ValueError("corridor arrays must have equal length")
    empty = (0.0, None if endpoint is None else 0.0)
    if np.any(lower > upper):
        return empty
    n = lower.size
    # the levels s..e-1 of a run share their bounds
    ends = (np.flatnonzero((lower[1:] != lower[:-1]) | (upper[1:] != upper[:-1])) + 1).tolist()
    if n:
        ends.append(n)
    dist = np.ones(1)
    lo = hi = s = 0
    for e in ends:
        nlo, nhi = int(lower[s]), int(upper[s])
        dist = _slice_step(dist, lo, hi, nlo, nhi, steps, probs)
        lo, hi = nlo, nhi
        levels = e - s - 1
        if _powering_pays(levels, hi - lo + 1, len(steps)):
            dist = _power_step(dist, lo, hi, steps, probs, levels // _BLOCK)
            levels %= _BLOCK
        for _ in range(levels):
            dist = _slice_step(dist, lo, hi, lo, hi, steps, probs)
        if not dist.any():
            return empty
        s = e
    prob = float(dist.sum())
    if endpoint is None:
        return prob, None
    elo, ehi = max(int(endpoint[0]), lo), min(int(endpoint[1]), hi)
    if elo > ehi:
        return prob, 0.0
    return prob, float(dist[elo - lo: ehi - lo + 1].sum())


def rho_limit(ll: LatticeLaw, u_line: float, rel_tol: float = 0.01, n_start: int = 128,
              n_max: int = 1 << 20) -> tuple[float, int]:
    """Depth-n survival iterated to its large-n limit.

    The kill line is U(x_i) >= u_line * i, as in ``exact_path_survival``.
    Doubles n until the relative change across one doubling falls below
    ``rel_tol`` (the finite-n proxy for the infinite-ray probability);
    returns (value, n at which the rule triggered).  Each doubling reruns
    the DP from its own leaf, so the cost is n_start + 2 n_start + ... +
    n_used = 2 n_used - n_start levels, about half of them spent on the
    depths before the last.
    """
    if not 1 <= n_start < n_max:
        raise ValueError(f"n_start = {n_start} leaves no doubling below n_max = {n_max}")
    n = n_start
    prev = exact_path_survival(ll, n, u_line)
    while n < n_max:
        n *= 2
        cur = exact_path_survival(ll, n, u_line)
        if cur > 0.0 and abs(cur - prev) / cur < rel_tol:
            return cur, n
        prev = cur
    raise GridExhausted(f"survival did not stabilize below n = {n_max}")


__all__ = ["LatticeLaw", "exact_path_survival", "exact_corridor_walk", "rho_limit"]
