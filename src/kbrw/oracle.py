"""Exact dynamic programming on integer-lattice laws.

Ground truth for everything the Monte Carlo engine estimates: the
probability that some lineage of length n stays above a linear kill line,
and the probability that a single random walk stays inside an integer
corridor.  Both recursions carry probabilities, not their complements, so
their error is relative until the values underflow below about 1e-308,
where they return 0:

- the path DP recurses on survival probabilities R, not on extinction
  probabilities Q, so values far below one ulp of 1 keep their digits
  (7.7e-40 at u_line 0.95, n = 300 for binary p = 0.3).  A kill line that
  no lineage can follow gives exactly 0.  Each level's window is trimmed
  at the top: from the first sum whose R has reached g_k, the survival of
  the unkilled process with k generations left, every higher sum reads g_k
  and is not computed.  On the pemantle grid down to eps_U = 0.003 this
  leaves at most 15 of up to 4,500 states per level, and agrees with an
  untrimmed 80-bit evaluation to 1.5e-15 relative.
- the corridor DP carries probabilities forward.  It works run by run:
  the levels of a run share their bounds and so one transfer matrix T,
  and a long run is applied as binary powers of T**64 where that costs
  less than one slice step per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import models
from .analysis import CriticalProfile
from .errors import GridExhausted, LatticeError
from .models import BOUNDARY_TOL, DiscreteFinite, ExplicitFinite, OffspringLaw


@dataclass(frozen=True)
class LatticeLaw:
    """Integer-displacement view of an offspring law.

    Every law carries its offspring pgf.  Product-structured laws add the
    integer step pmf; explicit laws keep their atomic outcomes, since
    displacements within one brood are then dependent.
    """

    pgf_coeffs: tuple[float, ...]
    step_values: tuple[int, ...]
    step_probs: tuple[float, ...] | None
    outcomes: tuple[tuple[tuple[int, ...], float], ...] | None

    @classmethod
    def from_law(cls, law: OffspringLaw) -> "LatticeLaw":
        if not models.is_lattice(law):
            raise LatticeError("exact DP requires finite integer displacements")
        pmf = models.offspring_pmf(law)
        coeffs = [0.0] * (max(k for k, _ in pmf) + 1)
        for k, p in pmf:
            coeffs[k] += p
        if isinstance(law, ExplicitFinite):
            outs = tuple((tuple(int(round(d)) for d in ds), p) for ds, p in law.outcomes)
            values = tuple(sorted({d for ds, _ in outs for d in ds}))
            return cls(tuple(coeffs), values, None, outs)
        step = models.step_law(law)
        assert isinstance(step, DiscreteFinite)
        values = tuple(int(round(v)) for v in step.values)
        return cls(tuple(coeffs), values, tuple(step.probs), None)

    @property
    def u_min(self) -> int:
        return min(self.step_values)

    @property
    def u_max(self) -> int:
        return max(self.step_values)


def _lower_bounds(c: float, n: int) -> np.ndarray:
    """Integer lower bounds ceil(c*i - BOUNDARY_TOL) for i = 1..n: the strictest
    integer constraint, with near-integer thresholds kept inclusive."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.ceil(c * i - BOUNDARY_TOL).astype(np.int64)


def exact_path_survival(ll: LatticeLaw, n: int, *, v_slope: float | None = None,
                        u_line: float | None = None,
                        profile: CriticalProfile | None = None) -> float:
    """P{some lineage of length n satisfies the kill constraint at every level}.

    The constraint is U(x_i) >= u_line * i for all 1 <= i <= n; a centered
    barrier ``V <= v_slope * i`` is translated through the profile via
    u_line = (psi(t*) - v_slope)/t*.  Backward recursion over survival
    probabilities R: a particle at level j with sum s survives iff some
    child is above the kill line and survives, giving
    R_j(s) = H(E_Y[R_{j+1}(s+Y)]) with H(x) = 1 - G_Z(1 - x) =
    x * sum_i P(Z > i) (1 - x)^i for product laws, and
    sum_b p_b (1 - prod_{d in b} (1 - R_{j+1}(s+d))) over broods b for
    explicit laws.  Killed children read 0.
    """
    if (v_slope is None) == (u_line is None):
        raise ValueError("pass exactly one of v_slope / u_line")
    if v_slope is not None:
        if profile is None:
            raise ValueError("a centered-coordinate slope needs the critical profile")
        c = (profile.psi_tstar - v_slope) / profile.t_star
    else:
        c = float(u_line)
    if n <= 0:
        return 1.0

    u_min, u_max = ll.u_min, ll.u_max
    # a line below the lowest step (above the highest) spares (kills) every
    # lineage, as one a unit past that step does; clipping keeps c*i castable
    lower = _lower_bounds(min(max(c, u_min - 1), u_max + 1), n)
    depths = np.arange(1, n + 1)
    if np.any(lower > depths * u_max):
        # the line outruns every lineage
        return 0.0
    span = u_max - u_min + 1
    # lowest alive sum at levels 0..n
    lows = [0] + np.maximum(lower, depths * u_min).tolist()

    # level(child, width): R of ``width`` sums whose step-y children read
    # child[i + y - u_min]
    if ll.outcomes is None:
        # H(m) = m * sum_i d_i (1 - m)^i with tails d_i = P(Z > i) >= 0: every
        # term is nonnegative, so the error stays relative for every m
        d = np.cumsum(ll.pgf_coeffs[:0:-1])[::-1].tolist() or [0.0]
        moves = [(y - u_min, q) for y, q in zip(ll.step_values, ll.step_probs)]

        def level(child: np.ndarray, width: int) -> np.ndarray:
            (o, q), *rest = moves
            m = q * child[o: o + width]
            for o, q in rest:
                m += q * child[o: o + width]
            x = 1.0 - m
            r = np.full(width, d[-1])
            for a in d[-2::-1]:
                r *= x
                r += a
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
    # g_k.  The gap reaches the lowest child of the next level's window.
    gap = max(0, max(a - b for a, b in zip(lows[1:], lows)) - u_min)
    zeros = np.zeros(gap)
    pad = np.ones(span)             # g_0 = 1: every leaf survives
    lo1 = top1 = lows[n]
    child = np.concatenate((zeros, pad))
    fixed = False
    for j in range(n - 1, -1, -1):
        if not fixed:
            # g_{k+1} from a sum whose children all read g_k, by the very
            # operations of the recursion, so that such sums compute to it
            g_next = level(pad, 1)[0]
            fixed = g_next == pad[0]
            pad = np.full(span, g_next)
        lo = lows[j]
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


def rho_limit(ll: LatticeLaw, profile: CriticalProfile, v_slope: float,
              rel_tol: float = 0.01, n_start: int = 128,
              n_max: int = 1 << 20) -> tuple[float, int]:
    """Depth-n survival iterated to its large-n limit.

    Doubles n until the relative change across one doubling falls below
    ``rel_tol`` (the finite-n proxy for the infinite-ray probability);
    returns (value, n at which the rule triggered).
    """
    n = n_start
    prev = exact_path_survival(ll, n, v_slope=v_slope, profile=profile)
    while n < n_max:
        n *= 2
        cur = exact_path_survival(ll, n, v_slope=v_slope, profile=profile)
        if cur > 0.0 and abs(cur - prev) / cur < rel_tol:
            return cur, n
        prev = cur
    raise GridExhausted(f"survival did not stabilize below n = {n_max}")


def gw_survival_to_n(ll: LatticeLaw, n: int) -> float:
    """P{generation n is non-empty} with no barrier, by pgf iteration."""
    coeffs = np.asarray(ll.pgf_coeffs)
    q = 0.0
    for _ in range(n):
        q = float(npoly.polyval(q, coeffs))
    return 1.0 - q


__all__ = [
    "LatticeLaw", "exact_path_survival", "exact_corridor_walk",
    "rho_limit", "gw_survival_to_n",
]
