"""Exact dynamic programming on integer-lattice laws.

Ground truth for everything the Monte Carlo engine estimates: the
probability that some lineage of length n stays above a linear kill line,
and the probability that a single random walk stays inside an integer
corridor.  Both recursions use convex combinations and products only, but
their double-precision floors differ:

- the path DP returns 1 - Q from extinction probabilities Q, so its error
  is absolute, about one ulp of 1 (1.1e-16): a value near 1e-13 keeps
  three digits and one below 1e-16 none.  A kill line that no lineage can
  follow gives exactly 0.
- the corridor DP carries probabilities forward, so its error is relative
  until they underflow below about 1e-308, where it returns 0.  It works
  run by run: the levels of a run share their bounds and so one transfer
  matrix T, and a long run is applied as binary powers of T**64 where that
  costs less than one slice step per level.
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
    u_line = (psi(t*) - v_slope)/t*.  Backward recursion over extinction
    probabilities: a particle at level j with sum s dies out iff every child
    is killed or dies out, giving Q_j(s) = G_Z(E_Y[kill or Q_{j+1}(s+Y)])
    for product laws and the outcome-resolved product for explicit laws.
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

    lower = _lower_bounds(c, n)
    u_min, u_max = ll.u_min, ll.u_max
    if np.any(lower > np.arange(1, n + 1) * u_max):
        # the line outruns every lineage: exactly zero, where 1 - Q would
        # land within an ulp of it on either side
        return 0.0
    coeffs = np.asarray(ll.pgf_coeffs)

    def window(j: int) -> tuple[int, int]:
        """Alive sums [lo, hi] at level j."""
        return (max(int(lower[j - 1]), j * u_min) if j >= 1 else 0), j * u_max

    # Q over the alive window at level j+1; starts at the leaves (survive).
    lo1, hi1 = window(n)
    q_next = np.zeros(hi1 - lo1 + 1)

    for j in range(n - 1, -1, -1):
        lo, hi = window(j)
        width = hi - lo + 1
        # Children of sums lo..hi land in [lo + u_min, hi1], as hi + u_max == hi1:
        # killed (1.0) below lo1, Q from lo1 on; step y reads sums lo+y..hi+y.
        # base < lo + u_min only where rounding of the kill line lifts
        # lower[j - 1] by one, so that lo1 < lo + u_min.
        base = min(lo + u_min, lo1)
        fail = np.ones(hi1 - base + 1)
        fail[lo1 - base:] = q_next

        def child_fail(y: int) -> np.ndarray:
            return fail[lo + y - base: lo + y - base + width]

        if ll.outcomes is None:
            w = np.zeros(width)
            for y, qy in zip(ll.step_values, ll.step_probs):
                w += qy * child_fail(y)
            q = npoly.polyval(w, coeffs)
        else:
            q = np.zeros(width)
            for ds, p in ll.outcomes:
                prod = np.ones(width)
                for d in ds:
                    prod = prod * child_fail(d)
                q += p * prod
        q_next, lo1, hi1 = q, lo, hi

    return float(1.0 - q_next[0])


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
