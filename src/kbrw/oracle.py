"""Exact dynamic programming on integer-lattice laws.

Ground truth for everything the Monte Carlo engine estimates: the
probability that some lineage of length n stays above a linear kill line,
and the probability that a single random walk stays inside an integer
corridor.  Both recursions manipulate probabilities as convex combinations
and products only, so plain double precision is exact to rounding in the
regimes of interest (values stay above ~1e-300).
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
    coeffs = np.asarray(ll.pgf_coeffs)

    def window(j: int) -> tuple[int, int]:
        """Alive sums [lo, hi] at level j; empty (lo = hi + 1) once the line
        outruns every lineage."""
        hi = j * u_max
        lo = max(int(lower[j - 1]), j * u_min) if j >= 1 else 0
        return min(lo, hi + 1), hi

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


def exact_corridor_walk(step_values, step_probs, lower, upper,
                        endpoint: tuple[int, int] | None = None
                        ) -> tuple[float, float | None]:
    """P{an integer walk satisfies lower[i-1] <= S_i <= upper[i-1] for i <= n}.

    Bounds are inclusive; an empty corridor at some level gives probability
    zero (not an error).  Forward DP over the occupation measure restricted
    to the corridor.  Returns ``(prob, endpoint_prob)``: the second value
    further restricts S_n to the window ``endpoint`` and is read off the
    same pass, or is None when no window is given.
    """
    steps = np.asarray(step_values, dtype=np.int64)
    probs = np.asarray(step_probs, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.int64)
    upper = np.asarray(upper, dtype=np.int64)
    if lower.shape != upper.shape:
        raise ValueError("corridor arrays must have equal length")
    empty = (0.0, None if endpoint is None else 0.0)
    n = lower.size
    dist = np.ones(1)
    lo = hi = 0
    for i in range(n):
        nlo, nhi = int(lower[i]), int(upper[i])
        if nlo > nhi:
            return empty
        new = np.zeros(nhi - nlo + 1)
        for y, qy in zip(steps, probs):
            # old states s contribute to s+y; keep the part landing inside
            src_lo = max(lo, nlo - int(y))
            src_hi = min(hi, nhi - int(y))
            if src_lo > src_hi:
                continue
            new[src_lo + int(y) - nlo: src_hi + int(y) - nlo + 1] += \
                qy * dist[src_lo - lo: src_hi - lo + 1]
        dist, lo, hi = new, nlo, nhi
        if not dist.any():
            return empty
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
