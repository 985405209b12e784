"""The size-biased spine walk and empirical many-to-one verification.

Under the centered transformation, expectations of sums over generation-n
particles weighted by exp(-V) equal plain expectations of one tilted walk,
whose step law reweights each child displacement by exp(-v) and whose
attached child counts are size-biased.  This module builds that tilted law
in closed form, samples it, and cross-checks the identity by two
independent Monte Carlo routes plus an exact forward pass on finite laws.

The functional library is fixed and enumerable rather than accepting
arbitrary closures, so every identity check can also be evaluated exactly.
All three routes carry one flag per path, ``admit`` it level by level and
``weight`` it at the end, with the same comparisons.  The spine route draws
its paths one level at a time (``sample_spine_step``), so estimates at two
depths share the paths' common steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import models
from .errors import CertificationError
from .models import OffspringLaw
from .simulate import CHUNK, _advance, _roots, _run
from .stats import chunked_mean, closed_cdf, mean_stderr
from .transform import VLaw

MEAN_TOL = 1e-12
VAR_TOL = 1e-10
_CHUNK = 8192  # replicate grouping for spine sampling; fixed so results
               # are independent of scheduling


@dataclass(frozen=True)
class SpineLaw:
    """Joint law of one spine step: (increment S_1, parent child count nu_0).

    An atom table (s, nu, prob) plus an independent N(0, noise^2) part of s:
    the exp(-V) tilt of the law's ``models.child_atoms``, one row per child
    atom.  Finite steps have noise 0; a Gaussian step N(mu, sd) puts its
    tilted mean at each child count, with noise t* sd.  Product families
    make s and nu independent (the tilt factorizes); explicit families make
    them joint.
    """

    vlaw: VLaw
    s_values: np.ndarray
    nu_values: np.ndarray
    probs: np.ndarray
    noise: float
    s_mean: float
    s_var: float    # second moment

    @cached_property
    def cdf(self) -> np.ndarray:
        return closed_cdf(self.probs)


def make_spine(vlaw: VLaw) -> SpineLaw:
    """The tilted step as an atom table plus a normal part, certified against
    the profile: its mean must be 0 and its second moment sigma^2.

    A child at atom u with a N(0, noise^2) part has V = v(u) - t* noise Z.
    Under the exp(-V) tilt Z gains mean t* noise, so the atom moves to
    s = v(u + noise^2 t*), its weight w becomes w exp(-s - (t* noise)^2/2)
    and the normal part of s is t* noise, for finite and Gaussian steps alike.
    """
    u, nu, w, noise = models.child_atoms(vlaw.base)
    s, tau = vlaw.v_increment(u + noise * noise * vlaw.t_star), vlaw.t_star * noise
    probs = w * np.exp(-s - 0.5 * tau * tau)
    probs /= probs.sum()   # total is E[sum e^{-V}] = 1 up to certification residual
    s_mean = float(np.dot(probs, s))
    s_var = float(np.dot(probs, s * s)) + tau * tau  # second moment
    if abs(s_mean) > MEAN_TOL:
        raise CertificationError(f"spine step mean {s_mean:.3e} is not 0")
    if abs(s_var - vlaw.profile.sigma2) > VAR_TOL:
        raise CertificationError(
            f"spine step second moment {s_var!r} != sigma^2 {vlaw.profile.sigma2!r}")
    return SpineLaw(vlaw, s, nu, probs, tau, s_mean, s_var)


def sample_spine_step(sp: SpineLaw, k: int, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One level of k i.i.d. spine paths: increments S_i - S_{i-1} and counts nu_{i-1}."""
    idx, inc = models._draw_atoms(sp.cdf, sp.s_values, sp.noise, [k], [rng])
    return inc, sp.nu_values[idx]


# ---------------------------------------------------------------------------
# functional library

@dataclass(frozen=True)
class PathFunctional:
    """F = prod_i 1{keep(i, S_i, nu_{i-1})} * end(S_n); a missing part is 1."""

    name: str
    label: str
    keep: Callable[[int, np.ndarray, np.ndarray], np.ndarray] | None = None
    end: Callable[[np.ndarray], np.ndarray] | None = None

    def admit(self, ok: np.ndarray, i: int, s: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return ok if self.keep is None else ok & self.keep(i, s, nu)

    def weight(self, ok: np.ndarray, s_n: np.ndarray) -> np.ndarray:
        return ok * (1.0 if self.end is None else self.end(s_n))


def functional(name: str, **params) -> PathFunctional:
    """Instantiate a library functional by id.

    one                      F = 1
    below_line(slope)        F = 1{S_i <= slope*i for all i}
    band(half_width)         F = 1{|S_i| <= half_width for all i}
    exp_capped(u, cap)       F = exp(min(u*S_n, cap))
    below_line_maxnu(slope, r)   below_line times 1{nu_{i-1} <= r for all i}
    """
    if name == "one":
        return PathFunctional("one", "1")
    if name == "below_line":
        slope = params["slope"]
        return PathFunctional("below_line", f"1{{S_i <= {slope}*i}}",
                              keep=lambda i, s, nu: s <= slope * i)
    if name == "band":
        w = params["half_width"]
        return PathFunctional("band", f"1{{|S_i| <= {w}}}", keep=lambda i, s, nu: np.abs(s) <= w)
    if name == "exp_capped":
        u, cap = params.get("u", 1.0), params.get("cap", 2.0)
        return PathFunctional("exp_capped", f"exp(min({u}*S_n, {cap}))",
                              end=lambda s: np.exp(np.minimum(u * s, cap)))
    if name == "below_line_maxnu":
        slope, r = params["slope"], params["r"]
        return PathFunctional("below_line_maxnu", f"1{{S_i <= {slope}*i, nu <= {r}}}",
                              keep=lambda i, s, nu: (s <= slope * i) & (nu <= r))
    raise ValueError(f"unknown functional id {name!r}")


# ---------------------------------------------------------------------------
# the two Monte Carlo routes and the exact route

def expected_leaf_sum_exact(vlaw: VLaw, n: int, func: PathFunctional) -> float:
    """E[sum over |x|=n of e^{-V(x)} F(path)] by one forward pass over displacement sums.

    Uses only linearity of expectation over the branching structure: level i
    holds the distinct sums U of i child displacements, each with the summed
    intensity weights of the admitted paths to it; all of them read the same
    S_i = i psi(t*) - t* U.  Independent of the tilted-walk construction it validates.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    u, nu, w, noise = models.child_atoms(vlaw.base)
    if noise > 0:
        raise ValueError("the exact value needs finite displacement support")
    sums, mass = np.zeros(1), np.ones(1)
    for i in range(1, n + 1):
        child = (sums[:, None] + u).ravel()
        s = i * vlaw.psi_tstar - vlaw.t_star * child
        ok = func.admit(np.ones(child.size, dtype=bool), i, s, np.tile(nu, sums.size))
        sums, inverse = np.unique(child[ok], return_inverse=True)
        mass = np.bincount(inverse, weights=np.outer(mass, w).ravel()[ok])
    s = n * vlaw.psi_tstar - vlaw.t_star * sums
    return float(np.dot(mass, np.exp(-s) * func.weight(np.ones(sums.size, dtype=bool), s)))


def tree_many_to_one_lhs(vlaw: VLaw, n: int, func: PathFunctional,
                         replicates: int, seed: int = 0) -> tuple[float, float]:
    """MC estimate of E[sum_{|x|=n} e^{-V(x)} F(path)] by direct tree simulation."""
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    sample = models.brood_sampler(vlaw.base)

    def step(i, first, k, rngs, cols):
        counts = _advance(sample, vlaw, rngs, cols)
        cols[2] = func.admit(cols[2], i, cols[1], np.repeat(counts, counts))
        return cols

    roots = ((first, k, rngs, cols + [np.ones(k, dtype=bool)])
             for first, k, rngs, cols in _roots(seed, replicates))
    w = np.empty(replicates)
    for first, k, _, (owner, v, ok) in _run(roots, n, step):
        w[first:first + k] = np.bincount(owner, weights=np.exp(-v) * func.weight(ok, v),
                                         minlength=k)
    # summed chunk by chunk, as chunked_mean sums its draws
    return mean_stderr((w[i:i + CHUNK] for i in range(0, replicates, CHUNK)), replicates)


def spine_many_to_one_rhs(sp: SpineLaw, n: int, func: PathFunctional,
                          replicates: int, seed: int = 0) -> tuple[float, float]:
    """MC estimate of E[F(S_1..S_n, nu_0..nu_{n-1})] by spine sampling.

    Each chunk draws its paths one level at a time, so path j of a chunk
    reads the same first n steps at every depth n.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")

    def draw(rng, k):
        s, ok = np.zeros(k), np.ones(k, dtype=bool)
        for i in range(1, n + 1):
            inc, nu = sample_spine_step(sp, k, rng)
            s += inc
            ok = func.admit(ok, i, s, nu)
        return func.weight(ok, s)

    return chunked_mean(seed, replicates, _CHUNK, draw)


@dataclass(frozen=True)
class CheckReport:
    functional: str
    n: int
    replicates: int
    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    exact: float | None
    passed: bool
    vacuous: bool
    exact_in_lhs: bool | None
    exact_in_rhs: bool | None


def many_to_one_check(law: OffspringLaw, vlaw: VLaw, sp: SpineLaw, n: int,
                      func: PathFunctional, replicates: int,
                      seed: int = 0) -> CheckReport:
    """Verify the many-to-one identity for one functional by two MC routes.

    The two estimates pass when their 3-standard-error intervals overlap.
    The exact value is also computed and located against both intervals;
    it is None when the step has a normal part.  A functional with zero
    variance on both routes is reported vacuous.  Raises ValueError
    unless ``sp`` was built from ``vlaw`` and ``vlaw`` from ``law``.
    """
    if sp.vlaw != vlaw or vlaw.base != law:
        raise ValueError("the spine must be built from vlaw, and vlaw from law")
    lhs, lse = tree_many_to_one_lhs(vlaw, n, func, replicates, seed)
    rhs, rse = spine_many_to_one_rhs(sp, n, func, replicates, seed + 1)
    exact = in_l = in_r = None
    if sp.noise == 0:
        exact = expected_leaf_sum_exact(vlaw, n, func)
        in_l = abs(exact - lhs) <= 3.0 * lse or lse == 0.0
        in_r = abs(exact - rhs) <= 3.0 * rse or rse == 0.0
    vacuous = lse == 0.0 and rse == 0.0
    passed = abs(lhs - rhs) <= 3.0 * (lse + rse) + (1e-12 if vacuous else 0.0)
    return CheckReport(functional=func.label, n=n, replicates=replicates,
                       lhs_mean=lhs, lhs_stderr=lse, rhs_mean=rhs, rhs_stderr=rse,
                       exact=exact, passed=passed, vacuous=vacuous,
                       exact_in_lhs=in_l, exact_in_rhs=in_r)


__all__ = [
    "SpineLaw", "make_spine", "sample_spine_step",
    "PathFunctional", "functional",
    "expected_leaf_sum_exact", "tree_many_to_one_lhs", "spine_many_to_one_rhs",
    "CheckReport", "many_to_one_check",
]
