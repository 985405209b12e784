"""The size-biased spine walk and empirical many-to-one verification.

Under the centered transformation, expectations of sums over generation-n
particles weighted by exp(-V) equal plain expectations of one tilted walk,
whose step law reweights each child displacement by exp(-v) and whose
attached child counts are size-biased.  This module builds that tilted law
in closed form, samples it, and cross-checks the identity by two
independent Monte Carlo routes plus exact path enumeration at small depth.

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
from .models import DiscreteFinite, ExplicitFinite, Gaussian, OffspringLaw, ProductLaw
from .simulate import CHUNK, _advance
from .stats import chunked_mean, closed_cdf
from .transform import VLaw

MEAN_TOL = 1e-12
VAR_TOL = 1e-10
_CHUNK = 8192  # replicate grouping for spine sampling; fixed so results
               # are independent of scheduling
_ENUM_BUDGET = 1 << 21   # paths expected_leaf_sum_exact may enumerate


@dataclass(frozen=True)
class SpineLaw:
    """Joint law of one spine step: (increment S_1, parent child count nu_0).

    Finite families carry one atom table (s, nu, prob): each per-child
    intensity atom of ``_joint_child_atoms`` reweighted by exp(-s).  For
    product families the two coordinates are independent (the tilt
    factorizes); explicit families make them genuinely joint.
    """

    vlaw: VLaw
    s_values: np.ndarray | None      # joint atoms (finite families)
    nu_values: np.ndarray | None
    probs: np.ndarray | None
    gauss_s: tuple[float, float] | None   # (mean, std) of S_1 for Gaussian steps
    gauss_nu: tuple[np.ndarray, np.ndarray] | None
    s_mean: float
    s_var: float

    @property
    def sigma2(self) -> float:
        return self.vlaw.profile.sigma2

    @cached_property
    def cdf(self) -> np.ndarray:
        """Closed cdf of the atom table, or of the counts for Gaussian steps."""
        return closed_cdf(self.probs if self.gauss_nu is None else self.gauss_nu[1])


def _size_biased_pmf(law: OffspringLaw) -> tuple[np.ndarray, np.ndarray]:
    pmf = models.offspring_pmf(law)
    m = models.mean_children(law)
    ks = np.array([k for k, _ in pmf], dtype=np.int64)
    ps = np.array([k * p / m for k, p in pmf])
    keep = ps > 0
    return ks[keep], ps[keep] / ps[keep].sum()


def make_spine(vlaw: VLaw) -> SpineLaw:
    """Exact tilted distributions for the spine, certified against the profile."""
    base = vlaw.base
    if isinstance(base, ProductLaw) and isinstance(base.step, Gaussian):
        t, psi = vlaw.t_star, vlaw.psi_tstar
        mu, sd = base.step.mean, base.step.stddev
        tilted_mean_y = mu + sd * sd * t
        ms = -t * tilted_mean_y + psi
        ss = t * sd
        nu = _size_biased_pmf(base)
        s_mean, s_var = ms, ms * ms + ss * ss  # second moment
        sp = SpineLaw(vlaw, None, None, None, (ms, ss), nu, s_mean, s_var)
    else:
        s, nu, w = _joint_child_atoms(vlaw)
        probs = w * np.exp(-s)
        probs /= probs.sum()   # total is E[sum e^{-V}] = 1 up to certification residual
        s_mean = float(np.dot(probs, s))
        s_var = float(np.dot(probs, s * s))  # second moment
        sp = SpineLaw(vlaw, s, nu, probs, None, None, s_mean, s_var)
    if abs(sp.s_mean) > MEAN_TOL:
        raise CertificationError(f"spine step mean {sp.s_mean:.3e} is not 0")
    if abs(sp.s_var - sp.sigma2) > VAR_TOL:
        raise CertificationError(
            f"spine step second moment {sp.s_var!r} != sigma^2 {sp.sigma2!r}")
    return sp


def sample_spine_step(sp: SpineLaw, k: int, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One level of k i.i.d. spine paths: increments S_i - S_{i-1} and counts nu_{i-1}."""
    if sp.gauss_s is not None:
        inc = rng.normal(*sp.gauss_s, k)
        return inc, sp.gauss_nu[0][np.searchsorted(sp.cdf, rng.random(k), side="right")]
    idx = np.searchsorted(sp.cdf, rng.random(k), side="right")
    return sp.s_values[idx], sp.nu_values[idx]


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


def default_library(profile_sigma: float = 1.0) -> tuple[PathFunctional, ...]:
    """The fixed functionals exercised by the identity checks."""
    return (
        functional("one"),
        functional("below_line", slope=0.5),
        functional("band", half_width=2.0 * profile_sigma),
        functional("exp_capped", u=1.0, cap=2.0),
        functional("below_line_maxnu", slope=0.5, r=2),
    )


# ---------------------------------------------------------------------------
# the two Monte Carlo routes and the exact route

def _joint_child_atoms(vlaw: VLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-child intensity atoms (v, nu, weight); weights sum to E[Z].

    Explicit laws give one atom per child of each outcome; product laws list
    the step atoms u-major, then the child counts k > 0.  Zero-weight atoms
    are dropped.
    """
    base = vlaw.base
    if isinstance(base, ExplicitFinite):
        atoms = [(d, len(ds), p) for ds, p in base.outcomes for d in ds]
    else:
        step = models.step_law(base)
        if not isinstance(step, DiscreteFinite):
            raise ValueError("exact enumeration needs finite displacement support")
        atoms = [(u, k, k * pk * qu) for u, qu in step.atoms
                 for k, pk in models.offspring_pmf(base) if k > 0]
    u, nu, w = (np.array(c) for c in zip(*atoms))
    keep = w > 0
    return vlaw.v_increment(u[keep]), nu[keep].astype(np.int64), w[keep]


def expected_leaf_sum_exact(vlaw: VLaw, n: int, func: PathFunctional) -> float:
    """E[sum over |x|=n of e^{-V(x)} F(path)] by brute-force path enumeration.

    Uses only linearity of expectation over the branching structure: each
    length-n atom sequence contributes the product of its intensity
    weights.  Independent of the tilted-walk construction it validates.
    Sequences grow one level at a time in lexicographic order.
    """
    v, nu, w = _joint_child_atoms(vlaw)
    a = v.size
    if a ** n > _ENUM_BUDGET:
        raise ValueError(f"{a}^{n} paths exceed the enumeration budget")
    s, weights, ok = np.zeros(1), np.ones(1), np.ones(1, dtype=bool)
    for i in range(1, n + 1):
        s = np.repeat(s, a) + np.tile(v, s.size)
        weights = np.repeat(weights, a) * np.tile(w, weights.size)
        ok = func.admit(np.repeat(ok, a), i, s, np.tile(nu, ok.size))
    return float(np.dot(weights, np.exp(-s) * func.weight(ok, s)))


def tree_many_to_one_lhs(vlaw: VLaw, n: int, func: PathFunctional,
                         replicates: int, seed: int = 0) -> tuple[float, float]:
    """MC estimate of E[sum_{|x|=n} e^{-V(x)} F(path)] by direct tree simulation."""
    def draw(rng, k):
        owner, v, ok = np.arange(k), np.zeros(k), np.ones(k, dtype=bool)
        for i in range(1, n + 1):
            owner, v, counts = _advance(vlaw, owner, v, rng)
            ok = func.admit(np.repeat(ok, counts), i, v, np.repeat(counts, counts))
        return np.bincount(owner, weights=np.exp(-v) * func.weight(ok, v), minlength=k)

    return chunked_mean(seed, replicates, CHUNK, draw)


def spine_many_to_one_rhs(sp: SpineLaw, n: int, func: PathFunctional,
                          replicates: int, seed: int = 0) -> tuple[float, float]:
    """MC estimate of E[F(S_1..S_n, nu_0..nu_{n-1})] by spine sampling.

    Each chunk draws its paths one level at a time, so path j of a chunk
    reads the same first n steps at every depth n.
    """
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
    On finite-support laws at small depth the exact enumeration value is
    also computed and located against both intervals.  A functional with
    zero variance on both routes is reported vacuous.
    """
    lhs, lse = tree_many_to_one_lhs(vlaw, n, func, replicates, seed)
    rhs, rse = spine_many_to_one_rhs(sp, n, func, replicates, seed + 1)
    in_l = in_r = None
    try:
        exact = expected_leaf_sum_exact(vlaw, n, func)
    except ValueError:
        exact = None
    if exact is not None:
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
    "PathFunctional", "functional", "default_library",
    "expected_leaf_sum_exact", "tree_many_to_one_lhs", "spine_many_to_one_rhs",
    "CheckReport", "many_to_one_check",
]
