"""Cumulant-type generating function of the branching walk and its critical tilt.

``psi(t) = log E[sum over first-generation children of exp(t * displacement)]``
is evaluated in closed form together with its first two derivatives.  The
critical tilt ``t*`` solves ``psi(t*) = t* psi'(t*)``; from it follow the
speed ``gamma = psi(t*)/t*``, the walk variance ``sigma^2 = t*^2 psi''(t*)``
and the decay constants ``beta_U`` and ``beta_V`` of the survival-probability
asymptotics in the original and in the centered coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DomainTooNarrow, LawValidationError, NoCriticalPoint
from .models import OffspringLaw

H_TOL = 1e-12          # residual bound on t*psi'(t*) - psi(t*)
_T_BRACKET_CAP = 1e12


class CgfEvaluator:
    """Closed-form evaluator for psi and its first two derivatives.

    A displacement is an intensity atom plus a N(0, noise^2) part
    (``models.intensity_atoms``), so psi is a log-sum-exp over the atoms,
    shifted so large tilts do not overflow, plus (noise t)^2/2; psi' and
    psi'' are the tilted atom's mean plus noise^2 t and its variance plus
    noise^2.  Every supported family has psi finite for all real t.
    """

    def __init__(self, law: OffspringLaw):
        self._values, weights, self._noise = models.intensity_atoms(law)
        self._logw = np.log(weights)

    def evaluate(self, t: float) -> tuple[float, float, float]:
        """Return (psi, psi', psi'') at tilt t."""
        ex = t * self._values + self._logw
        mx = float(ex.max())
        w = np.exp(ex - mx)
        s = float(w.sum())
        w /= s
        mean = float(np.dot(w, self._values))
        var = float(np.dot(w, (self._values - mean) ** 2))
        n2 = self._noise * self._noise
        return mx + math.log(s) + 0.5 * (self._noise * t) ** 2, mean + n2 * t, var + n2


@dataclass(frozen=True)
class CriticalProfile:
    """Critical constants of one offspring law."""

    t_star: float
    gamma: float        # speed of the maximal position, psi(t*)/t*
    psi_tstar: float
    psi2_tstar: float
    sigma2: float       # (t*)^2 psi''(t*), variance of the centered spine step
    beta_U: float       # pi * sqrt(t* psi''(t*)) / sqrt(2)
    beta_V: float       # beta_U * sqrt(t*), equals pi*sigma/sqrt(2)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _percolation_check(law: OffspringLaw) -> None:
    """Bounded laws have a critical tilt iff the mass at the maximal
    displacement is < 1; otherwise top-speed vertices percolate."""
    values, weights, noise = models.intensity_atoms(law)
    if noise > 0.0:
        return  # unbounded displacements: a critical tilt always exists
    top_mass = float(weights[np.argmax(values)])
    if top_mass >= 1.0:
        raise NoCriticalPoint(
            f"expected number of children at the maximal displacement is "
            f"{top_mass:.6g} >= 1: maximal-displacement vertices percolate, "
            f"the survival probability does not decay")


def _solve_h_root(ev: CgfEvaluator) -> float:
    """Root of h(t) = t psi'(t) - psi(t), unique since h' = t psi'' > 0."""

    def h(t: float) -> tuple[float, float]:
        psi, p1, p2 = ev.evaluate(t)
        return t * p1 - psi, t * p2

    lo = 0.0  # h(0) = -log E[Z] < 0 for validated laws
    hi = 1e-6
    while h(hi)[0] <= 0.0:
        hi *= 2.0
        if hi > _T_BRACKET_CAP:
            raise DomainTooNarrow("bracketing for t* hit the domain bound")
    t = 0.5 * (lo + hi)
    for _ in range(200):
        hval, hprime = h(t)
        if abs(hval) < H_TOL:
            return t
        if hval < 0.0:
            lo = t
        else:
            hi = t
        t_newton = t - hval / hprime if hprime > 0.0 else t
        t = t_newton if lo < t_newton < hi else 0.5 * (lo + hi)
    raise DomainTooNarrow("t* iteration did not reach the residual tolerance")


def solve_tstar(law: OffspringLaw) -> CriticalProfile:
    """Solve the critical equation and assemble the full constant profile."""
    report = models.validate(law)
    if not report.ok:
        raise LawValidationError("; ".join(report.violations))
    _percolation_check(law)
    ev = CgfEvaluator(law)
    t = _solve_h_root(ev)
    psi, _, p2 = ev.evaluate(t)
    beta_u = math.pi * math.sqrt(t * p2) / math.sqrt(2.0)
    return CriticalProfile(
        t_star=t,
        gamma=psi / t,
        psi_tstar=psi,
        psi2_tstar=p2,
        sigma2=t * t * p2,
        beta_U=beta_u,
        beta_V=beta_u * math.sqrt(t),
    )


def gamma_bs_solve(p: float) -> float:
    """Speed of the binary Bernoulli(p) walk from its entropy equation.

    Solves gamma*log(gamma/p) + (1-gamma)*log((1-gamma)/(1-p)) = log 2 by
    bisection on (p, 1); the left side is -log 2 at gamma = p and increases
    to log(1/p) - log 2 > 0, so the root is unique.
    """
    if not 0.0 < p < 0.5:
        raise ValueError("gamma_bs_solve requires p in (0, 1/2)")

    def f(g: float) -> float:
        t1 = g * math.log(g / p)
        t2 = (1.0 - g) * math.log((1.0 - g) / (1.0 - p)) if g < 1.0 else 0.0
        return t1 + t2 - math.log(2.0)

    lo, hi = p, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def beta_bs_from_gamma_derivative(p0: float, step: float = 1e-6) -> float:
    """Cross-check form of beta at the gamma = 1/2 point.

    Uses (pi/4) * sqrt(gamma'(p0)/(1-2 p0)) * log(1/(4 p0)) with gamma'
    estimated by a central finite difference of the entropy-equation solver.
    Must agree with ``solve_tstar(BinaryBernoulli(p0)).beta_U`` to about
    1e-4 relative.
    """
    gprime = central_difference(gamma_bs_solve, p0, step)
    return math.pi / 4.0 * math.sqrt(gprime / (1.0 - 2.0 * p0)) * math.log(1.0 / (4.0 * p0))


def is_aldous_point(p: float) -> bool:
    """Whether 16 p (1 - p) = 1 within 1e-9: the gamma = 1/2 point of binary laws."""
    return abs(16.0 * p * (1.0 - p) - 1.0) <= 1e-9


def aldous_rate(p0: float) -> float:
    """Coefficient of 1/sqrt(p - p0) in Aldous's exponent at the 16p(1-p)=1 point."""
    if not is_aldous_point(p0):
        raise ValueError("aldous_rate requires 16*p0*(1-p0) = 1 within 1e-9")
    return math.pi * math.log(1.0 / (4.0 * p0)) / (4.0 * math.sqrt(1.0 - 2.0 * p0))


__all__ = [
    "CgfEvaluator", "CriticalProfile", "solve_tstar",
    "gamma_bs_solve", "beta_bs_from_gamma_derivative",
    "aldous_rate", "is_aldous_point", "central_difference", "H_TOL",
]
