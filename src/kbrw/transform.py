"""Centering transformation of the branching walk.

Each child displacement u is mapped to ``v = -t* u + psi(t*)``, the per-child
increment of the transformed walk.  By construction the transformed law
satisfies the two tilt identities

    E[sum exp(-V)] = 1        and        E[sum V exp(-V)] = 0,

which make the associated one-particle walk centered.  Both identities are
certified in closed form at construction; Monte Carlo is never used here,
since these are gates against a mis-solved profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .analysis import CriticalProfile
from .errors import CertificationError
from .models import OffspringLaw

IDENTITY_TOL = 1e-12


def _tilted_sums(law: OffspringLaw, t_star: float, psi_tstar: float, order: int
                 ) -> float:
    """E[sum V^order exp(-V)] for order 0 or 1, in closed form, with V = -t* U + psi(t*).

    U is an atom u plus a N(0, noise^2) part, so each atom gives (v - tau^2)^order
    exp(-v + tau^2/2) with v = -t* u + psi and tau = t* noise.  Independent of
    ``CgfEvaluator``: the check shares no code with the solver it certifies.
    """
    u, lam, noise = models.intensity_atoms(law)
    tau2 = (t_star * noise) ** 2
    v = -t_star * u + psi_tstar
    return float(np.dot(lam, (v - tau2) ** order * np.exp(-v + 0.5 * tau2)))


@dataclass(frozen=True)
class VLaw:
    """A law together with its certified centering transformation."""

    base: OffspringLaw
    profile: CriticalProfile
    mean_exp_residual: float      # E[sum e^{-V}] - 1
    mean_vexp_residual: float     # E[sum V e^{-V}]
    delta1_witness: float         # E[sum e^{-2V}] (delta_1 = 1), finite
    delta2_witness: float         # E[sum e^{+V}]  (delta_2 = 1), finite

    @property
    def t_star(self) -> float:
        return self.profile.t_star

    @property
    def psi_tstar(self) -> float:
        return self.profile.psi_tstar

    def v_increment(self, u, out=None):
        """Map a displacement (or array of them) to its centered increment,
        written into ``out`` if given (which may be ``u`` itself)."""
        return np.add(np.multiply(-self.t_star, u, out=out), self.psi_tstar, out=out)


def make_vlaw(law: OffspringLaw, profile: CriticalProfile) -> VLaw:
    """Build and certify the centered law for a solved profile."""
    t, psi = profile.t_star, profile.psi_tstar
    res0 = _tilted_sums(law, t, psi, 0) - 1.0
    res1 = _tilted_sums(law, t, psi, 1)
    if abs(res0) > IDENTITY_TOL or abs(res1) > IDENTITY_TOL:
        raise CertificationError(
            f"tilt identities failed (residuals {res0:.3e}, {res1:.3e}); "
            f"profile inconsistent with the law")
    # delta witnesses: for these families any exponent is finite, report at 1
    d1 = _exp_moment(law, t, psi, -2.0)
    d2 = _exp_moment(law, t, psi, 1.0)
    return VLaw(base=law, profile=profile,
                mean_exp_residual=res0, mean_vexp_residual=res1,
                delta1_witness=d1, delta2_witness=d2)


def _exp_moment(law: OffspringLaw, t_star: float, psi_tstar: float, a: float) -> float:
    """E[sum exp(a V)] in closed form (finite for every supported family)."""
    # exp(a V) = exp(-a t* U) * exp(a psi)
    return models.mean_exp_sum(law, -a * t_star) * math.exp(a * psi_tstar)


__all__ = ["VLaw", "make_vlaw", "IDENTITY_TOL"]
