"""Numerics and simulation laboratory for killed branching random walks.

Computes the critical constants of a branching random walk, estimates
survival probabilities under a linear absorbing barrier by Monte Carlo and
by exact dynamic programming, and numerically verifies the square-root
decay law of the survival probability together with the supporting
tilted-walk and small-deviation machinery.
"""

from .analysis import (CgfEvaluator, CriticalProfile, aldous_rate,
                       beta_bs_from_gamma_derivative, gamma_bs_solve, solve_tstar)
from .errors import (CertificationError, DomainTooNarrow, GridExhausted,
                     LatticeError, LawValidationError, NoCriticalPoint)
from .models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite, Gaussian,
                     OffspringLaw, ProductLaw, StepLaw, validate)
from .mogulskii import (ArraySpec, CorridorSpec, brownian_corridor_mc,
                        corridor_constant, ito_mckean_f, triangular_experiment)
from .oracle import LatticeLaw, exact_corridor_walk, exact_path_survival, rho_limit
from .simulate import (BarrierSpec, GwEmbedParams, SurvivalEstimate,
                       estimate_M_kappa, estimate_rho, simulate_G)
from .spine import SpineLaw, functional, make_spine, many_to_one_check
from .transform import VLaw, barrier_map, make_vlaw

__version__ = "0.1.0"

__all__ = [
    "BinaryBernoulli", "ProductLaw", "ExplicitFinite", "DiscreteFinite", "Gaussian",
    "OffspringLaw", "StepLaw", "validate",
    "CgfEvaluator", "CriticalProfile", "solve_tstar", "gamma_bs_solve",
    "beta_bs_from_gamma_derivative", "aldous_rate",
    "VLaw", "make_vlaw", "barrier_map",
    "SpineLaw", "make_spine", "functional", "many_to_one_check",
    "BarrierSpec", "SurvivalEstimate", "GwEmbedParams",
    "estimate_rho", "estimate_M_kappa", "simulate_G",
    "LatticeLaw", "exact_path_survival", "exact_corridor_walk", "rho_limit",
    "CorridorSpec", "corridor_constant", "ito_mckean_f", "brownian_corridor_mc",
    "ArraySpec", "triangular_experiment",
    "LawValidationError", "NoCriticalPoint", "DomainTooNarrow",
    "CertificationError", "LatticeError", "GridExhausted",
]
