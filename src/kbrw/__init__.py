"""Numerics and simulation laboratory for killed branching random walks.

Computes the critical constants of a branching random walk, estimates
survival probabilities under a linear absorbing barrier by Monte Carlo and
by exact dynamic programming, and numerically verifies the square-root
decay law of the survival probability together with the supporting
tilted-walk and small-deviation machinery.

The package loads lazily (PEP 562): ``import kbrw`` imports neither numpy
nor any submodule, and each public name imports its module on first use.
So ``python -m kbrw.cli`` reaches ``kbrw.cli`` before numpy starts, and the
CLI can run numpy's BLAS on one thread per process (its rows run in a
process pool, and no kernel calls BLAS on large arrays) unless
``OPENBLAS_NUM_THREADS`` is set.  The package itself leaves BLAS threading
to the caller.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, which __getattr__ imports on first use
_EXPORTS = {
    "analysis": ["CgfEvaluator", "CriticalProfile", "aldous_rate",
                 "beta_bs_from_gamma_derivative", "gamma_bs_solve", "solve_tstar"],
    "errors": ["CertificationError", "DomainTooNarrow", "GridExhausted",
               "LatticeError", "LawValidationError", "NoCriticalPoint"],
    "models": ["BinaryBernoulli", "DiscreteFinite", "ExplicitFinite", "Gaussian",
               "OffspringLaw", "ProductLaw", "StepLaw", "validate"],
    "mogulskii": ["ArraySpec", "CorridorSpec", "brownian_corridor_mc",
                  "corridor_constant", "ito_mckean_f", "triangular_experiment"],
    "oracle": ["LatticeLaw", "exact_corridor_walk", "exact_path_survival", "rho_limit"],
    "simulate": ["BarrierSpec", "GwEmbedParams", "SurvivalEstimate",
                 "estimate_M_kappa", "estimate_rho", "simulate_G"],
    "spine": ["SpineLaw", "functional", "make_spine", "many_to_one_check"],
    "transform": ["VLaw", "make_vlaw"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value      # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
