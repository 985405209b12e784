"""Exception types shared across the package."""


class LawValidationError(ValueError):
    """An offspring law violates a structural or moment assumption."""


class NoCriticalPoint(RuntimeError):
    """The critical-tilt equation has no root.

    For bounded displacement laws this is the percolation regime: the
    expected number of children sitting at the maximal displacement is
    at least one, so the top-speed rays never thin out and the kill
    probability does not decay.
    """


class DomainTooNarrow(RuntimeError):
    """Root finding for the critical tilt hit the domain bound or did not converge."""


class CertificationError(RuntimeError):
    """A closed-form identity that must hold by construction failed.

    Signals an inconsistent critical profile (e.g. a profile paired
    with a law it was not solved for).
    """


class LatticeError(ValueError):
    """Operation requires a displacement law on the integer lattice."""


class GridExhausted(RuntimeError):
    """A parameter grid search hit its ceiling without success."""
