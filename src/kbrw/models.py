"""Offspring point-process families: construction, validation, exact sampling.

A law describes one reproduction event: how many children a particle has
and their displacements relative to the parent.  Three families cover the
supported models:

* ``BinaryBernoulli(p)`` -- always two children, each displaced by an
  independent Bernoulli(p) step.
* ``ProductLaw(offspring_pmf, step)`` -- child count from a finite pmf,
  displacements i.i.d. from ``step`` and independent of the count.
* ``ExplicitFinite(outcomes)`` -- the whole brood drawn atomically from a
  finite list of displacement tuples.

``child_atoms`` is the one per-child table of a law: each child's
displacement atom with its brood size and expected count, which the spine
tilts and the exact many-to-one value walks.  ``intensity_atoms``, behind the
cumulant and validation, is that table merged over brood sizes; neither
carries an atom of weight 0.

Probability vectors are accepted with up to 1e-12 of decimal round-off and
renormalized exactly at construction, which also drops every atom, child
count or outcome of probability 0: it can never be drawn, and no table
derived from the law carries it.  Laws are immutable and hashable, so
derived sampling tables are cached per law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LawValidationError
from .stats import closed_cdf

PROB_TOL = 1e-12
LATTICE_TOL = 1e-9
MAX_FRAME_SPAN = 10**6  # steps h in a non-integer frame; ends the search on incommensurate values
# within this of a bound counts as inside: the Monte Carlo kill line, the
# exact DP's integer barrier and the lattice corridor bounds all use it
BOUNDARY_TOL = 1e-9


def _normalized(items, what: str) -> tuple:
    """``(item, prob)`` pairs renormalized to sum to 1, without the pairs of probability 0."""
    probs = [p for _, p in items]
    total = math.fsum(probs)
    if any(p < 0 for p in probs):
        raise LawValidationError(f"{what}: negative probability")
    if not abs(total - 1.0) <= PROB_TOL:     # a NaN fails too
        raise LawValidationError(f"{what}: probabilities sum to {total!r}, not 1 within {PROB_TOL}")
    return tuple((x, q) for x, q in ((x, p / total) for x, p in items) if q > 0)


@dataclass(frozen=True)
class DiscreteFinite:
    """Finite displacement step law given as ((value, prob), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = _normalized([(float(v), float(p)) for v, p in self.atoms], "DiscreteFinite")
        if len({v for v, _ in atoms}) < 2:
            raise LawValidationError("DiscreteFinite: needs >= 2 distinct atoms of positive probability (deterministic steps make the cumulant function affine)")
        object.__setattr__(self, "atoms", atoms)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])


@dataclass(frozen=True)
class Gaussian:
    """Gaussian displacement step law."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not self.stddev > 0:
            raise LawValidationError("Gaussian: stddev must be > 0")


StepLaw = DiscreteFinite | Gaussian


@dataclass(frozen=True)
class BinaryBernoulli:
    """Two children, each displaced by an independent Bernoulli(p)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise LawValidationError("BinaryBernoulli: p must lie in (0, 1)")


@dataclass(frozen=True)
class ProductLaw:
    """Child count ~ offspring_pmf, displacements i.i.d. ~ step."""

    offspring_pmf: tuple[tuple[int, float], ...]
    step: StepLaw

    def __post_init__(self):
        if not all(float(k).is_integer() and k >= 0 for k, _ in self.offspring_pmf):
            raise LawValidationError("ProductLaw: child counts must be integers >= 0")
        pmf = tuple((int(k), float(p)) for k, p in self.offspring_pmf)
        if len({k for k, _ in pmf}) != len(pmf):
            raise LawValidationError("ProductLaw: duplicate child-count atoms")
        object.__setattr__(self, "offspring_pmf", _normalized(pmf, "ProductLaw offspring_pmf"))


@dataclass(frozen=True)
class ExplicitFinite:
    """Whole brood drawn atomically: ((displacements, prob), ...)."""

    outcomes: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        outs = [(tuple(float(d) for d in ds), float(p)) for ds, p in self.outcomes]
        object.__setattr__(self, "outcomes", _normalized(outs, "ExplicitFinite"))


OffspringLaw = BinaryBernoulli | ProductLaw | ExplicitFinite


# ---------------------------------------------------------------------------
# structural views

def offspring_pmf(law: OffspringLaw) -> tuple[tuple[int, float], ...]:
    """Child-count pmf of the law, merged and sorted by count."""
    if isinstance(law, BinaryBernoulli):
        return ((2, 1.0),)
    if isinstance(law, ProductLaw):
        return tuple(sorted(law.offspring_pmf))
    acc: dict[int, float] = {}
    for ds, p in law.outcomes:
        acc[len(ds)] = acc.get(len(ds), 0.0) + p
    return tuple(sorted(acc.items()))


def mean_children(law: OffspringLaw) -> float:
    return math.fsum(k * p for k, p in offspring_pmf(law))


def step_law(law: OffspringLaw) -> StepLaw | None:
    """The i.i.d. step law for product-structured families, else None."""
    if isinstance(law, BinaryBernoulli):
        return DiscreteFinite(((0.0, 1.0 - law.p), (1.0, law.p)))
    if isinstance(law, ProductLaw):
        return law.step
    return None


def _step_atoms(step: StepLaw) -> tuple[np.ndarray, np.ndarray, float]:
    """(values, probs, noise) of a step law: an atom plus a N(0, noise^2) part."""
    if isinstance(step, Gaussian):
        return np.array([step.mean]), np.ones(1), step.stddev
    return step.values, step.probs, 0.0


def intensity_atoms(law: OffspringLaw) -> tuple[np.ndarray, np.ndarray, float]:
    """Displacement intensity (values, weights, noise): an atom plus a N(0, noise^2) part.

    ``child_atoms`` merged over brood sizes: ``weights[i]`` > 0 is the expected number of
    children at ``values[i]`` (sorted), and the weights sum to the mean child count.
    """
    u, _, w, noise = child_atoms(law)
    values, inverse = np.unique(u, return_inverse=True)
    return values, np.bincount(inverse, weights=w), noise


def child_atoms(law: OffspringLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Per-child intensity (values, counts, weights, noise): atom, brood size, weight.

    ``weights[i]`` is the expected number of children whose atom is
    ``values[i]`` and whose brood has ``counts[i]`` children; weights sum to
    the mean child count.  Explicit laws give one atom per child of each
    outcome; product laws list the step atoms u-major, then the child counts
    k > 0, with weight k p_k q_u.  A Gaussian step N(mu, sd) is the one atom
    mu with noise sd.  Zero-weight atoms are dropped, so a law without
    children has empty arrays.
    """
    noise = 0.0
    if isinstance(law, ExplicitFinite):
        atoms = [(d, len(ds), p) for ds, p in law.outcomes for d in ds]
    else:
        values, probs, noise = _step_atoms(step_law(law))
        atoms = [(u, k, k * pk * qu) for u, qu in zip(values.tolist(), probs.tolist())
                 for k, pk in offspring_pmf(law) if k > 0]
    u, nu, w = np.array(atoms, dtype=np.float64).reshape(-1, 3).T
    keep = w > 0
    return u[keep], nu[keep].astype(np.int64), w[keep], noise


def lattice_frame(values) -> tuple[float, float] | None:
    """(a, h) with every value within LATTICE_TOL of a + h Z, or None: exactly
    (0.0, 1.0) for integers, else the least value and the gcd of the gaps, by
    Euclid from the least gap, so {0, 0.4, 1} gets (0, 0.2).  A frame more
    than MAX_FRAME_SPAN steps wide, as {0, 1, sqrt 2} would need, is None."""
    v = np.unique(values)
    if np.all(np.abs(v - np.rint(v)) <= LATTICE_TOL):
        return 0.0, 1.0
    a, h = float(v[0]), (float(np.diff(v).min()) if v.size > 1 else 1.0)
    for x in (v - a).tolist():
        while abs((k := x / h) - round(k)) > LATTICE_TOL and v[-1] - a <= MAX_FRAME_SPAN * h:
            x, h = h, abs(x - round(k) * h)
    k = (v - a) / h
    ok = k[-1] <= MAX_FRAME_SPAN and np.all(np.abs(k - np.rint(k)) <= LATTICE_TOL)
    return (a, h) if ok else None


def mean_exp_sum(law: OffspringLaw, t: float) -> float:
    """E[sum over children of exp(t * displacement)], in closed form."""
    values, weights, noise = intensity_atoms(law)
    return float(np.dot(weights, np.exp(t * values + 0.5 * (noise * t) ** 2)))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate(law: OffspringLaw) -> ValidationReport:
    """Check the supercriticality and strict-convexity assumptions of the model.

    Every moment the theory asks for is finite for the supported families
    (finite atoms or Gaussian steps, finitely many children), so the only
    ways to be rejected are a subcritical child count or a deterministic
    displacement.
    """
    m = mean_children(law)
    violations = []
    if not m > 1.0:
        violations.append(f"supercriticality: mean child count {m:.6g} <= 1")
    values, _, noise = intensity_atoms(law)
    if noise == 0.0 and len(values) < 2:
        violations.append("strict-convexity: all displacements equal, cumulant function is affine")
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# sampling

def _stream_draws(method: str, ends, rngs) -> np.ndarray:
    """Draws of several streams, concatenated in stream order.

    Stream i draws ``ends[i] - ends[i - 1]`` values (``ends[0]`` for i = 0)
    by its method ``method``; a stream with nothing to draw is not called.
    """
    parts = [getattr(rng, method)(end - start)
             for start, end, rng in zip([0, *ends], ends, rngs) if end > start]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0)


def _draw_atoms(cdf: np.ndarray, values: np.ndarray, noise: float, ends, rngs
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draws (atom index, value) of an atom plus an independent N(0, noise^2)
    part, ``ends`` as in ``_stream_draws``.  Each stream draws its normal
    parts first, and one atom draws no uniforms."""
    z = _stream_draws("standard_normal", ends, rngs) if noise else None
    one = values.size == 1
    idx = (np.zeros(ends[-1], dtype=np.int64) if one else
           np.searchsorted(cdf, _stream_draws("random", ends, rngs), side="right"))
    if z is None:
        return idx, values[idx]
    z *= noise   # in place, as fast as Generator.normal and with its bits
    z += values[0] if one else values[idx]
    return idx, z


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


@lru_cache(maxsize=None)
def brood_sampler(law: OffspringLaw):
    """The law's brood sampler ``sample(ends, rngs) -> (counts, flat)``.

    Stream ``rngs[i]`` draws broods ``ends[i - 1] .. ends[i] - 1`` (from 0
    for i = 0).  ``counts`` holds every brood's size in brood order, or is
    one int where every brood has that size (the binary law), and ``flat``
    holds the child displacements in brood order, in a buffer of its own.
    Each stream draws exactly what it would draw alone, in the same order:
    its count uniforms, then its normal parts, then its atom uniforms.  So
    broods do not depend on which streams are sampled together.  The
    sampling tables are built once per law.
    """
    if isinstance(law, BinaryBernoulli):
        p = law.p

        def sample(ends, rngs):
            u = _stream_draws("random", [2 * e for e in ends], rngs)
            return 2, np.less(u, p, out=u)   # 0/1 displacements in the uniforms' buffer
    elif isinstance(law, ProductLaw):
        pmf = offspring_pmf(law)
        sizes = np.array([k for k, _ in pmf], dtype=np.int64)
        ccdf = closed_cdf([p for _, p in pmf])
        values, probs, noise = _step_atoms(law.step)
        cdf = closed_cdf(probs)

        def sample(ends, rngs):
            counts = sizes[np.searchsorted(ccdf, _stream_draws("random", ends, rngs),
                                           side="right")]
            child_ends = np.concatenate(([0], np.cumsum(counts)))[ends].tolist()
            return counts, _draw_atoms(cdf, values, noise, child_ends, rngs)[1]
    else:
        lens = np.array([len(ds) for ds, _ in law.outcomes], dtype=np.int64)
        table = np.array([d for ds, _ in law.outcomes for d in ds])
        offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
        ocdf = closed_cdf([p for _, p in law.outcomes])

        def sample(ends, rngs):
            idx = np.searchsorted(ocdf, _stream_draws("random", ends, rngs), side="right")
            counts = lens[idx]
            pos = np.repeat(offsets[idx], counts) + _grouped_arange(counts)
            return counts, table[pos]
    return sample


__all__ = [
    "BinaryBernoulli", "ProductLaw", "ExplicitFinite", "DiscreteFinite", "Gaussian",
    "OffspringLaw", "StepLaw", "ValidationReport",
    "offspring_pmf", "mean_children", "step_law",
    "intensity_atoms", "child_atoms", "lattice_frame", "mean_exp_sum",
    "validate", "brood_sampler",
]
