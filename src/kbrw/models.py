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

Probability vectors are accepted with up to 1e-12 of decimal round-off and
renormalized exactly at construction.  Laws are immutable and hashable, so
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
# within this of a bound counts as inside: the Monte Carlo kill line, the
# exact DP's integer barrier and the lattice corridor bounds all use it
BOUNDARY_TOL = 1e-9


def _normalize_probs(probs, what: str) -> tuple[float, ...]:
    total = math.fsum(probs)
    if any(p < 0 for p in probs):
        raise LawValidationError(f"{what}: negative probability")
    if abs(total - 1.0) > PROB_TOL:
        raise LawValidationError(f"{what}: probabilities sum to {total!r}, not 1 within {PROB_TOL}")
    return tuple(p / total for p in probs)


@dataclass(frozen=True)
class DiscreteFinite:
    """Finite displacement step law given as ((value, prob), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(v), float(p)) for v, p in self.atoms)
        if len({v for v, _ in atoms}) < 2:
            raise LawValidationError("DiscreteFinite: needs >= 2 distinct atoms (deterministic steps make the cumulant function affine)")
        probs = _normalize_probs([p for _, p in atoms], "DiscreteFinite")
        object.__setattr__(self, "atoms", tuple((v, q) for (v, _), q in zip(atoms, probs)))

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
        probs = _normalize_probs([p for _, p in pmf], "ProductLaw offspring_pmf")
        object.__setattr__(self, "offspring_pmf", tuple((k, q) for (k, _), q in zip(pmf, probs)))


@dataclass(frozen=True)
class ExplicitFinite:
    """Whole brood drawn atomically: ((displacements, prob), ...)."""

    outcomes: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        outs = tuple((tuple(float(d) for d in ds), float(p)) for ds, p in self.outcomes)
        probs = _normalize_probs([p for _, p in outs], "ExplicitFinite")
        object.__setattr__(self, "outcomes", tuple((ds, q) for (ds, _), q in zip(outs, probs)))


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


def intensity_atoms(law: OffspringLaw) -> tuple[np.ndarray, np.ndarray] | None:
    """Displacement intensity measure (values, weights) for finite-support laws.

    ``weights[i]`` is the expected number of children displaced by
    ``values[i]``; weights sum to the mean child count.  Returns None for
    Gaussian-step laws, whose intensity has a density.
    """
    if isinstance(law, ProductLaw) and isinstance(law.step, Gaussian):
        return None
    m = mean_children(law)
    acc: dict[float, float] = {}
    if isinstance(law, ExplicitFinite):
        for ds, p in law.outcomes:
            for d in ds:
                acc[d] = acc.get(d, 0.0) + p
    else:
        step = step_law(law)
        assert isinstance(step, DiscreteFinite)
        for v, q in step.atoms:
            acc[v] = acc.get(v, 0.0) + m * q
    values = np.array(sorted(acc))
    weights = np.array([acc[v] for v in values])
    return values, weights


def is_lattice(law: OffspringLaw) -> bool:
    """True when all displacements are integers (within 1e-9)."""
    atoms = intensity_atoms(law)
    if atoms is None:
        return False
    values, _ = atoms
    return bool(np.all(np.abs(values - np.round(values)) <= LATTICE_TOL))


def mean_exp_sum(law: OffspringLaw, t: float) -> float:
    """E[sum over children of exp(t * displacement)], in closed form."""
    atoms = intensity_atoms(law)
    if atoms is not None:
        values, weights = atoms
        return float(np.dot(weights, np.exp(t * values)))
    assert isinstance(law, ProductLaw) and isinstance(law.step, Gaussian)
    g = law.step
    return mean_children(law) * math.exp(g.mean * t + 0.5 * (g.stddev * t) ** 2)


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
    atoms = intensity_atoms(law)
    if atoms is not None and len(atoms[0]) < 2:
        violations.append("strict-convexity: all displacements equal, cumulant function is affine")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(law: OffspringLaw) -> None:
    report = validate(law)
    if not report.ok:
        raise LawValidationError("; ".join(report.violations))


# ---------------------------------------------------------------------------
# sampling

@lru_cache(maxsize=None)
def _tables(law: OffspringLaw):
    """Per-law sampling tables (cdf arrays, flattened outcomes)."""
    if isinstance(law, BinaryBernoulli):
        return {"kind": "binary", "p": law.p}
    if isinstance(law, ProductLaw):
        pmf = offspring_pmf(law)
        counts = np.array([k for k, _ in pmf], dtype=np.int64)
        ccdf = closed_cdf([p for _, p in pmf])
        out = {"kind": "product", "counts": counts, "ccdf": ccdf}
        if isinstance(law.step, DiscreteFinite):
            out["step_values"] = law.step.values
            out["step_cdf"] = closed_cdf(law.step.probs)
        else:
            out["gaussian"] = (law.step.mean, law.step.stddev)
        return out
    lens = np.array([len(ds) for ds, _ in law.outcomes], dtype=np.int64)
    flat = np.array([d for ds, _ in law.outcomes for d in ds])
    offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
    ocdf = closed_cdf([p for _, p in law.outcomes])
    return {"kind": "explicit", "lens": lens, "flat": flat, "offsets": offsets, "ocdf": ocdf}


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


def sample_broods(law: OffspringLaw, count: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` independent broods.

    Returns ``(counts, flat)`` where ``counts[i]`` is the number of children
    of brood i and ``flat`` concatenates the child displacements in brood
    order.  This is the vectorized core used by the simulation engines.
    """
    t = _tables(law)
    if t["kind"] == "binary":
        counts = np.full(count, 2, dtype=np.int64)
        flat = (rng.random(2 * count) < t["p"]).astype(np.float64)
        return counts, flat
    if t["kind"] == "product":
        counts = t["counts"][np.searchsorted(t["ccdf"], rng.random(count), side="right")]
        n_children = int(counts.sum())
        if "gaussian" in t:
            mu, sd = t["gaussian"]
            flat = rng.normal(mu, sd, n_children)
        else:
            flat = t["step_values"][np.searchsorted(t["step_cdf"], rng.random(n_children), side="right")]
        return counts, flat
    idx = np.searchsorted(t["ocdf"], rng.random(count), side="right")
    counts = t["lens"][idx]
    pos = np.repeat(t["offsets"][idx], counts) + _grouped_arange(counts)
    return counts, t["flat"][pos]


__all__ = [
    "BinaryBernoulli", "ProductLaw", "ExplicitFinite", "DiscreteFinite", "Gaussian",
    "OffspringLaw", "StepLaw", "ValidationReport",
    "offspring_pmf", "mean_children", "step_law",
    "intensity_atoms", "is_lattice", "mean_exp_sum",
    "validate", "require_valid", "sample_broods",
]
