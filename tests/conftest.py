import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from kbrw import models, mogulskii
from kbrw.analysis import solve_tstar
from kbrw.models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite,
                         Gaussian, ProductLaw, brood_sampler)
from kbrw.spine import functional, make_spine
from kbrw.stats import chunked_mean
from kbrw.transform import make_vlaw

P0 = 0.0669872981077807  # root of 16 p (1 - p) = 1 in (0, 1/2)


def proportion_stderr(p_hat: float, trials: int) -> float:
    """Standard error of a binomial proportion, for the Monte Carlo gates."""
    if trials <= 0:
        return math.inf
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def regression_slope(x, y) -> float:
    """Least-squares slope of y on x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def sample_broods(law, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` independent broods from one stream.

    Returns ``(counts, flat)`` where ``counts[i]`` is the number of children
    of brood i and ``flat`` concatenates the child displacements in brood
    order: the one-stream case of ``brood_sampler``, with the one size it
    gives when every brood has that size spread over the broods.
    """
    counts, flat = brood_sampler(law)([count], [rng])
    return np.broadcast_to(counts, (count,)), flat


def gw_survival_to_n(ll, n: int) -> float:
    """P{generation n is non-empty} of a ``LatticeLaw``'s Galton-Watson
    process, with no barrier, by pgf iteration."""
    coeffs = np.asarray(ll.pgf_coeffs)
    q = 0.0
    for _ in range(n):
        q = float(npoly.polyval(q, coeffs))
    return 1.0 - q


# the corridor DP against ``corridor_series``: its rounding was measured at
# 2.3e-12 relative on the lazy walk in [-200, 200] at n = 1e6, about 2e-18 n,
# and a defect of 1e-11 relative must fail
CORRIDOR_REL_TOL = 5e-12


def corridor_series(probs, lo: int, hi: int, n: int, window=None) -> float:
    """P{a walk with steps -1, 0, +1 of probabilities ``probs`` stays in [lo, hi]
    for n steps from 0, and ends in ``window`` if one is given}, 50 digits.

    The reference for ``oracle.exact_corridor_walk`` on a flat integer
    corridor of W = hi - lo + 1 sites.  Its transfer matrix T is tridiagonal
    Toeplitz; with r = sqrt(q+ / q-), T = D S D^-1 for D = diag(r^-x) and S
    symmetric with off-diagonal sqrt(q- q+), so T^n is a sum of W sine modes
    with eigenvalues q0 + 2 sqrt(q- q+) cos(k pi / (W + 1)).  Each mode's sum
    of r^x sin(k theta x) over the end sites is a geometric series.  The
    probabilities are taken as the doubles the DP reads, so the series is
    exact for the matrix the DP powers, leak of mass included.
    """
    mp = mpmath.mp.clone()
    mp.dps = 50
    qm, q0, qp = (mp.mpf(float(q)) for q in probs)
    w, x0 = hi - lo + 1, 1 - lo          # sites 1..W, the start at x0
    ea, eb = (1, w) if window is None else (window[0] - lo + 1, window[1] - lo + 1)
    r, off = mp.sqrt(qp / qm), 2 * mp.sqrt(qm * qp)
    total = mp.mpf(0)
    for k in range(1, w + 1):
        th = k * mp.pi / (w + 1)
        z = r * mp.expj(th)
        ends = mp.im((z ** ea - z ** (eb + 1)) / (1 - z))   # sum of r^x sin(x th)
        total += (q0 + off * mp.cos(th)) ** n * mp.sin(x0 * th) * ends
    return float(2 * total / ((w + 1) * r ** x0))


def enumerated_leaf_sum(vlaw, n: int, func) -> float:
    """E[sum over |x|=n of e^{-V(x)} F(path)] by brute force: the reference for
    ``expected_leaf_sum_exact``.  Every length-n sequence of child atoms
    contributes the product of its intensity weights; sequences grow one
    level at a time in lexicographic order."""
    u, nu, w, _ = models.child_atoms(vlaw.base)
    v = vlaw.v_increment(u)
    a = v.size
    assert a ** n <= 1 << 21, f"{a}^{n} paths are too many to enumerate"
    s, weights, ok = np.zeros(1), np.ones(1), np.ones(1, dtype=bool)
    for i in range(1, n + 1):
        s = np.repeat(s, a) + np.tile(v, s.size)
        weights = np.repeat(weights, a) * np.tile(w, weights.size)
        ok = func.admit(np.repeat(ok, a), i, s, np.tile(nu, ok.size))
    return float(np.dot(weights, np.exp(-s) * func.weight(ok, s)))


def full_product_corridor_mc(a: float, b: float, c: float, d: float,
                             paths: int, steps: int, seed: int) -> tuple[float, float]:
    """The bridge-corrected strip estimate with the factor computed on every
    path at every step: the reference for ``brownian_corridor_mc``, which
    must return the same (mean, se) bit for bit."""
    dt = 1.0 / steps
    sdt = math.sqrt(dt)

    def draw(rng, k):
        x, x1 = np.zeros(k), np.empty(k)
        g0 = np.maximum(np.stack((b - x, x - a)), 0.0)
        g1, e, p = (np.empty((2, k)) for _ in range(3))
        near = np.empty((2, k), dtype=bool)
        w = np.ones(k)
        for _ in range(steps):
            rng.standard_normal(out=x1)
            x1 *= sdt
            x1 += x
            np.subtract(b, x1, out=g1[0])
            np.subtract(x1, a, out=g1[1])
            np.maximum(g1, 0.0, out=g1)
            np.multiply(-2.0, g0, out=e)
            e *= g1
            e /= dt
            np.greater(e, -40.0, out=near)
            p.fill(0.0)
            np.exp(e, out=p, where=near)
            np.subtract(1.0, p, out=p)
            p[0] *= p[1]
            w *= p[0]
            x, x1, g0, g1 = x1, x, g1, g0
        w *= (c <= x) & (x <= d)
        return w

    return chunked_mean(seed, paths, mogulskii._BM_CHUNK, draw)


def default_library(profile_sigma: float = 1.0):
    """The fixed functionals exercised by the identity checks."""
    return (
        functional("one"),
        functional("below_line", slope=0.5),
        functional("band", half_width=2.0 * profile_sigma),
        functional("exp_capped", u=1.0, cap=2.0),
        functional("below_line_maxnu", slope=0.5, r=2),
    )


@pytest.fixture(scope="session")
def law_p03():
    return BinaryBernoulli(0.3)


@pytest.fixture(scope="session")
def profile_p03(law_p03):
    return solve_tstar(law_p03)


@pytest.fixture(scope="session")
def vlaw_p03(law_p03, profile_p03):
    return make_vlaw(law_p03, profile_p03)


@pytest.fixture(scope="session")
def spine_p03(vlaw_p03):
    return make_spine(vlaw_p03)


@pytest.fixture(scope="session")
def law_p0():
    return BinaryBernoulli(P0)


@pytest.fixture(scope="session")
def profile_p0(law_p0):
    return solve_tstar(law_p0)


@pytest.fixture(scope="session")
def law_explicit():
    # atomic broods with dependent displacements; E[Z] = 2, top intensity 0.2
    return ExplicitFinite((((0.0, 0.0), 0.5), ((0.0, 1.0), 0.3), ((1.0, 2.0), 0.2)))


@pytest.fixture(scope="session")
def law_gaussian():
    return ProductLaw(((1, 0.5), (3, 0.5)), Gaussian(0.0, 1.0))


@pytest.fixture(scope="session")
def law_mixed_offspring():
    # supercritical GW with deaths allowed, fair Bernoulli steps
    return ProductLaw(((0, 0.2), (1, 0.3), (2, 0.3), (3, 0.2)),
                      DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))


@pytest.fixture(scope="session")
def law_tenths():
    # ten outcomes of probability 0.1, whose cumulative sums end at
    # 0.9999999999999999; its spine table ends just below 1 as well
    return ExplicitFinite(tuple(((0.0, float((j + 1) % 3)), 0.1) for j in range(10)))


class _TopUniform:
    """A generator stub whose uniforms are all 1 - 2**-53, the largest
    value ``Generator.random`` can return."""

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.fixture
def top_uniform():
    return _TopUniform()
