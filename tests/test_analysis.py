import math

import numpy as np
import pytest

from kbrw.analysis import (CgfEvaluator, aldous_rate,
                           beta_bs_from_gamma_derivative, central_difference,
                           gamma_bs_solve, solve_tstar)
from kbrw.errors import DomainTooNarrow, NoCriticalPoint
from kbrw.models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite,
                         Gaussian, ProductLaw)

P0 = 0.0669872981077807
T_STAR_P0 = math.log(7.0 + 4.0 * math.sqrt(3.0))


def beta_bs(p):
    """Decay constant of the binary Bernoulli(p) survival probability."""
    return solve_tstar(BinaryBernoulli(p)).beta_U


def _bisect_tstar(ev, lo=1e-9, hi=64.0):
    # independent root oracle: plain bisection on t psi'(t) - psi(t)
    def h(t):
        psi, p1, _ = ev.evaluate(t)
        return t * p1 - psi
    assert h(lo) < 0 < h(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_psi_closed_form_binary():
    p, t = 0.3, 2.7
    ev = CgfEvaluator(BinaryBernoulli(p))
    psi, p1, p2 = ev.evaluate(t)
    assert psi == pytest.approx(math.log(2.0 * (p * math.e ** t + 1 - p)), rel=1e-14)
    # frozen from the closed form: log(2*(0.3*e^2.7 + 0.7)) and its derivative
    assert psi == pytest.approx(2.3348430681134101, rel=1e-13)
    assert p1 == pytest.approx(0.8644440530815900, rel=1e-13)


def test_psi_at_zero_is_log_mean_children():
    for law in (BinaryBernoulli(0.3), BinaryBernoulli(0.45),
                ProductLaw(((1, 0.5), (3, 0.5)), Gaussian(0.0, 1.0))):
        ev = CgfEvaluator(law)
        psi, _, _ = ev.evaluate(1e-12)
        assert psi == pytest.approx(math.log(2.0), abs=1e-10)


def test_derivative_consistency_random_points(law_p03, law_explicit, law_gaussian):
    rng = np.random.default_rng(2024)
    for law in (law_p03, law_explicit, law_gaussian):
        ev = CgfEvaluator(law)
        t_star = solve_tstar(law).t_star
        ts = rng.uniform(0.05, t_star + 1.0, size=20)
        for t in ts:
            psi, p1, p2 = ev.evaluate(float(t))
            fd1 = central_difference(lambda x: ev.evaluate(x)[0], float(t), 1e-5)
            fd2 = central_difference(lambda x: ev.evaluate(x)[1], float(t), 1e-4)
            assert p1 == pytest.approx(fd1, rel=1e-6)
            assert p2 == pytest.approx(fd2, rel=1e-6, abs=1e-9)


def test_solve_tstar_p0_closed_forms(profile_p0):
    assert profile_p0.gamma == pytest.approx(0.5, abs=1e-9)
    assert profile_p0.t_star == pytest.approx(T_STAR_P0, abs=1e-9)
    assert profile_p0.psi2_tstar == pytest.approx(0.25, abs=1e-9)
    assert profile_p0.psi_tstar == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-9)


def test_solve_tstar_p03(law_p03, profile_p03):
    ev = CgfEvaluator(law_p03)
    t_ref = _bisect_tstar(ev)
    assert profile_p03.t_star == pytest.approx(t_ref, abs=1e-9)
    # Bernoulli steps: psi''(t*) = gamma (1 - gamma) by algebra
    g = profile_p03.gamma
    assert profile_p03.psi2_tstar == pytest.approx(g * (1 - g), rel=1e-12)
    assert profile_p03.sigma2 == pytest.approx(profile_p03.t_star ** 2 * g * (1 - g), rel=1e-12)
    assert profile_p03.sigma2 == pytest.approx(0.854, abs=5e-4)


def test_profile_invariants(law_p03, law_explicit, law_gaussian):
    for law in (law_p03, law_explicit, law_gaussian):
        prof = solve_tstar(law)
        ev = CgfEvaluator(law)
        psi, p1, p2 = ev.evaluate(prof.t_star)
        assert abs(prof.t_star * p1 - psi) < 1e-12      # root residual
        assert abs(prof.gamma - p1) < 1e-10             # psi(t*)/t* = psi'(t*)
        assert prof.sigma2 > 0
        assert prof.beta_V / prof.beta_U == pytest.approx(math.sqrt(prof.t_star), rel=1e-15)


def test_gaussian_tstar_closed_form(law_gaussian):
    # psi = log m + t^2/2 gives t* = sqrt(2 log m)
    prof = solve_tstar(law_gaussian)
    assert prof.t_star == pytest.approx(math.sqrt(2.0 * math.log(2.0)), rel=1e-12)
    assert prof.gamma == pytest.approx(prof.t_star, rel=1e-12)  # gamma = psi'(t*) = t* here


def test_percolation_detection():
    with pytest.raises(NoCriticalPoint):
        solve_tstar(BinaryBernoulli(0.6))
    with pytest.raises(NoCriticalPoint):
        solve_tstar(BinaryBernoulli(0.5))
    # ternary tree whose 1-intensity is 1.2 > 1
    law = ProductLaw(((3, 1.0),), DiscreteFinite(((0.0, 0.6), (1.0, 0.4))))
    with pytest.raises(NoCriticalPoint):
        solve_tstar(law)
    # a zero-probability atom above the top one carries no children, so it
    # cannot hide the percolating top intensity of BinaryBernoulli(0.5)
    law = ProductLaw(((2, 1.0),), DiscreteFinite(((0.0, 0.5), (1.0, 0.5), (2.0, 0.0))))
    with pytest.raises(NoCriticalPoint, match="maximal displacement"):
        solve_tstar(law)
    # deterministic displacements: no psi curvature, rejected at validation
    from kbrw.errors import LawValidationError
    with pytest.raises(LawValidationError):
        solve_tstar(ExplicitFinite((((1.0, 1.0), 1.0),)))


def test_gamma_bs_solve_examples():
    assert gamma_bs_solve(P0) == pytest.approx(0.5, abs=1e-9)
    g = gamma_bs_solve(0.3)
    assert g == pytest.approx(0.8648, abs=5e-5)
    # plug-back residual of the entropy equation
    res = g * math.log(g / 0.3) + (1 - g) * math.log((1 - g) / 0.7) - math.log(2)
    assert abs(res) < 1e-10
    with pytest.raises(ValueError):
        gamma_bs_solve(0.5)
    with pytest.raises(ValueError):
        gamma_bs_solve(0.0)


def test_gamma_bs_matches_tilt_solver():
    for p in (0.05, 0.15, 0.25, 0.35, 0.45):
        assert gamma_bs_solve(p) == pytest.approx(solve_tstar(BinaryBernoulli(p)).gamma,
                                                  abs=1e-9)


def test_gamma_bs_monotone():
    grid = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
    vals = [gamma_bs_solve(p) for p in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_beta_bs_values(profile_p0):
    # closed form at p0: (pi/sqrt(2)) * sqrt(t*/4)
    assert beta_bs(P0) == pytest.approx(math.pi / math.sqrt(2.0) * math.sqrt(T_STAR_P0 / 4.0),
                                        rel=1e-12)
    assert beta_bs(P0) == pytest.approx(1.802627, abs=5e-7)
    assert beta_bs(0.3) == pytest.approx(1.249, abs=5e-4)


def test_beta_cross_check_and_gamma_derivative_identity():
    direct = beta_bs(P0)
    derived = beta_bs_from_gamma_derivative(P0)
    assert abs(direct - derived) / direct < 1e-4
    gprime = central_difference(gamma_bs_solve, P0, 1e-6)
    implied = 8.0 * (1.0 - 2.0 * P0) / T_STAR_P0
    assert abs(gprime - implied) / implied < 1e-4


def test_aldous_rate():
    val = aldous_rate(P0)
    # high-precision closed form pi log(2+sqrt 3) / (4 sqrt(sqrt(3)/2))
    import mpmath
    mp_val = float(mpmath.pi * mpmath.log(2 + mpmath.sqrt(3))
                   / (4 * mpmath.sqrt(1 - 2 * mpmath.mpf(P0))))
    assert val == pytest.approx(mp_val, rel=1e-12)
    assert val == pytest.approx(1.111467, abs=5e-7)
    # invariant under re-deriving p0 from the quadratic root
    p0_again = (2.0 - math.sqrt(3.0)) / 4.0
    assert aldous_rate(p0_again) == pytest.approx(val, rel=1e-12)
    with pytest.raises(ValueError):
        aldous_rate(0.3)


def test_unconverged_root_raises_domain_too_narrow(monkeypatch):
    # no residual passes a zero tolerance, so the iteration runs out
    import kbrw.analysis
    monkeypatch.setattr(kbrw.analysis, "H_TOL", 0.0)
    with pytest.raises(DomainTooNarrow):
        solve_tstar(BinaryBernoulli(0.3))
