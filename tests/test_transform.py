import math

import numpy as np
import pytest

from kbrw.analysis import CriticalProfile, solve_tstar
from kbrw.errors import CertificationError
from kbrw.models import intensity_atoms
from kbrw.simulate import BarrierSpec
from kbrw.transform import make_vlaw


def test_identities_binary(law_p03, profile_p03):
    vlaw = make_vlaw(law_p03, profile_p03)
    # E[sum e^{-V}] = 2 e^{-psi}(p e^{t*} + 1 - p) = 1 by algebra
    assert abs(vlaw.mean_exp_residual) < 1e-14
    assert abs(vlaw.mean_vexp_residual) < 1e-12


def test_identities_closed_form_sum(law_p03, profile_p03):
    # independent oracle: direct sum over the displacement intensity
    t, psi = profile_p03.t_star, profile_p03.psi_tstar
    u, lam, _ = intensity_atoms(law_p03)
    v = -t * u + psi
    assert np.dot(lam, np.exp(-v)) == pytest.approx(1.0, abs=1e-14)
    assert abs(np.dot(lam, v * np.exp(-v))) < 1e-12


def test_identities_explicit(law_explicit):
    prof = solve_tstar(law_explicit)
    vlaw = make_vlaw(law_explicit, prof)
    assert abs(vlaw.mean_exp_residual) < 1e-12
    assert abs(vlaw.mean_vexp_residual) < 1e-12


def test_identities_gaussian(law_gaussian):
    prof = solve_tstar(law_gaussian)
    vlaw = make_vlaw(law_gaussian, prof)
    assert abs(vlaw.mean_exp_residual) < 1e-12
    assert abs(vlaw.mean_vexp_residual) < 1e-12
    assert math.isfinite(vlaw.delta1_witness) and vlaw.delta1_witness > 0
    assert math.isfinite(vlaw.delta2_witness) and vlaw.delta2_witness > 0


def test_inconsistent_profile_rejected(law_p03, profile_p03):
    bad = CriticalProfile(t_star=profile_p03.t_star * 1.01, gamma=profile_p03.gamma,
                          psi_tstar=profile_p03.psi_tstar,
                          psi2_tstar=profile_p03.psi2_tstar,
                          sigma2=profile_p03.sigma2, beta_U=profile_p03.beta_U,
                          beta_V=profile_p03.beta_V)
    with pytest.raises(CertificationError):
        make_vlaw(law_p03, bad)


def test_beta_reconciliation(profile_p03):
    # the two decay statements predict identical exponents for mapped slopes
    eps_u = 0.04
    eps_v = BarrierSpec("U", eps_u).v_slope(profile_p03)
    lhs = profile_p03.beta_U / math.sqrt(eps_u)
    rhs = profile_p03.beta_V / math.sqrt(eps_v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_v_increment(vlaw_p03, profile_p03):
    v0 = vlaw_p03.v_increment(0.0)
    v1 = vlaw_p03.v_increment(1.0)
    assert v0 == pytest.approx(profile_p03.psi_tstar)
    assert v1 == pytest.approx(profile_p03.psi_tstar - profile_p03.t_star)
    assert v1 < 0 < v0  # gamma < 1 makes the u=1 move the only downward one
    arr = vlaw_p03.v_increment(np.array([0.0, 1.0]))
    assert arr == pytest.approx([v0, v1])
