import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import default_library, enumerated_leaf_sum
from kbrw.analysis import solve_tstar
from kbrw.errors import CertificationError
from kbrw.models import DiscreteFinite, ExplicitFinite, Gaussian, ProductLaw
from kbrw.oracle import exact_corridor_walk
from kbrw.rng import replicate_stream
from kbrw.spine import (expected_leaf_sum_exact, functional, make_spine, many_to_one_check,
                        sample_spine_step, spine_many_to_one_rhs, tree_many_to_one_lhs)
from kbrw.transform import make_vlaw


def _paths(sp, n, k, rng):
    """k spine paths drawn level by level: partial sums and counts as (k, n) arrays."""
    inc, nu = zip(*(sample_spine_step(sp, k, rng) for _ in range(n)))
    return np.cumsum(inc, axis=0).T, np.array(nu).T


def test_tilted_step_is_bernoulli_gamma(spine_p03, profile_p03):
    # P(S_1 = psi - t*) should equal the tilted success probability = gamma
    idx_down = np.argmin(spine_p03.s_values)
    assert spine_p03.probs[idx_down] == pytest.approx(profile_p03.gamma, rel=1e-12)
    p = 0.3
    tilt = p * math.exp(profile_p03.t_star) / (p * math.exp(profile_p03.t_star) + 1 - p)
    assert tilt == pytest.approx(profile_p03.gamma, rel=1e-12)


def test_spine_moments_certified(spine_p03, profile_p03):
    assert abs(spine_p03.s_mean) < 1e-12
    assert abs(spine_p03.s_var - profile_p03.sigma2) < 1e-10
    assert spine_p03.s_var == pytest.approx(0.854, abs=5e-4)


def test_spine_certificates_refuse_a_profile_of_another_law(vlaw_p03):
    # t* 1% off moves the tilted mean off 0; sigma^2 1% off leaves the mean
    # at 0 and misses the second moment
    prof = vlaw_p03.profile
    for profile, message in (
            (dataclasses.replace(prof, t_star=prof.t_star * 1.01), r"^spine step mean .* is not 0$"),
            (dataclasses.replace(prof, sigma2=prof.sigma2 * 1.01),
             r"^spine step second moment .* != sigma\^2 .*$")):
        with pytest.raises(CertificationError, match=message):
            make_spine(dataclasses.replace(vlaw_p03, profile=profile))


def test_unknown_functional_id_is_refused():
    with pytest.raises(ValueError, match=r"^unknown functional id 'no_such_id'$"):
        functional("no_such_id")


def test_exact_leaf_sum_needs_finite_displacements(law_gaussian):
    vlaw = make_vlaw(law_gaussian, solve_tstar(law_gaussian))
    with pytest.raises(ValueError, match=r"^the exact value needs finite displacement support$"):
        expected_leaf_sum_exact(vlaw, 3, functional("one"))


def test_size_bias_of_constant_is_constant(spine_p03):
    assert set(spine_p03.nu_values.tolist()) == {2}


def test_single_path_support(spine_p03, profile_p03):
    s, nu = _paths(spine_p03, 1, 1, replicate_stream(3, 0))
    lo = profile_p03.psi_tstar - profile_p03.t_star
    hi = profile_p03.psi_tstar
    assert s[0, 0] == pytest.approx(lo) or s[0, 0] == pytest.approx(hi)
    assert nu[0, 0] == 2


def test_empirical_mean_and_variance(spine_p03, profile_p03):
    k, n = 100_000, 20
    s, _ = _paths(spine_p03, n, k, replicate_stream(11, 0))
    end = s[:, -1] / n
    se = end.std(ddof=1) / math.sqrt(k)
    assert abs(end.mean()) <= 3.0 * se
    inc = np.diff(np.hstack([np.zeros((k, 1)), s]), axis=1).ravel()
    var = inc.var(ddof=1)
    se_var = inc.var(ddof=1) / math.sqrt(inc.size) * math.sqrt(2)  # rough CLT scale
    assert abs(var - profile_p03.sigma2) <= 5.0 * se_var + 1e-3


def test_explicit_spine_tilt(law_explicit):
    prof = solve_tstar(law_explicit)
    vlaw = make_vlaw(law_explicit, prof)
    sp = make_spine(vlaw)
    # outcome-level tilting keeps the certified moments
    assert abs(sp.s_mean) < 1e-12
    assert abs(sp.s_var - prof.sigma2) < 1e-10
    # nu is genuinely joint here: the (1,2) brood carries nu = 2
    assert set(sp.nu_values.tolist()) == {2}


def test_gaussian_spine_centered(law_gaussian):
    prof = solve_tstar(law_gaussian)
    sp = make_spine(make_vlaw(law_gaussian, prof))
    assert abs(sp.s_mean) < 1e-12
    assert abs(sp.s_var - prof.sigma2) < 1e-10
    s, nu = _paths(sp, 5, 50_000, replicate_stream(7, 1))
    # size-biased pmf of {1: .5, 3: .5} is {1: .25, 3: .75}
    freq3 = (nu == 3).mean()
    assert abs(freq3 - 0.75) <= 4.0 * math.sqrt(0.75 * 0.25 / nu.size)
    end = s[:, -1] / 5
    assert abs(end.mean()) <= 3.0 * end.std(ddof=1) / math.sqrt(50_000) + 1e-12


def test_martingale_mean_one(law_p03, vlaw_p03, spine_p03):
    rep = many_to_one_check(law_p03, vlaw_p03, spine_p03, 5, functional("one"),
                            30_000, seed=21)
    assert rep.exact == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.lhs_mean - 1.0) <= 3.0 * rep.lhs_stderr
    assert rep.rhs_mean == 1.0 and rep.rhs_stderr == 0.0
    assert rep.passed and not rep.vacuous


def test_many_to_one_corridor(law_p03, vlaw_p03, spine_p03):
    rep = many_to_one_check(law_p03, vlaw_p03, spine_p03, 4,
                            functional("below_line", slope=0.5), 30_000, seed=22)
    assert rep.passed
    assert rep.exact_in_lhs and rep.exact_in_rhs


def test_bivariate_constraint_vacuous_on_binary(law_p03, vlaw_p03, spine_p03):
    # nu = 2 always, so requiring nu <= 2 changes nothing: identical estimates
    uni = many_to_one_check(law_p03, vlaw_p03, spine_p03, 4,
                            functional("below_line", slope=0.5), 5_000, seed=23)
    biv = many_to_one_check(law_p03, vlaw_p03, spine_p03, 4,
                            functional("below_line_maxnu", slope=0.5, r=2), 5_000, seed=23)
    assert biv.lhs_mean == uni.lhs_mean
    assert biv.rhs_mean == uni.rhs_mean
    assert biv.exact == pytest.approx(uni.exact, rel=1e-12)


def test_exact_inside_both_intervals_full_library(law_p03, vlaw_p03, spine_p03, profile_p03):
    for func in default_library(profile_p03.sigma):
        rep = many_to_one_check(law_p03, vlaw_p03, spine_p03, 6, func, 40_000, seed=31)
        assert rep.passed, func.name
        assert rep.exact is not None
        assert rep.exact_in_lhs and rep.exact_in_rhs, func.name


def test_many_to_one_random_topology(law_mixed_offspring):
    prof = solve_tstar(law_mixed_offspring)
    vlaw = make_vlaw(law_mixed_offspring, prof)
    sp = make_spine(vlaw)
    rep = many_to_one_check(law_mixed_offspring, vlaw, sp, 4,
                            functional("below_line", slope=0.5), 20_000, seed=41)
    assert rep.passed
    assert rep.exact_in_lhs and rep.exact_in_rhs
    # genuinely size-biased counts: nu = k with probability k p_k / m
    s, nu = _paths(sp, 3, 40_000, replicate_stream(5, 5))
    m = 1.5
    for k, pk in ((1, 0.3), (2, 0.3), (3, 0.2)):
        target = k * pk / m
        freq = (nu == k).mean()
        assert abs(freq - target) <= 4.0 * math.sqrt(target * (1 - target) / nu.size)


def test_many_to_one_check_refuses_a_spine_of_another_law(vlaw_p03, spine_p03,
                                                         law_mixed_offspring):
    # the binary spine against the mixed law's identity would compare two
    # different expectations
    vlaw = make_vlaw(law_mixed_offspring, solve_tstar(law_mixed_offspring))
    f = functional("below_line", slope=0.5)
    with pytest.raises(ValueError):
        many_to_one_check(law_mixed_offspring, vlaw, spine_p03, 4, f, 1_000)
    with pytest.raises(ValueError):
        many_to_one_check(law_mixed_offspring, vlaw_p03, spine_p03, 4, f, 1_000)


def test_explicit_many_to_one(law_explicit):
    prof = solve_tstar(law_explicit)
    vlaw = make_vlaw(law_explicit, prof)
    sp = make_spine(vlaw)
    rep = many_to_one_check(law_explicit, vlaw, sp, 4,
                            functional("below_line", slope=0.8), 20_000, seed=43)
    assert rep.passed
    assert rep.exact_in_lhs and rep.exact_in_rhs


def test_many_to_one_gaussian_mc_vs_mc(law_gaussian):
    # no lattice, so no exact route: the two MC estimates must still agree
    prof = solve_tstar(law_gaussian)
    vlaw = make_vlaw(law_gaussian, prof)
    sp = make_spine(vlaw)
    rep = many_to_one_check(law_gaussian, vlaw, sp, 4,
                            functional("below_line", slope=0.5), 15_000, seed=61)
    assert rep.exact is None
    assert rep.passed and not rep.vacuous


def test_enumeration_matches_martingale(vlaw_p03):
    # E[sum e^{-V}] over n generations is exactly 1 for every n
    for n in (1, 2, 3, 5):
        val = expected_leaf_sum_exact(vlaw_p03, n, functional("one"))
        assert val == pytest.approx(1.0, abs=1e-12)


SKEWED = ProductLaw(((0, 0.1), (1, 0.3), (2, 0.4), (3, 0.2)),
                    DiscreteFinite(((-1.0, 0.3), (0.0, 0.3), (2.0, 0.4))))
EXPLICIT = ExplicitFinite((((), 0.25), ((0.0, 1.0), 0.45), ((-1.0, 1.0, 2.0), 0.3)))


@pytest.mark.parametrize("law", ["law_p03", "law_mixed_offspring", SKEWED, EXPLICIT,
                                 "law_tenths"], ids=["binary", "mixed", "skewed", "explicit",
                                                     "tenths"])
def test_exact_value_matches_enumeration(law, request):
    # n <= 6, or as deep as 2^21 atom sequences reach: tenths has 20 child
    # atoms, so it stops at n = 4
    if isinstance(law, str):
        law = request.getfixturevalue(law)
    vl = make_vlaw(law, solve_tstar(law))
    atoms = make_spine(vl).s_values.size     # one per child atom
    for n in range(1, 7):
        if atoms ** n > 1 << 21:
            break
        for f in default_library(vl.profile.sigma):
            ref = enumerated_leaf_sum(vl, n, f)
            assert expected_leaf_sum_exact(vl, n, f) == pytest.approx(ref, rel=1e-13, abs=0), \
                (n, f.name)


def test_exact_value_at_depth_40_matches_the_corridor_walk(vlaw_p03, spine_p03):
    # 2^40 atom sequences: far past enumeration.  The binary spine steps
    # S_i - S_{i-1} = psi - t* u with u in {0, 1}, so S_i <= slope i reads
    # U_i >= (psi - slope) i / t*, a corridor of the spine walk's own DP
    n, slope = 40, 0.5
    i = np.arange(1, n + 1)
    lower = np.ceil((vlaw_p03.psi_tstar - slope) * i / vlaw_p03.t_star)
    walk, _ = exact_corridor_walk([0, 1], spine_p03.probs, lower, i)
    exact = expected_leaf_sum_exact(vlaw_p03, n, functional("below_line", slope=slope))
    assert exact == pytest.approx(walk, rel=1e-12)
    assert expected_leaf_sum_exact(vlaw_p03, n, functional("one")) == \
        pytest.approx(1.0, abs=1e-12)


def test_exact_value_at_depth_1000(vlaw_p03, spine_p03):
    # the martingale's mean stays 1, and the spine route at the paper's depths
    # meets the exact value
    assert expected_leaf_sum_exact(vlaw_p03, 1000, functional("one")) == \
        pytest.approx(1.0, abs=1e-12)
    f = functional("below_line", slope=0.5)
    exact = expected_leaf_sum_exact(vlaw_p03, 1000, f)
    mean, se = spine_many_to_one_rhs(spine_p03, 1000, f, 16_384, seed=3)
    assert abs(mean - exact) <= 4.0 * se


def test_exact_value_past_the_enumeration_reach(law_tenths):
    # 20 child atoms: n = 5 is 3.2 million atom sequences, and the check
    # still reports the exact value
    vlaw = make_vlaw(law_tenths, solve_tstar(law_tenths))
    rep = many_to_one_check(law_tenths, vlaw, make_spine(vlaw), 5,
                            functional("below_line", slope=0.5), 4_000, seed=7)
    assert rep.exact is not None
    assert rep.passed and rep.exact_in_lhs and rep.exact_in_rhs


def test_top_uniform_draws_the_last_spine_atom(law_tenths, top_uniform):
    sp = make_spine(make_vlaw(law_tenths, solve_tstar(law_tenths)))
    s, nu = _paths(sp, 2, 3, top_uniform)
    assert s[:, 0].tolist() == [sp.s_values[-1]] * 3
    assert nu.tolist() == [[sp.nu_values[-1]] * 2] * 3


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_route_memory(vlaw_p03):
    # one chunk of 64 replicates at n = 12; re-stacking every particle's
    # whole path at each generation peaked at 93 MB
    f = functional("below_line_maxnu", slope=0.5, r=2)
    assert _peak_bytes(lambda: tree_many_to_one_lhs(vlaw_p03, 12, f, 64, seed=1)) < 32 << 20


def test_exact_route_memory(vlaw_p03):
    # n = 18: a digit matrix of all 2^18 atom sequences peaked at 125 MB
    f = functional("below_line_maxnu", slope=0.5, r=2)
    assert _peak_bytes(lambda: expected_leaf_sum_exact(vlaw_p03, 18, f)) < 32 << 20


def test_spine_route_memory_does_not_grow_with_n(law_gaussian):
    # one chunk of 8,192 paths at n = 400; drawn as whole (chunk, n)
    # matrices it peaked at 79 MB
    sp = make_spine(make_vlaw(law_gaussian, solve_tstar(law_gaussian)))
    run = lambda: spine_many_to_one_rhs(sp, 400, functional("one"), 8192, seed=1)
    assert _peak_bytes(run) < 40 << 20


def test_routes_at_the_root(vlaw_p03, spine_p03):
    # at n = 0 every route reads F on the empty path
    for f in (functional("one"), functional("exp_capped", u=1.0, cap=2.0),
              functional("below_line", slope=0.5)):
        assert tree_many_to_one_lhs(vlaw_p03, 0, f, 200, seed=1)[0] == 1.0
        assert spine_many_to_one_rhs(spine_p03, 0, f, 200, seed=1)[0] == 1.0
        assert expected_leaf_sum_exact(vlaw_p03, 0, f) == 1.0


@pytest.mark.parametrize("route", ["tree", "spine", "exact", "check"])
def test_routes_refuse_a_negative_depth(law_p03, vlaw_p03, spine_p03, route):
    # at n = -2 every route read 1.0, the value of the empty path, and the
    # check reported lhs = rhs = 1.0 as passed
    f = functional("below_line", slope=0.5)
    run = {"tree": lambda: tree_many_to_one_lhs(vlaw_p03, -2, f, 200, seed=1),
           "spine": lambda: spine_many_to_one_rhs(spine_p03, -2, f, 200, seed=1),
           "exact": lambda: expected_leaf_sum_exact(vlaw_p03, -2, f),
           "check": lambda: many_to_one_check(law_p03, vlaw_p03, spine_p03, -2, f, 200)}
    with pytest.raises(ValueError, match="n must"):
        run[route]()


@pytest.mark.parametrize("law", ["law_p03", "law_gaussian"])
def test_spine_route_is_coupled_across_depth(law, request):
    # a path reads the same first n steps at every depth, so a constraint
    # kept at every level can only lose paths as n grows
    law = request.getfixturevalue(law)
    sp = make_spine(make_vlaw(law, solve_tstar(law)))
    for f in (functional("below_line", slope=0.5), functional("band", half_width=2.0)):
        means = [spine_many_to_one_rhs(sp, n, f, 20_000, seed=5)[0] for n in range(1, 31)]
        assert all(b <= a for a, b in zip(means, means[1:])), f.name


def test_single_count_gaussian_spine_step_draws_only_normals():
    # with one child count nu is fixed, so a level reads k normals and no
    # uniforms: the generator ends where a twin that drew only the normals does
    law = ProductLaw(((2, 1.0),), Gaussian(0.3, 1.5))
    sp = make_spine(make_vlaw(law, solve_tstar(law)))
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    inc, nu = sample_spine_step(sp, 1000, rng)
    z = twin.normal(size=1000)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert nu.tolist() == [2] * 1000
    t, psi = sp.vlaw.t_star, sp.vlaw.psi_tstar
    assert np.allclose(inc, -t * (0.3 + 1.5 ** 2 * t) + psi + t * 1.5 * z, rtol=0, atol=1e-12)
