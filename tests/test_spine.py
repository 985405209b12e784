import math
import tracemalloc

import numpy as np
import pytest

from kbrw.analysis import solve_tstar
from kbrw.rng import replicate_stream
from kbrw.spine import (default_library, expected_leaf_sum_exact, functional,
                        make_spine, many_to_one_check, sample_spine_step,
                        spine_many_to_one_rhs, tree_many_to_one_lhs)
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


def test_enumeration_budget_guard(vlaw_p03):
    with pytest.raises(ValueError):
        expected_leaf_sum_exact(vlaw_p03, 40, functional("one"))


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
    # 2^18 atom sequences; a digit matrix of all of them peaked at 125 MB
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


@pytest.mark.parametrize("law", ["law_p03", "law_gaussian"])
def test_spine_route_is_coupled_across_depth(law, request):
    # a path reads the same first n steps at every depth, so a constraint
    # kept at every level can only lose paths as n grows
    law = request.getfixturevalue(law)
    sp = make_spine(make_vlaw(law, solve_tstar(law)))
    for f in (functional("below_line", slope=0.5), functional("band", half_width=2.0)):
        means = [spine_many_to_one_rhs(sp, n, f, 20_000, seed=5)[0] for n in range(1, 31)]
        assert all(b <= a for a, b in zip(means, means[1:])), f.name
