import math

import numpy as np
import pytest

from kbrw import simulate, spine
from kbrw.analysis import solve_tstar
from kbrw.errors import GridExhausted
from kbrw.models import Gaussian, ProductLaw
from kbrw.oracle import LatticeLaw, exact_path_survival
from kbrw.rng import replicate_stream
from kbrw.simulate import (BarrierSpec, GwEmbedParams, escape_cap_sweep,
                           estimate_M_kappa, estimate_rho, simulate_G)
from kbrw.spine import functional, tree_many_to_one_lhs
from kbrw.stats import proportion_stderr
from kbrw.transform import make_vlaw


def test_barrier_spec_validation(profile_p03):
    with pytest.raises(ValueError):
        BarrierSpec("W", 0.1)
    with pytest.raises(ValueError):
        BarrierSpec("V", -0.1)
    b = BarrierSpec("U", 0.05)
    assert b.v_slope(profile_p03) == pytest.approx(0.05 * profile_p03.t_star)
    assert BarrierSpec("V", 0.1).v_slope(profile_p03) == 0.1


def test_one_generation_exact(vlaw_p03):
    # slope 0, n=1: survive iff some child took the u=1 step; 1-(1-p)^2 = 0.51
    reps = 40_000
    est = estimate_rho(vlaw_p03, 0.0, 1, reps, escape_cap=math.inf, seed=99)
    assert abs(est.p_hat - 0.51) <= 3.0 * proportion_stderr(0.51, reps)


def test_no_barrier_certain_survival(vlaw_p03):
    est = estimate_rho(vlaw_p03, 1e6, 10, 200, escape_cap=10_000, seed=5)
    assert est.p_hat == 1.0
    assert est.survivors == 200


def test_escape_cap_truncation(vlaw_p03):
    # a huge slope with a tiny cap: every replicate escapes immediately
    est = estimate_rho(vlaw_p03, 1e6, 30, 150, escape_cap=4, seed=6)
    assert est.p_hat == 1.0
    assert est.cap_hits == 150
    # cap 1: the root alone reaches it, so every replicate is a cap hit
    est = estimate_rho(vlaw_p03, 1e6, 30, 150, escape_cap=1, seed=6)
    assert est.p_hat == 1.0
    assert est.cap_hits == 150


def test_replicate_floor(vlaw_p03):
    with pytest.raises(ValueError):
        estimate_rho(vlaw_p03, 0.1, 5, 99, seed=1)


def test_gaussian_law_one_generation_closed_form(law_gaussian):
    # no DP oracle exists off the lattice, but n=1 has a normal-CDF closed
    # form: survive iff some child has V <= b, children count in {1, 3}
    from kbrw.analysis import solve_tstar
    from kbrw.transform import make_vlaw
    prof = solve_tstar(law_gaussian)
    vlaw = make_vlaw(law_gaussian, prof)
    b = 0.5
    # V = -t* Y + psi with Y ~ N(0,1):  P(V > b) = Phi((psi - b)/t*) since
    # V > b  <=>  Y < (psi - b)/t*
    q = 0.5 * (1.0 + math.erf((prof.psi_tstar - b) / prof.t_star / math.sqrt(2.0)))
    exact = 0.5 * (1.0 - q) + 0.5 * (1.0 - q ** 3)
    reps = 40_000
    est = estimate_rho(vlaw, b, 1, reps, escape_cap=math.inf, seed=612)
    assert abs(est.p_hat - exact) <= 3.0 * proportion_stderr(exact, reps)


def test_escape_cap_sweep_exactly_monotone(vlaw_p03):
    # shared streams couple the runs: survival indicators are pointwise
    # non-increasing in the cap, so the estimates are too (no noise term)
    ests = escape_cap_sweep(vlaw_p03, 0.3, 14, 3_000, caps=(4, 16, 64, 256, math.inf),
                            seed=55)
    phats = [e.p_hat for e in ests]
    assert all(a >= b for a, b in zip(phats, phats[1:]))
    assert ests[-1].cap_hits == 0
    # the bias collapses once the cap clears the surviving-population scale
    assert phats[-2] == phats[-1]


def test_escape_cap_sweep_reads_one_run(vlaw_p03):
    sweep = escape_cap_sweep(vlaw_p03, 0.3, 14, 500, caps=(1, 4, 16, math.inf), seed=56)
    assert sweep[-1] == estimate_rho(vlaw_p03, 0.3, 14, 500, escape_cap=math.inf, seed=56)
    assert sweep[0].p_hat == 1.0
    assert sweep[0].cap_hits == 500


_FIRST_CHUNK_RUNS = {
    "estimate_rho": lambda v, reps: estimate_rho(v, 0.3, 10, reps, seed=3),
    "estimate_M_kappa": lambda v, reps: estimate_M_kappa(v, j_max=6, replicates=reps, seed=4),
    "simulate_G": lambda v, reps: simulate_G(
        v, GwEmbedParams(n=8, eps=0.6, alpha=0.5, L=6, M=0.2), reps, seed=5),
    "tree_many_to_one_lhs": lambda v, reps: tree_many_to_one_lhs(
        v, 5, functional("below_line", slope=0.5), reps, seed=6),
}


@pytest.mark.parametrize("routine", sorted(_FIRST_CHUNK_RUNS))
def test_first_chunk_independent_of_replicates(monkeypatch, vlaw_p03, routine):
    # every population step goes through _advance; the steps of the first
    # chunk must not depend on how many chunks follow it
    chunk = 100   # estimate_rho needs at least 100 replicates
    monkeypatch.setattr(simulate, "CHUNK", chunk)
    monkeypatch.setattr(spine, "CHUNK", chunk)
    advance, steps = simulate._advance, []

    def recording(*args):
        out = advance(*args)
        steps.append(out)
        return out

    monkeypatch.setattr(simulate, "_advance", recording)
    monkeypatch.setattr(spine, "_advance", recording)
    runs = []
    for reps in (chunk, 3 * chunk):
        steps.clear()
        runs.append((_FIRST_CHUNK_RUNS[routine](vlaw_p03, reps), list(steps)))
    (one, one_steps), (three, three_steps) = runs
    assert 0 < len(one_steps) < len(three_steps)
    for a, b in zip(one_steps, three_steps):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    if routine == "simulate_G":
        assert np.array_equal(one, three[:chunk])


def test_population_guard(monkeypatch, vlaw_p03):
    # a binary chunk doubles every generation, so 10 generations pass 1,000
    monkeypatch.setattr(simulate, "POPULATION_GUARD", 1_000)
    with pytest.raises(GridExhausted):
        estimate_M_kappa(vlaw_p03, j_max=10, replicates=200, seed=1)


def test_determinism_bitwise(vlaw_p03):
    a = estimate_rho(vlaw_p03, 0.1, 8, 500, escape_cap=1000, seed=42)
    b = estimate_rho(vlaw_p03, 0.1, 8, 500, escape_cap=1000, seed=42)
    c = estimate_rho(vlaw_p03, 0.1, 8, 500, escape_cap=1000, seed=43)
    assert a == b
    assert a != c


def test_wilson_interval_contains_estimate(vlaw_p03):
    est = estimate_rho(vlaw_p03, 0.05, 10, 2_000, seed=3)
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.survivors <= est.replicates


def test_mc_matches_oracle(law_p03, vlaw_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    reps = 30_000
    for slope, n in ((0.1, 6), (0.2, 10)):
        est = estimate_rho(vlaw_p03, slope, n, reps, escape_cap=math.inf, seed=70 + n)
        exact = exact_path_survival(ll, n, v_slope=slope, profile=profile_p03)
        assert abs(est.p_hat - exact) <= 3.0 * proportion_stderr(exact, reps)


def test_monotonicity_within_noise(vlaw_p03):
    reps = 20_000
    by_n = [estimate_rho(vlaw_p03, 0.1, n, reps, seed=80 + n).p_hat for n in (4, 8, 12)]
    for a, b in zip(by_n, by_n[1:]):
        assert b <= a + 3.0 * proportion_stderr(max(a, 1e-9), reps)
    by_slope = [estimate_rho(vlaw_p03, s, 8, reps, seed=90).p_hat for s in (0.05, 0.1, 0.2)]
    for a, b in zip(by_slope, by_slope[1:]):
        assert b >= a - 3.0 * proportion_stderr(max(b, 1e-9), reps)


def test_u_coordinate_barrier_consistency(law_p03, vlaw_p03, profile_p03):
    # same event through either coordinate parameterization
    eps_u = 0.02
    spec_u = BarrierSpec("U", eps_u)
    spec_v = BarrierSpec("V", eps_u * profile_p03.t_star)
    a = estimate_rho(vlaw_p03, spec_u, 8, 5_000, seed=101)
    b = estimate_rho(vlaw_p03, spec_v, 8, 5_000, seed=101)
    assert a.survivors == b.survivors


def test_estimate_M_kappa(vlaw_p03, profile_p03):
    M, kappa = estimate_M_kappa(vlaw_p03, j_max=10, replicates=500, seed=12)
    # for Bernoulli steps V <= psi(t*) |x| always, and the one-generation
    # enumeration P{max V <= M} = 1 requires M >= psi(t*)
    assert M == pytest.approx(profile_p03.psi_tstar, abs=0.05)
    j1_exact = 1.0 if M >= profile_p03.psi_tstar - 1e-9 else 0.09
    assert j1_exact >= 0.5 - 3.0 * math.sqrt(0.25 / 500)
    # binary tree never dies: kappa equals the corridor mass itself
    assert 0.0 < kappa <= 1.0
    gw_survival = 1.0
    assert kappa <= gw_survival


def test_estimate_M_kappa_gaussian_grid_ignores_step_mean():
    # the centred walk of N(mu, 1) steps does not depend on mu, so neither
    # may the default grid; without the -t* mu shift, mu = -10 ran off its end
    results = []
    for mu in (0.0, 3.0, -2.0, -10.0):
        law = ProductLaw(((2, 1.0),), Gaussian(mu, 1.0))
        vlaw = make_vlaw(law, solve_tstar(law))
        results.append(estimate_M_kappa(vlaw, j_max=6, replicates=400, seed=3))
    M0, kappa0 = results[0]
    assert kappa0 == 0.435
    for M, kappa in results[1:]:
        assert M == pytest.approx(M0, rel=1e-14) and kappa == kappa0


def test_estimate_M_grid_exhaustion(vlaw_p03):
    with pytest.raises(GridExhausted):
        estimate_M_kappa(vlaw_p03, j_max=5, replicates=200, seed=1,
                         grid=np.array([1e-6]))


def test_gw_embed_params_validation():
    with pytest.raises(ValueError):
        GwEmbedParams(n=10, eps=0.1, alpha=1.5, L=5, M=1.0)
    with pytest.raises(ValueError):
        GwEmbedParams(n=10, eps=0.1, alpha=0.5, L=10, M=1.0)
    good = GwEmbedParams(n=12, eps=0.5, alpha=0.5, L=11, M=2.34)
    assert good.satisfies_block_inequality
    bad = GwEmbedParams(n=12, eps=0.1, alpha=0.5, L=11, M=2.34)
    assert not bad.satisfies_block_inequality


def test_simulate_G_rejects_bad_params(vlaw_p03):
    params = GwEmbedParams(n=12, eps=0.1, alpha=0.5, L=11, M=2.34)
    with pytest.raises(ValueError):
        simulate_G(vlaw_p03, params, 100, seed=1)


def test_simulate_G_subset_of_generation(vlaw_p03):
    # counts can never exceed the binary-tree generation size
    params = GwEmbedParams(n=6, eps=1.0, alpha=0.5, L=5, M=2.34)
    assert params.satisfies_block_inequality
    counts = simulate_G(vlaw_p03, params, 2_000, seed=14)
    assert counts.min() >= 0
    assert counts.max() <= 2 ** 6


def _brute_force_G_count(vlaw, params, rng):
    """Literal transcription of the two-phase set on an explicit tree."""
    from kbrw import models
    levels = [[(0.0, None)]]  # (V, parent index)
    for g in range(1, params.n + 1):
        prev, cur = levels[-1], []
        for parent_idx, (pv, _) in enumerate(prev):
            counts, flat = models.sample_broods(vlaw.base, 1, rng)
            for d in flat:
                cur.append((pv + float(vlaw.v_increment(d)), parent_idx))
        levels.append(cur)

    def ancestors(level, idx):
        path = []
        for g in range(level, 0, -1):
            path.append(levels[g][idx])
            idx = levels[g][idx][1]
        return list(reversed(path))  # entries (V, parent) for generations 1..level

    def descendants_ok(l_level, l_idx, limit):
        base_v = levels[l_level][l_idx][0]
        frontier = {l_idx}
        for g in range(l_level + 1, params.n + 1):
            nxt = set()
            for i, (v, parent) in enumerate(levels[g]):
                if parent in frontier:
                    if v - base_v > limit + 1e-9:
                        return False
                    nxt.add(i)
            frontier = nxt
        return True

    limit = (1.0 - params.alpha) * params.eps * params.L
    count = 0
    for idx in range(len(levels[params.n])):
        path = ancestors(params.n, idx)
        ok = all(v <= params.alpha * params.eps * g + 1e-9
                 for g, (v, _) in enumerate(path[:params.L], start=1))
        if not ok:
            continue
        # locate the level-L ancestor of this leaf
        l_idx = idx
        for g in range(params.n, params.L, -1):
            l_idx = levels[g][l_idx][1]
        if descendants_ok(params.L, l_idx, limit):
            count += 1
    return count


def _compare_count_distributions(fast, slow):
    # engine and literal enumeration sample different trees, so compare the
    # induced distributions: emptiness frequency and mean within 4 sigma
    for stat in (lambda c: (c == 0).astype(float), lambda c: c.astype(float)):
        a, b = stat(fast), stat(slow)
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 4.0 * se + 1e-12


def test_simulate_G_matches_brute_force_zero_eps(vlaw_p03):
    # eps = 0 sits outside the lemma's parameter regime (the block inequality
    # cannot hold), but the set itself is still well defined: cross-check the
    # engine against a literal transcription of the definition at n=4
    params = GwEmbedParams(n=4, eps=0.0, alpha=0.5, L=2, M=2.34)
    assert not params.satisfies_block_inequality
    fast = simulate_G(vlaw_p03, params, 3_000, seed=77, strict=False)
    slow = np.array([_brute_force_G_count(vlaw_p03, params,
                                          replicate_stream(1077, i))
                     for i in range(3_000)])
    _compare_count_distributions(fast, slow)


def test_simulate_G_matches_brute_force_generic(vlaw_p03):
    params = GwEmbedParams(n=5, eps=0.6, alpha=0.5, L=4, M=1.2)
    fast = simulate_G(vlaw_p03, params, 3_000, seed=78, strict=False)
    slow = np.array([_brute_force_G_count(vlaw_p03, params,
                                          replicate_stream(1078, i))
                     for i in range(3_000)])
    _compare_count_distributions(fast, slow)


def test_lemma_lower_bound_direction(law_p03, vlaw_p03, profile_p03):
    # small version of the acceptance criterion
    M, _ = estimate_M_kappa(vlaw_p03, j_max=10, replicates=400, seed=15)
    n, alpha, L = 8, 0.5, 7
    eps = M * (n - L) / ((1 - alpha) * L) * 1.05
    params = GwEmbedParams(n=n, eps=eps, alpha=alpha, L=L, M=M)
    assert params.satisfies_block_inequality
    reps = 3_000
    counts = simulate_G(vlaw_p03, params, reps, seed=16)
    p_nonempty = float((counts > 0).mean())
    ll = LatticeLaw.from_law(law_p03)
    rho = exact_path_survival(ll, n, v_slope=alpha * eps, profile=profile_p03)
    assert p_nonempty >= 0.5 * rho - 3.0 * proportion_stderr(max(p_nonempty, 1e-9), reps)
    # direction of the small-count bound: conditioned on non-emptiness the
    # counts concentrate away from tiny values (the bulk sits well above 2)
    hist = np.bincount(counts)
    assert hist[0] == (counts == 0).sum()
    nonempty = counts[counts > 0]
    assert (nonempty <= 2).mean() < 0.5
    assert nonempty.mean() > 2.0
