import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import proportion_stderr, sample_broods
from kbrw import simulate, spine, stats
from kbrw.analysis import solve_tstar
from kbrw.errors import GridExhausted
from kbrw.models import BinaryBernoulli, ExplicitFinite, Gaussian, ProductLaw
from kbrw.oracle import LatticeLaw, exact_path_survival
from kbrw.rng import replicate_stream
from kbrw.simulate import (BarrierSpec, GwEmbedParams, escape_cap_sweep,
                           estimate_M_kappa, estimate_rho, simulate_G)
from kbrw.spine import functional, tree_many_to_one_lhs
from kbrw.transform import make_vlaw


def test_barrier_spec_validation(profile_p03):
    with pytest.raises(ValueError):
        BarrierSpec("W", 0.1)
    with pytest.raises(ValueError):
        BarrierSpec("V", -0.1)
    b = BarrierSpec("U", 0.05)
    assert b.v_slope(profile_p03) == pytest.approx(0.05 * profile_p03.t_star)
    assert BarrierSpec("V", 0.1).v_slope(profile_p03) == 0.1


def test_barrier_spec_maps_u_to_v(profile_p0, profile_p03):
    t_star_p0 = math.log(7.0 + 4.0 * math.sqrt(3.0))
    assert BarrierSpec("U", 0.0).v_slope(profile_p03) == 0.0
    assert BarrierSpec("U", 0.01).v_slope(profile_p0) == \
        pytest.approx(0.01 * t_star_p0, rel=1e-12)
    assert BarrierSpec("U", 0.01).v_slope(profile_p0) == \
        pytest.approx(0.026339157938496337, rel=1e-12)
    with pytest.raises(ValueError):
        BarrierSpec("U", -0.1)


@given(st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_barrier_spec_round_trip(eps):
    prof = solve_tstar(BinaryBernoulli(0.3))
    assert BarrierSpec("U", eps).v_slope(prof) / prof.t_star == \
        pytest.approx(eps, rel=1e-15, abs=1e-300)


def test_barrier_spec_u_line_on_the_pemantle_grid(profile_p03):
    # the shipped eps_U grid and the benchmark's, down to 0.003, bit for bit:
    # the pinned pemantle rho values depend on this very rounding
    p = profile_p03
    for e in (0.05, 0.04, 0.03, 0.02, 0.01, 0.005, 0.003):
        assert BarrierSpec("U", e).u_line(p) == (p.psi_tstar - p.t_star * e) / p.t_star
    # a V line of slope b keeps U >= (psi - b) / t*
    assert BarrierSpec("V", 0.1).u_line(p) == (p.psi_tstar - 0.1) / p.t_star


def test_one_generation_exact(vlaw_p03):
    # slope 0, n=1: survive iff some child took the u=1 step; 1-(1-p)^2 = 0.51
    reps = 40_000
    est = estimate_rho(vlaw_p03, BarrierSpec("V", 0.0), 1, reps, escape_cap=math.inf, seed=99)
    assert abs(est.p_hat - 0.51) <= 3.0 * proportion_stderr(0.51, reps)


def test_no_barrier_certain_survival(vlaw_p03):
    est = estimate_rho(vlaw_p03, BarrierSpec("V", 1e6), 10, 200, escape_cap=10_000, seed=5)
    assert est.p_hat == 1.0
    assert est.survivors == 200


def test_escape_cap_truncation(vlaw_p03):
    # a huge slope with a tiny cap: every replicate escapes immediately
    est = estimate_rho(vlaw_p03, BarrierSpec("V", 1e6), 30, 150, escape_cap=4, seed=6)
    assert est.p_hat == 1.0
    assert est.cap_hits == 150
    # cap 1: the root alone reaches it, so every replicate is a cap hit
    est = estimate_rho(vlaw_p03, BarrierSpec("V", 1e6), 30, 150, escape_cap=1, seed=6)
    assert est.p_hat == 1.0
    assert est.cap_hits == 150


def test_replicate_floor(vlaw_p03):
    with pytest.raises(ValueError):
        estimate_rho(vlaw_p03, BarrierSpec("V", 0.1), 5, 99, seed=1)


@pytest.mark.parametrize("cap", [0.5, 0, math.nan])
def test_escape_cap_below_one_is_refused(vlaw_p03, cap):
    with pytest.raises(ValueError, match=r"^escape_cap must be >= 1 \(may be math.inf\)$"):
        escape_cap_sweep(vlaw_p03, BarrierSpec("V", 0.1), 6, 1_000, (4, cap), seed=1)


def test_M_kappa_needs_one_generation(vlaw_p03):
    with pytest.raises(ValueError, match=r"^j_max must be >= 1$"):
        estimate_M_kappa(vlaw_p03, j_max=0)


@pytest.mark.parametrize("slope", [0.1, math.nan, -0.5])
def test_bare_slope_is_not_a_barrier(vlaw_p03, slope):
    # the line must come through BarrierSpec, whose check refuses NaN and -0.5
    with pytest.raises(AttributeError):
        estimate_rho(vlaw_p03, slope, 6, 1_000, seed=1)
    with pytest.raises(AttributeError):
        escape_cap_sweep(vlaw_p03, slope, 6, 1_000, (4, math.inf), seed=1)


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
    est = estimate_rho(vlaw, BarrierSpec("V", b), 1, reps, escape_cap=math.inf, seed=612)
    assert abs(est.p_hat - exact) <= 3.0 * proportion_stderr(exact, reps)


def test_escape_cap_sweep_exactly_monotone(vlaw_p03):
    # shared streams couple the runs: survival indicators are pointwise
    # non-increasing in the cap, so the estimates are too (no noise term)
    ests = escape_cap_sweep(vlaw_p03, BarrierSpec("V", 0.3), 14, 3_000,
                            caps=(4, 16, 64, 256, math.inf), seed=55)
    phats = [e.p_hat for e in ests]
    assert all(a >= b for a, b in zip(phats, phats[1:]))
    assert ests[-1].cap_hits == 0
    # the bias collapses once the cap clears the surviving-population scale
    assert phats[-2] == phats[-1]


def test_escape_cap_sweep_reads_one_run(vlaw_p03):
    line = BarrierSpec("V", 0.3)
    sweep = escape_cap_sweep(vlaw_p03, line, 14, 500, caps=(1, 4, 16, math.inf), seed=56)
    assert sweep[-1] == estimate_rho(vlaw_p03, line, 14, 500, escape_cap=math.inf, seed=56)
    assert sweep[0].p_hat == 1.0
    assert sweep[0].cap_hits == 500


@pytest.mark.parametrize("caps", [(1_000,), (4, 16, math.inf)])
def test_survival_refuses_a_negative_depth(vlaw_p03, caps):
    # a walk asked for depth -3 read p_hat 1.0: no generation ran, so every
    # replicate looked alive
    with pytest.raises(ValueError, match="n must"):
        escape_cap_sweep(vlaw_p03, BarrierSpec("V", 0.3), -3, 200, caps, seed=1)
    with pytest.raises(ValueError, match="n must"):
        estimate_rho(vlaw_p03, BarrierSpec("V", 0.3), -3, 200, escape_cap=caps[0], seed=1)


def test_escape_cap_sweep_refuses_no_caps(vlaw_p03):
    with pytest.raises(ValueError, match="at least one escape cap"):
        escape_cap_sweep(vlaw_p03, BarrierSpec("V", 0.3), 5, 200, caps=[], seed=1)


_FIRST_CHUNK_RUNS = {
    "estimate_rho": lambda v, reps: estimate_rho(v, BarrierSpec("V", 0.3), 10, reps, seed=3),
    "estimate_M_kappa": lambda v, reps: estimate_M_kappa(v, j_max=6, replicates=reps, seed=4),
    "simulate_G": lambda v, reps: simulate_G(
        v, GwEmbedParams(n=8, eps=0.6, alpha=0.5, L=6, M=0.2), reps, seed=5),
    "tree_many_to_one_lhs": lambda v, reps: tree_many_to_one_lhs(
        v, 5, functional("below_line", slope=0.5), reps, seed=6),
}


@pytest.mark.parametrize("routine", sorted(_FIRST_CHUNK_RUNS))
def test_first_chunk_independent_of_replicates(monkeypatch, vlaw_p03, routine):
    # every population step goes through _advance; the first chunk's part of
    # each step must not depend on how many chunks follow it in its group
    chunk = 100   # estimate_rho needs at least 100 replicates
    monkeypatch.setattr(simulate, "CHUNK", chunk)
    monkeypatch.setattr(spine, "CHUNK", chunk)
    monkeypatch.setattr(simulate, "GROUP_BUDGET", 10 ** 9)   # one group per run
    advance, steps, shared = simulate._advance, [], []

    def recording(sample, vlaw, rngs, cols):
        owner = cols[0]
        counts = advance(sample, vlaw, rngs, cols)
        parents, children = np.searchsorted(owner, chunk), np.searchsorted(cols[0], chunk)
        steps.append((cols[0][:children], cols[1][:children], counts[:parents]))
        shared.append(parents < owner.size)
        return counts

    monkeypatch.setattr(simulate, "_advance", recording)
    monkeypatch.setattr(spine, "_advance", recording)
    runs = []
    for reps in (chunk, 3 * chunk):
        steps.clear()
        shared.clear()
        runs.append((_FIRST_CHUNK_RUNS[routine](vlaw_p03, reps), list(steps)))
    (one, one_steps), (three, three_steps) = runs
    assert 0 < len(one_steps) <= len(three_steps)
    assert any(shared)   # the first chunk shared steps with the others
    for a, b in zip(one_steps, three_steps):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # steps the first chunk no longer takes part in hold none of its particles
    assert all(x.size == 0 for step in three_steps[len(one_steps):] for x in step)
    if routine == "simulate_G":
        assert np.array_equal(one, three[:chunk])


# atomic broods with an empty one
_EXPLICIT_EMPTY = ExplicitFinite((((), 0.25), ((0.0, 1.0), 0.45), ((-1.0, 1.0, 2.0), 0.3)))


def _population_outputs(vlaw):
    peak = np.empty(700, dtype=np.int64)
    last = [(first + owner, v) for first, _, _, (owner, v)
            in simulate._killed(vlaw, 1.0, 12, 50, 3, 700, peak)]
    return {
        "killed": (peak, *map(np.concatenate, zip(*last))),
        "sweep": escape_cap_sweep(vlaw, BarrierSpec("V", 1.0), 12, 700, (2, 50, math.inf), seed=3),
        "M_kappa": estimate_M_kappa(vlaw, j_max=7, replicates=900, seed=4),
        "G": simulate_G(vlaw, GwEmbedParams(n=9, eps=3.0, alpha=0.5, L=6, M=0.2), 1000,
                        seed=6, strict=False),
        "tree": tree_many_to_one_lhs(vlaw, 6, functional("below_line", slope=0.5), 1500,
                                     seed=7),
    }


@pytest.mark.parametrize("law", ["binary", "mixed", "gaussian", "explicit_empty"])
def test_group_layout_leaves_results_unchanged(monkeypatch, request, law):
    # a group decides only which chunks share array operations: groups of 1,
    # 7 and 256 chunks, and groups that split mid-run under a small budget,
    # must give the same arrays as the default layout
    base = {"binary": request.getfixturevalue("law_p03"),
            "mixed": request.getfixturevalue("law_mixed_offspring"),
            "gaussian": request.getfixturevalue("law_gaussian"),
            "explicit_empty": _EXPLICIT_EMPTY}[law]
    vlaw = make_vlaw(base, solve_tstar(base))
    reference = _population_outputs(vlaw)
    assert reference["sweep"][1].cap_hits > 0   # cap 50 stops some replicates
    halves, splits = simulate._halves, []
    monkeypatch.setattr(simulate, "_halves", lambda *a: splits.append(1) or halves(*a))
    for group, budget in ((1, 10 ** 9), (7, 10 ** 9), (256, 10 ** 9), (7, 7 * simulate.CHUNK)):
        monkeypatch.setattr(simulate, "GROUP_BUDGET", budget)
        monkeypatch.setattr(simulate, "replicate_groups",
                            lambda seed, reps, chunk, _, g=group:
                            stats.replicate_groups(seed, reps, chunk, g))
        got, expected = _population_outputs(vlaw), dict(reference)
        assert all(np.array_equal(a, b) for a, b in zip(expected.pop("killed"), got.pop("killed")))
        assert np.array_equal(expected.pop("G"), got.pop("G"))
        assert got == expected, (group, budget)
        # 7 chunks start at the budget, so every split comes mid-run
        assert (len(splits) > 0) == (budget < 10 ** 9)
        splits.clear()


# a group of k replicates and its owners, nondecreasing as every routine keeps them
_sorted_owners = st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k - 1), max_size=240).map(sorted)))


@pytest.mark.parametrize("ratio", [-1, math.inf])   # always searchsorted, always bincount
@given(case=_sorted_owners)
@example(case=(3, []))
@example(case=(1, [0] * 40))
@example(case=(5, [1, 2, 2, 3]))   # no owner 0 and no owner 4
@example(case=(4, [2] * 9))
@settings(max_examples=60, deadline=None)
def test_both_counts_equal_bincount(ratio, case):
    k, owners = case
    owner = np.array(owners, dtype=np.int64)
    with mock.patch.object(simulate, "SEARCH_RATIO", ratio):
        got = simulate._counts(owner, k)
    expected = np.bincount(owner, minlength=k)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def _assert_runs(owner, k):
    # int32, as group-relative owners are built, or a step promoted them
    assert owner.dtype == np.int32
    assert np.all(owner[:-1] <= owner[1:])
    assert owner.size == 0 or 0 <= owner[0] <= owner[-1] < k


def test_owners_stay_nondecreasing(monkeypatch, vlaw_p03):
    # _counts relies on it: every step, after _halves, _advance, the capped,
    # kill and disqualified filters, leaves each replicate's particles in one
    # run, with owners that stay int32
    run, sides, splits, filtered = simulate._run, [], [], []

    def checked_run(groups, gens, step):
        def checked(gen, first, k, rngs, cols):
            _assert_runs(cols[0], k)
            cols = step(gen, first, k, rngs, cols)
            _assert_runs(cols[0], k)
            return cols
        return run(groups, gens, checked)

    def checked_where(mask, cols):
        filtered.append(len(cols))
        where(mask, cols)
        assert cols[0].dtype == np.int32

    def checked_halves(first, k, rngs, cols):
        splits.append(1)
        out = halves(first, k, rngs, cols)
        for first, k, _, cols in out:
            _assert_runs(cols[0], k)
        return out

    counts, halves, where = simulate._counts, simulate._halves, simulate._where
    monkeypatch.setattr(simulate, "_run", checked_run)
    monkeypatch.setattr(simulate, "_where", checked_where)
    monkeypatch.setattr(simulate, "_counts", lambda owner, k: sides.append(
        owner.size > simulate.SEARCH_RATIO * k) or counts(owner, k))
    monkeypatch.setattr(simulate, "_halves", checked_halves)
    monkeypatch.setattr(simulate, "GROUP_BUDGET", 4 * simulate.CHUNK)
    sweep = escape_cap_sweep(vlaw_p03, BarrierSpec("V", 1.0), 14, 400, (100,), seed=3)
    assert sweep[0].cap_hits > 0 and splits and set(sides) == {False, True}
    estimate_M_kappa(vlaw_p03, j_max=8, replicates=300, seed=4)
    filtered.clear()
    simulate_G(vlaw_p03, GwEmbedParams(n=9, eps=1.0, alpha=0.5, L=6, M=0.2), 1000, seed=6,
               strict=False)
    assert 3 in filtered   # some lineage was disqualified


def test_cap_row_memory(vlaw_p03):
    # the escape-cap row of the tree-mc benchmark, whose largest generation
    # has 140,942 parents in one chunk; with int64 owners, an array of brood
    # sizes and the parents' columns held next to the children's, the step
    # peaked at about 14 MB, near 100 bytes per parent, twice what it holds now
    tracemalloc.start()
    try:
        estimate_rho(vlaw_p03, BarrierSpec("V", 1.0), 20, 1000, escape_cap=10_000, seed=21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11 << 20


def test_population_equal_to_the_cap_stops_drawing(vlaw_p03):
    # binary populations are whole numbers, so caps c and c - 0.5 stop the
    # same replicates at the same generation only if a population equal to
    # the cap stops
    line = BarrierSpec("V", 1.0)
    for cap in (4, 9, 30):
        assert estimate_rho(vlaw_p03, line, 12, 1000, escape_cap=cap, seed=cap) == \
            estimate_rho(vlaw_p03, line, 12, 1000, escape_cap=cap - 0.5, seed=cap)


def test_population_guard(monkeypatch, vlaw_p03):
    # a binary chunk doubles every generation, so 10 generations pass 1,000
    monkeypatch.setattr(simulate, "POPULATION_GUARD", 1_000)
    with pytest.raises(GridExhausted):
        estimate_M_kappa(vlaw_p03, j_max=10, replicates=200, seed=1)


def test_determinism_bitwise(vlaw_p03):
    a = estimate_rho(vlaw_p03, BarrierSpec("V", 0.1), 8, 500, escape_cap=1000, seed=42)
    b = estimate_rho(vlaw_p03, BarrierSpec("V", 0.1), 8, 500, escape_cap=1000, seed=42)
    c = estimate_rho(vlaw_p03, BarrierSpec("V", 0.1), 8, 500, escape_cap=1000, seed=43)
    assert a == b
    assert a != c


def test_wilson_interval_contains_estimate(vlaw_p03):
    est = estimate_rho(vlaw_p03, BarrierSpec("V", 0.05), 10, 2_000, seed=3)
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.survivors <= est.replicates


def test_mc_matches_oracle(law_p03, vlaw_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    reps = 30_000
    for slope, n in ((0.1, 6), (0.2, 10)):
        est = estimate_rho(vlaw_p03, BarrierSpec("V", slope), n, reps, escape_cap=math.inf,
                           seed=70 + n)
        exact = exact_path_survival(ll, n, BarrierSpec("V", slope).u_line(profile_p03))
        assert abs(est.p_hat - exact) <= 3.0 * proportion_stderr(exact, reps)


def test_monotonicity_within_noise(vlaw_p03):
    reps = 20_000
    by_n = [estimate_rho(vlaw_p03, BarrierSpec("V", 0.1), n, reps, seed=80 + n).p_hat
            for n in (4, 8, 12)]
    for a, b in zip(by_n, by_n[1:]):
        assert b <= a + 3.0 * proportion_stderr(max(a, 1e-9), reps)
    by_slope = [estimate_rho(vlaw_p03, BarrierSpec("V", s), 8, reps, seed=90).p_hat
                for s in (0.05, 0.1, 0.2)]
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
    levels = [[(0.0, None)]]  # (V, parent index)
    for g in range(1, params.n + 1):
        prev, cur = levels[-1], []
        for parent_idx, (pv, _) in enumerate(prev):
            counts, flat = sample_broods(vlaw.base, 1, rng)
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
    rho = exact_path_survival(ll, n, BarrierSpec("V", alpha * eps).u_line(profile_p03))
    assert p_nonempty >= 0.5 * rho - 3.0 * proportion_stderr(max(p_nonempty, 1e-9), reps)
    # direction of the small-count bound: conditioned on non-emptiness the
    # counts concentrate away from tiny values (the bulk sits well above 2)
    hist = np.bincount(counts)
    assert hist[0] == (counts == 0).sum()
    nonempty = counts[counts > 0]
    assert (nonempty <= 2).mean() < 0.5
    assert nonempty.mean() > 2.0
