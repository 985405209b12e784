import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import (CORRIDOR_REL_TOL, corridor_series, gw_survival_to_n,
                      proportion_stderr)
from kbrw import mogulskii, oracle
from kbrw.analysis import solve_tstar
from kbrw.errors import LatticeError
from kbrw.models import BinaryBernoulli, DiscreteFinite, ExplicitFinite, ProductLaw
from kbrw.oracle import LatticeLaw, exact_corridor_walk, exact_path_survival, rho_limit
from kbrw.simulate import BarrierSpec, estimate_rho
from kbrw.transform import make_vlaw


def _recursive_survival_binary(p, c, n):
    """Independent top-down oracle for the binary law, memoized on (level, sum)."""
    bounds = [math.ceil(c * i - 1e-9) for i in range(n + 1)]

    @lru_cache(maxsize=None)
    def die(j, s):
        if j == n:
            return 0.0
        acc = 0.0
        for y, q in ((0, 1 - p), (1, p)):
            su = s + y
            acc += q * (1.0 if su < bounds[j + 1] else die(j + 1, su))
        return acc * acc

    return 1.0 - die(0, 0)


def _label_enumeration_binary(p, c, n):
    """Fully literal oracle at tiny depth: enumerate every edge labeling of
    the complete binary tree and test for a surviving root-leaf path."""
    n_edges = 2 ** (n + 1) - 2
    total = 0.0
    # edges indexed level by level: level i has 2^i edges
    offsets = np.cumsum([0] + [2 ** i for i in range(1, n)])
    for labels in product((0, 1), repeat=n_edges):
        prob = 1.0
        for bit in labels:
            prob *= p if bit else (1 - p)
        survives = False
        for leaf in range(2 ** n):
            s = 0
            ok = True
            for i in range(1, n + 1):
                edge = offsets[i - 1] + (leaf >> (n - i))
                s += labels[edge]
                if s < math.ceil(c * i - 1e-9):
                    ok = False
                    break
            if ok:
                survives = True
                break
        total += prob * survives
    return total


def test_survival_one_generation(law_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    # any U-line coefficient in (0, 1] forces the u=1 step at the first level
    for c in (0.1, 0.5, 1.0):
        assert exact_path_survival(ll, 1, u_line=c) == pytest.approx(0.51, abs=1e-15)
    # via the centered coordinate with slope 0
    assert exact_path_survival(ll, 1, BarrierSpec("V", 0.0).u_line(profile_p03)) == \
        pytest.approx(0.51, abs=1e-15)


def test_survival_depth_zero_is_certain(law_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    assert exact_path_survival(ll, 0, u_line=0.5) == 1.0
    assert exact_path_survival(ll, 0, BarrierSpec("V", 0.1).u_line(profile_p03)) == 1.0


def test_survival_two_generations_hand_formula(law_p03):
    ll = LatticeLaw.from_law(law_p03)
    p = 0.3
    expected = 1.0 - ((1 - p) + p * (1 - p) ** 2) ** 2
    assert exact_path_survival(ll, 2, u_line=0.9) == pytest.approx(expected, abs=1e-15)


def test_vacuous_barrier_equals_gw_survival(law_p03, law_mixed_offspring):
    for law in (law_p03, law_mixed_offspring):
        ll = LatticeLaw.from_law(law)
        for n in (3, 7, 11):
            assert exact_path_survival(ll, n, u_line=-1.0) == \
                pytest.approx(gw_survival_to_n(ll, n), rel=1e-13)
    # binary tree never dies
    llb = LatticeLaw.from_law(law_p03)
    assert exact_path_survival(llb, 9, u_line=0.0) == pytest.approx(1.0)
    # lines far past every step, whose c*i once overflowed the int64 cast
    for n in (3, 300):
        assert exact_path_survival(llb, n, u_line=-1e300) == \
            exact_path_survival(llb, n, u_line=-1.0)
        assert exact_path_survival(llb, n, u_line=1e300) == 0.0
        assert exact_path_survival(llb, n, u_line=-math.inf) == \
            exact_path_survival(llb, n, u_line=-1.0)
        assert exact_path_survival(llb, n, u_line=math.inf) == 0.0


def test_path_survival_refuses_a_nan_line(law_p03):
    # a NaN line has no integer bound to compute
    with pytest.raises(ValueError, match="u_line"):
        exact_path_survival(LatticeLaw.from_law(law_p03), 10, math.nan)


def test_path_survival_refuses_a_negative_depth(law_p03, profile_p03):
    with pytest.raises(ValueError, match="n must"):
        exact_path_survival(LatticeLaw.from_law(law_p03), -3,
                            BarrierSpec("U", 0.02).u_line(profile_p03))


@pytest.mark.parametrize("n_start", [0, -5])
def test_rho_limit_refuses_a_start_below_one(law_p03, profile_p03, n_start):
    # doubling from 0 or below never leaves depth <= 0, whose survival reads 1
    with pytest.raises(ValueError, match="n_start"):
        rho_limit(LatticeLaw.from_law(law_p03), BarrierSpec("U", 0.02).u_line(profile_p03),
                  n_start=n_start)


@pytest.mark.parametrize("n_start, n_max", [(512, 256), (256, 256), (1, 1)])
def test_rho_limit_refuses_depths_without_a_doubling(monkeypatch, law_p03, n_start, n_max):
    # it once ran a 512-level DP before raising GridExhausted below n = 256
    def no_dp(*args, **kwargs):
        raise AssertionError("a DP ran")
    monkeypatch.setattr(oracle, "exact_path_survival", no_dp)
    with pytest.raises(ValueError, match="leaves no doubling below n_max"):
        rho_limit(LatticeLaw.from_law(law_p03), 0.5, n_start=n_start, n_max=n_max)


def test_dp_equals_recursion_depth_12(law_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    for slope in (0.05, 0.1, 0.2, 0.4):
        c = (profile_p03.psi_tstar - slope) / profile_p03.t_star
        dp = exact_path_survival(ll, 12, BarrierSpec("V", slope).u_line(profile_p03))
        rec = _recursive_survival_binary(0.3, c, 12)
        assert dp == pytest.approx(rec, abs=1e-13)


def test_dp_equals_label_enumeration_small(law_p03):
    ll = LatticeLaw.from_law(law_p03)
    for n, c in ((1, 0.6), (2, 0.45), (3, 0.7)):
        dp = exact_path_survival(ll, n, u_line=c)
        lit = _label_enumeration_binary(0.3, c, n)
        # the literal sum accumulates ~1e-14 of its own rounding over 2^14 terms
        assert dp == pytest.approx(lit, abs=1e-12)


def test_dp_explicit_law(law_explicit):
    prof = solve_tstar(law_explicit)
    ll = LatticeLaw.from_law(law_explicit)
    # brood displacements are dependent: outcome-resolved recursion required
    p = exact_path_survival(ll, 1, u_line=0.5)
    # survive iff the brood contains a child with u >= 1: outcomes (0,1), (1,2)
    assert p == pytest.approx(0.5, abs=1e-15)
    p2 = exact_path_survival(ll, 4, BarrierSpec("V", 0.1).u_line(prof))
    assert 0.0 < p2 < 1.0


def test_monotonicity_exact(law_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    vals_n = [exact_path_survival(ll, n, BarrierSpec("V", 0.1).u_line(profile_p03))
              for n in (2, 4, 6, 8, 10, 12)]
    assert all(b <= a for a, b in zip(vals_n, vals_n[1:]))
    vals_s = [exact_path_survival(ll, 10, BarrierSpec("V", s).u_line(profile_p03))
              for s in (0.02, 0.05, 0.1, 0.2, 0.4)]
    assert all(b >= a for a, b in zip(vals_s, vals_s[1:]))


def test_non_lattice_rejected(law_gaussian):
    # {0, 1, sqrt 2} lies on no a + h Z: 1 and sqrt(2) are incommensurate
    with pytest.raises(LatticeError):
        LatticeLaw.from_law(law_gaussian)
    with pytest.raises(LatticeError):
        LatticeLaw.from_law(ProductLaw(((2, 1.0),), DiscreteFinite(
            ((0.0, 0.5), (1.0, 0.3), (math.sqrt(2), 0.2)))))


def _binary_step(atoms):
    return ProductLaw(((2, 1.0),), DiscreteFinite(atoms))


def test_frame_finer_than_every_gap_has_the_integer_laws_rho():
    # {0, 0.4, 1} is 0.2 {0, 2, 5}: neither gap is a multiple of the other
    plain = LatticeLaw.from_law(law := _binary_step(((0, 0.5), (2, 0.3), (5, 0.2))))
    framed = LatticeLaw.from_law(fine := _binary_step(((0.0, 0.5), (0.4, 0.3), (1.0, 0.2))))
    assert framed.frame == pytest.approx((0.0, 0.2), rel=1e-15)
    assert framed.step_values == plain.step_values == (0, 2, 5)
    for slope, n in ((0.1, 6), (0.05, 40)):
        rho = exact_path_survival(plain, n, BarrierSpec("V", slope).u_line(solve_tstar(law)))
        got = exact_path_survival(framed, n, BarrierSpec("V", slope).u_line(solve_tstar(fine)))
        assert rho > 0.0 and abs(got - rho) <= 1e-14 * rho


@pytest.mark.parametrize("a, h", [(0.0, 0.5), (-0.3, 1.0), (0.0, math.sqrt(2)), (0.25, 3.0)])
def test_framed_law_has_the_integer_laws_rho(a, h):
    # U = a i + h K: in K the law is the integer law, and a V line does not
    # move when U is shifted and scaled, so rho at a V slope is the integer
    # law's; the frame is taken once, in from_law
    def shifted(law):
        if isinstance(law, ExplicitFinite):
            return ExplicitFinite(tuple((tuple(a + h * d for d in ds), p)
                                        for ds, p in law.outcomes))
        return _binary_step(tuple((a + h * u, q) for u, q in law.step.atoms))

    for law in (_binary_step(((0, 0.7), (1, 0.3))),
                ExplicitFinite((((0.0, 0.0), 0.5), ((0.0, 1.0), 0.3), ((1.0, 2.0), 0.2)))):
        plain, framed = LatticeLaw.from_law(law), LatticeLaw.from_law(shifted(law))
        assert framed.frame == (a, h) and plain.frame == (0.0, 1.0)
        assert framed.step_values == plain.step_values and framed.outcomes == plain.outcomes
        for slope, n in ((0.1, 6), (0.05, 40), (0.02, 300)):
            rho = exact_path_survival(
                plain, n, BarrierSpec("V", slope).u_line(solve_tstar(law)))
            got = exact_path_survival(
                framed, n, BarrierSpec("V", slope).u_line(solve_tstar(shifted(law))))
            assert rho > 0.0 and abs(got - rho) <= 1e-15 * rho


@pytest.mark.parametrize("atoms, seed", [
    (((0.0, 0.7), (0.5, 0.3)), 4),                       # half-integer steps
    (((0.0, 0.6), (math.sqrt(2), 0.4)), 5),              # an irrational gap
    (((-0.5, 0.5), (0.5, 0.25), (1.5, 0.25)), 6),        # half-integer, three atoms
])
def test_framed_law_mc_agrees_with_the_oracle(atoms, seed):
    law = _binary_step(atoms)
    profile = solve_tstar(law)
    vlaw, ll = make_vlaw(law, profile), LatticeLaw.from_law(law)
    reps = 20_000
    for slope, n in ((0.1, 6), (0.05, 10)):
        barrier = BarrierSpec("V", slope)
        exact = exact_path_survival(ll, n, barrier.u_line(profile))
        est = estimate_rho(vlaw, barrier, n, reps, escape_cap=math.inf, seed=seed)
        assert 0.0 < exact < 1.0
        assert abs(est.p_hat - exact) <= 4.0 * proportion_stderr(exact, reps)


def test_zero_probability_atoms_do_not_widen_the_dp():
    # a step atom, a child count or an explicit outcome of probability 0 is
    # no displacement: the lattice law, and so rho, is that of the law
    # without it
    def binary(atoms, counts=((2, 1.0),)):
        return ProductLaw(counts, DiscreteFinite(atoms))

    plain = LatticeLaw.from_law(binary(((0, 0.7), (1, 0.3))))
    for law in (binary(((0, 0.7), (1, 0.3), (5, 0.0))),
                binary(((0, 0.7), (1, 0.3)), ((2, 1.0), (3, 0.0)))):
        ll = LatticeLaw.from_law(law)
        assert ll == plain and ll.u_max == 1
        assert exact_path_survival(ll, 4000, u_line=0.6) == \
            exact_path_survival(plain, 4000, u_line=0.6)
    outcomes = (((0.0, 1.0), 0.5), ((-1.0, 1.0, 2.0), 0.5))
    assert LatticeLaw.from_law(ExplicitFinite(outcomes + (((7.0,), 0.0),))) == \
        LatticeLaw.from_law(ExplicitFinite(outcomes))


def test_corridor_unconstrained():
    lower = np.full(6, -100)
    upper = np.full(6, 100)
    p, pe = exact_corridor_walk([-1, 1], [0.5, 0.5], lower, upper)
    assert p == pytest.approx(1.0) and pe is None


def test_corridor_parity_pin():
    # +-1 walk cannot sit at 0 after one step
    assert exact_corridor_walk([-1, 1], [0.5, 0.5], [0, -1], [0, 1]) == (0.0, None)
    # corridor {-1,0,1} at both steps: S_2 = +-2 exits with probability 1/2
    p, _ = exact_corridor_walk([-1, 1], [0.5, 0.5], [-1, -1], [1, 1])
    assert p == pytest.approx(0.5)


def test_corridor_empty_level_is_zero():
    assert exact_corridor_walk([-1, 1], [0.5, 0.5], [2, 0], [1, 3]) == (0.0, None)


def test_corridor_bounds_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match=r"^corridor arrays must have equal length$"):
        exact_corridor_walk([-1, 1], [0.5, 0.5], [-1, -1, -1], [1, 1])


def test_corridor_endpoint_window():
    lower = np.full(4, -4)
    upper = np.full(4, 4)
    total, _ = exact_corridor_walk([-1, 1], [0.5, 0.5], lower, upper)
    p_low, below = exact_corridor_walk([-1, 1], [0.5, 0.5], lower, upper, endpoint=(-4, 0))
    p_high, above = exact_corridor_walk([-1, 1], [0.5, 0.5], lower, upper, endpoint=(1, 4))
    assert p_low == p_high == total
    assert below + above == pytest.approx(total, rel=1e-14)


def test_corridor_against_exhaustive_paths():
    # lazy walk, 3^12 paths enumerated literally
    n = 12
    a = 4
    lower = np.full(n, -a)
    upper = np.full(n, a)
    dp, _ = exact_corridor_walk([-1, 0, 1], [1 / 3, 1 / 3, 1 / 3], lower, upper)
    steps = np.array(list(product((-1, 0, 1), repeat=n)), dtype=np.int64)
    s = np.cumsum(steps, axis=1)
    ok = np.all((s >= -a) & (s <= a), axis=1)
    lit = ok.mean()  # each path has probability 3^-n
    assert dp == pytest.approx(float(lit), rel=1e-13)
    # endpoint window variant
    _, dp_e = exact_corridor_walk([-1, 0, 1], [1 / 3, 1 / 3, 1 / 3], lower, upper,
                                  endpoint=(1, a))
    lit_e = (ok & (s[:, -1] >= 1)).mean()
    assert dp_e == pytest.approx(float(lit_e), rel=1e-13)


def _level_dp(steps, probs, lower, upper, endpoint=None):
    """Reference corridor DP: one explicit pass per level."""
    dist, lo = np.ones(1), 0
    for nlo, nhi in zip(lower, upper):
        new = np.zeros(max(nhi - nlo + 1, 0))
        for y, q in zip(steps, probs):
            for s, mass in enumerate(dist, start=lo):
                if nlo <= s + y <= nhi:
                    new[s + y - nlo] += q * mass
        dist, lo = new, nlo
    end = None if endpoint is None else \
        dist[max(endpoint[0] - lo, 0): max(endpoint[1] - lo + 1, 0)].sum()
    return dist.sum(), end


LAZY = (1 / 3,) * 3


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
def test_corridor_lazy_strip_closed_form(n):
    m = math.floor(np.cbrt(n) + 1e-9)
    window = ((m + 1) // 2, m)
    p, pe = exact_corridor_walk([-1, 0, 1], LAZY, np.full(n, -m), np.full(n, m),
                                endpoint=window)
    assert abs(p - corridor_series(LAZY, -m, m, n)) <= CORRIDOR_REL_TOL * p
    assert abs(pe - corridor_series(LAZY, -m, m, n, window)) <= CORRIDOR_REL_TOL * pe


@pytest.mark.parametrize("probs, n, lo, hi, window", [
    (LAZY, 10 ** 6, -200, 200, None),
    (LAZY, 10 ** 6, -50, 50, (-5, 30)),
    (LAZY, 10 ** 5, -20, 20, None),
    ((0.2, 0.5, 0.3), 5_000, -15, 15, None),
    ((0.2, 0.5, 0.3), 5_000, -15, 15, (0, 15)),
    ((0.2, 0.5, 0.3), 20_000, -40, 30, (-40, -10)),
    ((0.45, 0.2, 0.35), 10 ** 5, -60, 60, (10, 60)),
])
def test_corridor_against_sine_series(probs, n, lo, hi, window):
    p, pe = exact_corridor_walk([-1, 0, 1], probs, np.full(n, lo), np.full(n, hi),
                                endpoint=window)
    got = p if window is None else pe
    ref = corridor_series(probs, lo, hi, n, window)
    assert ref > 0.0 and abs(got - ref) <= CORRIDOR_REL_TOL * ref
    # the tolerance would catch a 1e-11 defect here
    assert abs(got * (1 + 1e-11) - ref) > CORRIDOR_REL_TOL * ref


def _spied_corridor(monkeypatch, arr, spec, n, endpoint_b):
    """_corridor_prob's result and the arguments it passed to the DP."""
    calls = []
    real = oracle.exact_corridor_walk

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "exact_corridor_walk", spy)
    got = mogulskii._corridor_prob(arr, spec, n, endpoint_b, 0, 0)
    (steps, probs, lower, upper), kwargs = calls[-1]
    return got, (list(steps), list(probs), lower.tolist(), upper.tolist(), kwargs["endpoint"])


def _run_lengths(lower, upper):
    edges = np.flatnonzero(np.diff(lower) | np.diff(upper)) + 1
    return np.diff(np.concatenate(([0], edges, [len(lower)])))


def test_corridor_runs_against_level_dp(monkeypatch, spine_p03):
    C = mogulskii.CorridorSpec
    lazy = mogulskii.ArraySpec.lazy_walk()
    skew = mogulskii.ArraySpec.lattice(((-1, 0.3), (0, 0.3), (2, 0.4)))
    cases = [
        (lazy, C.from_functions(lambda t: -1 + 0.3 * t, lambda t: 2 - 0.4 * t, 0.8), 8000, 0.5),
        (lazy, C.from_functions(lambda t: -1 - t, lambda t: 1 + t, 0.8), 3000, None),
        (skew, C((0.0, 0.3, 0.31, 0.7, 1.0), (-1.0, -0.5, -0.5, -1.2, -0.8),
                 (1.0, 1.5, 3.0, 0.6, 1.1), 1.2), 8000, 0.3),
        (mogulskii.ArraySpec.from_spine(spine_p03),
         C.from_functions(lambda t: -1 + 0.2 * t, lambda t: 1 - 0.3 * t, 0.9), 2000, 0.5),
    ]
    lengths = []
    for arr, spec, n, b in cases:
        (p, pe), args = _spied_corridor(monkeypatch, arr, spec, n, b)
        ref, ref_e = _level_dp(*args)
        assert p == pytest.approx(ref, rel=1e-12, abs=0.0)
        if b is not None:
            assert pe == pytest.approx(ref_e, rel=1e-12, abs=0.0)
        lengths.extend(_run_lengths(args[2], args[3]))
    # runs of one level up to runs of a thousand, so both paths run
    assert min(lengths) == 1 and max(lengths) >= 1000


def test_corridor_long_runs_with_empty_level():
    lower = np.concatenate([np.full(900, -5), [3], np.full(900, -5)])
    upper = np.concatenate([np.full(900, 5), [2], np.full(900, 5)])
    assert exact_corridor_walk([-1, 1], [0.5, 0.5], lower, upper, endpoint=(0, 5)) == (0.0, 0.0)
    # the same corridor without the empty level matches the reference
    lower[900], upper[900] = -1, 4
    got = exact_corridor_walk([-2, 1], [0.25, 0.75], lower, upper, endpoint=(0, 5))
    ref = _level_dp([-2, 1], [0.25, 0.75], lower.tolist(), upper.tolist(), (0, 5))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


_SRC = Path(__file__).resolve().parents[1] / "src"


def _with_blas_threads(threads, args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_corridor_power_independent_of_blas_threads(tmp_path):
    # a 451-state strip over 2e5 levels takes the matrix-power path
    code = ("import numpy as np; from kbrw.oracle import exact_corridor_walk; "
            "print(repr(exact_corridor_walk([-1, 0, 1], [1/3] * 3, np.full(200000, -225), "
            "np.full(200000, 225), endpoint=(100, 225))))")
    assert _with_blas_threads(1, ["-c", code], tmp_path) == \
        _with_blas_threads(2, ["-c", code], tmp_path)


def test_corridor_mc_stderr_independent_of_blas_threads(tmp_path):
    # its chunks of 20,000 paths are above the 10,000 entries where OpenBLAS
    # threads a dot product, so a sum of squares by np.dot moves a last bit
    code = ("from kbrw.mogulskii import brownian_corridor_mc; "
            "print(repr(brownian_corridor_mc(-1, 1, -1, 1, paths=40_000, steps=40, seed=2)))")
    assert _with_blas_threads(1, ["-c", code], tmp_path) == \
        _with_blas_threads(2, ["-c", code], tmp_path)


@pytest.mark.parametrize("command, config", [
    ("analyze", "analyze_binary.json"), ("survival", "survival_binary.json"),
    ("pemantle", "pemantle_binary.json"), ("mogulskii", "mogulskii_lazy.json")])
def test_shipped_csv_independent_of_blas_threads(tmp_path, command, config):
    # the CLI runs BLAS on one thread unless the user exports another count,
    # and a large np.dot sums in another order on more threads
    config = _SRC.parent / "configs" / config
    stdout = [_with_blas_threads(threads, ["-m", "kbrw.cli", command, "--config", str(config),
                                           "--out", f"{command}{threads}.csv"], tmp_path)
              for threads in (1, 2)]
    assert stdout[0] == stdout[1]
    assert (tmp_path / f"{command}1.csv").read_bytes() == \
        (tmp_path / f"{command}2.csv").read_bytes()


def _recursive_survival_generic(pmf, step_atoms, c, n):
    """Memoized oracle for product laws with arbitrary integer steps."""
    bounds = [math.ceil(c * i - 1e-9) for i in range(n + 1)]

    @lru_cache(maxsize=None)
    def die(j, s):
        if j == n:
            return 0.0
        fail = 0.0
        for y, q in step_atoms:
            su = s + y
            fail += q * (1.0 if su < bounds[j + 1] else die(j + 1, su))
        return sum(p * fail ** k for k, p in pmf)

    return 1.0 - die(0, 0)


def test_dp_negative_steps(law_p03):
    # downward moves exercise the lower window branch of the state space
    pmf = ((1, 0.3), (2, 0.4), (3, 0.3))
    steps = ((-1, 0.6), (1, 0.4))
    law = ProductLaw(pmf, DiscreteFinite(tuple((float(v), p) for v, p in steps)))
    prof = solve_tstar(law)
    ll = LatticeLaw.from_law(law)
    for slope in (0.05, 0.2, 0.6):
        c = (prof.psi_tstar - slope) / prof.t_star
        dp = exact_path_survival(ll, 9, BarrierSpec("V", slope).u_line(prof))
        rec = _recursive_survival_generic(pmf, steps, c, 9)
        assert dp == pytest.approx(rec, abs=1e-13)
    # and against the Monte Carlo engine
    import math as _m
    from kbrw.simulate import estimate_rho
    from conftest import proportion_stderr
    from kbrw.transform import make_vlaw
    vlaw = make_vlaw(law, prof)
    exact = exact_path_survival(ll, 8, BarrierSpec("V", 0.15).u_line(prof))
    est = estimate_rho(vlaw, BarrierSpec("V", 0.15), 8, 30_000, escape_cap=_m.inf, seed=314)
    assert abs(est.p_hat - exact) <= 3.0 * proportion_stderr(exact, 30_000)


def test_rho_limit_stabilizes(law_p03, profile_p03):
    ll = LatticeLaw.from_law(law_p03)
    rho, n_used = rho_limit(ll, BarrierSpec("V", 0.1).u_line(profile_p03), rel_tol=0.02,
                            n_start=64)
    assert 0.0 < rho < 1.0
    assert n_used >= 128
    tighter = exact_path_survival(ll, 2 * n_used, BarrierSpec("V", 0.1).u_line(profile_p03))
    assert abs(tighter - rho) / rho < 0.05


def test_lemma46_direction_and_floor(law_mixed_offspring):
    # exact scaled sequence increases on the doubling grid for this family
    prof = solve_tstar(law_mixed_offspring)
    ll = LatticeLaw.from_law(law_mixed_offspring)
    vals = []
    for n in (250, 500, 1000, 2000):
        r = exact_path_survival(ll, n, BarrierSpec("V", n ** (-2 / 3)).u_line(prof))
        vals.append(math.log(r) / n ** (1 / 3))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    bound = -prof.beta_V
    assert vals[-1] > 1.5 * bound  # not wildly below the limit bound
    assert all(v < 0 for v in vals)


def test_dp_kill_line_rounding_lifts_one_level():
    # With c a few ulps above u_min = -60, rounding of c*i - 1e-9 lifts the
    # lower bound at level 1092 by one (-65519) but not at level 1093
    # (-65580), so the next window starts below lo + u_min there.  The line kills nothing that
    # matters at this depth, so the value is the GW survival 1 - 3/7, here the
    # double nearest 4/7.
    law = ProductLaw(((0, 0.3), (2, 0.7)),
                     DiscreteFinite(((-60.0, 0.01), (0.0, 0.49), (1.0, 0.5))))
    ll = LatticeLaw.from_law(law)
    assert exact_path_survival(ll, 1100, u_line=-59.99999999999908) == 0.5714285714285714


# the laws of tests/test_golden.py: steps {-1, 0, 2}, and atomic broods with
# an empty one
SKEWED = ProductLaw(((0, 0.1), (1, 0.3), (2, 0.4), (3, 0.2)),
                    DiscreteFinite(((-1.0, 0.3), (0.0, 0.3), (2.0, 0.4))))
EXPLICIT = ExplicitFinite((((), 0.25), ((0.0, 1.0), 0.45), ((-1.0, 1.0, 2.0), 0.3)))
# broods of 30, most children killed: H(m) expanded in powers of m cancels
# to 1e-10 relative here
BIG_BROOD = ProductLaw(((0, 0.1), (30, 0.9)), DiscreteFinite(((-1.0, 0.9), (1.0, 0.1))))
# offspring 0 or 1: the tail polynomial is a constant, so the product-law
# level does no Horner step
ONE_CHILD = ProductLaw(((0, 0.4), (1, 0.6)), DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))


def _kill_windows(ll, c, n):
    """Alive sums [lo, hi] at levels 0..n, or None if some level has none."""
    wins = [(0, 0)] + [(max(math.ceil(c * j - 1e-9), j * ll.u_min), j * ll.u_max)
                       for j in range(1, n + 1)]
    return None if any(lo > hi for lo, hi in wins) else wins


def _mp_survival(ll, c, n):
    """The path survival DP at 40 digits over every alive sum, untrimmed, in
    forms free of cancellation: 1 - G(1 - m) = m sum_k c_k sum_{i<k} (1 - m)^i
    for product laws, 1 - prod_i (1 - r_i) = sum_i r_i prod_{l<i} (1 - r_l)
    per brood for explicit laws."""
    wins = _kill_windows(ll, c, n)
    if wins is None:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        # d_i = sum_{k > i} c_k, so that sum_k c_k sum_{i<k} a^i = sum_i d_i a^i
        tails = [mpmath.fsum(mpf(ck) for ck in ll.pgf_coeffs[i + 1:])
                 for i in range(len(ll.pgf_coeffs) - 1)]
        steps = [(y, mpf(q)) for y, q in zip(ll.step_values, ll.step_probs or ())]
        broods = [(ds, mpf(p)) for ds, p in ll.outcomes or ()]
        lo, hi = wins[n]
        r = {s: mpf(1) for s in range(lo, hi + 1)}
        for j in range(n - 1, -1, -1):
            lo, hi = wins[j]
            new = {}
            for s in range(lo, hi + 1):
                if steps:
                    m = mpmath.fsum(q * r.get(s + y, 0) for y, q in steps)
                    new[s] = m * mpmath.polyval(tails[::-1], 1 - m)
                else:
                    tot = mpf(0)
                    for ds, p in broods:
                        alive_before, brood = mpf(1), mpf(0)
                        for d in ds:
                            rd = r.get(s + d, 0)
                            brood += rd * alive_before
                            alive_before *= 1 - rd
                        tot += p * brood
                    new[s] = tot
            r = new
        return r[0]


def _float_survival_untrimmed(ll, c, n):
    """The R = 1 - Q recursion in float64 over every alive sum (product laws),
    with no trimming: R = m sum_k c_k sum_{i<k} (1 - m)^i."""
    wins = _kill_windows(ll, c, n)
    lo1, hi1 = wins[n]
    r = np.ones(hi1 - lo1 + 1)
    for j in range(n - 1, -1, -1):
        lo, hi = wins[j]
        base = min(lo + ll.u_min, lo1)
        child = np.zeros(hi1 - base + 1)
        child[lo1 - base:] = r
        m = sum(q * child[lo + y - base: hi + y - base + 1]
                for y, q in zip(ll.step_values, ll.step_probs))
        geo = sum(ck * (1 - m) ** i for k, ck in enumerate(ll.pgf_coeffs) for i in range(k))
        r, lo1, hi1 = m * geo, lo, hi
    return float(r[0])


@pytest.mark.parametrize("law", [BinaryBernoulli(0.3), SKEWED, EXPLICIT, BIG_BROOD, ONE_CHILD],
                         ids=["binary", "skewed", "explicit", "big_brood", "one_child"])
def test_path_survival_relative_to_40_digits(law):
    ll = LatticeLaw.from_law(law)
    for c in (-0.5, 0.0, 0.4, 0.77, 0.95):
        for n in (1, 2, 7, 120):
            ref = _mp_survival(ll, c, n)
            assert exact_path_survival(ll, n, u_line=c) == \
                pytest.approx(float(ref), rel=1e-12, abs=0.0), (c, n)


def test_path_survival_far_below_one_ulp():
    # 1 - Q read 4.4e-16 here, one ulp of 1 above the true value
    ll = LatticeLaw.from_law(BinaryBernoulli(0.3))
    ref = _mp_survival(ll, 0.95, 300)
    assert float(ref) == pytest.approx(7.7386e-40, rel=1e-4)
    assert exact_path_survival(ll, 300, u_line=0.95) == \
        pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_trimmed_window_matches_untrimmed(law_p03, profile_p03):
    # the deepest row of the pemantle bench grid, cut to n = 4096: the full
    # window reaches 567 states, the trimmed one at most 15
    ll = LatticeLaw.from_law(law_p03)
    c = BarrierSpec("U", 0.003).u_line(profile_p03)
    ref = _float_survival_untrimmed(ll, c, 4096)
    got = exact_path_survival(ll, 4096, c)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    # and its exact value, which a rewrite of the level must keep
    assert got == 9.911838188456576e-11


def test_path_survival_memory_does_not_grow_with_depth(law_p03, profile_p03):
    # the pass keeps only its window of at most 15 states, a few kB; bounds
    # held for every level would take about 64 bytes each, 256 kB here
    ll = LatticeLaw.from_law(law_p03)
    c = BarrierSpec("U", 0.003).u_line(profile_p03)
    tracemalloc.start()
    try:
        exact_path_survival(ll, 4096, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 10


def test_line_that_outruns_every_lineage_reads_zero(law_p03):
    # a line 2e-12 above u_max = 1: c*j - 1e-9 stays below j up to level
    # 500, so all-u_max lineages survive there; from level 501 on no
    # lineage can follow the line
    ll = LatticeLaw.from_law(law_p03)
    c = ll.u_max + 2e-12
    got = exact_path_survival(ll, 400, c)
    assert got == pytest.approx(float(_mp_survival(ll, c, 400)), rel=1e-12, abs=0.0)
    assert got == 1.289713190640973e-89
    assert exact_path_survival(ll, 600, c) == 0.0


# exact values of exact_path_survival at u_line -0.5, 0.4, 0.95 (rows) and
# n = 1, 7, 300 (columns), for laws whose levels run 0, 1, 2 and 29 Horner steps
PRODUCT_PINS = {
    "one_child": (ONE_CHILD, [
        [0.6, 0.027993599999999997, 2.7885286769598023e-67],
        [0.3, 0.009622799999999997, 7.0229892043090204e-68],
        [0.3, 0.00021869999999999998, 8.128908994918945e-135]]),
    "binary": (BinaryBernoulli(0.3), [
        [1.0, 1.0, 1.0],
        [0.51, 0.45873336711052926, 0.45840936069208393],
        [0.51, 0.01996629091143024, 7.738575688359826e-40]]),
    "skewed": (SKEWED, [
        [0.7686000000000002, 0.6911457259407136, 0.6906468155213749],
        [0.5328000000000002, 0.4232098770889891, 0.4211066449918859],
        [0.5328000000000002, 0.30443399622215517, 0.2887147625900421]]),
    "big_brood": (BIG_BROOD, [
        [0.8618479575523056, 0.8468523239648789, 0.8468523239648789],
        [0.8618479575523056, 0.8345680439872037, 0.8345680439872037],
        [0.8618479575523056, 0.8339844273929792, 0.8339817442132821]]),
}


@pytest.mark.parametrize("name", PRODUCT_PINS)
def test_product_law_level_pins(name):
    law, values = PRODUCT_PINS[name]
    ll = LatticeLaw.from_law(law)
    assert [[exact_path_survival(ll, n, u_line=c) for n in (1, 7, 300)]
            for c in (-0.5, 0.4, 0.95)] == values
