import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import proportion_stderr, regression_slope
from kbrw.analysis import solve_tstar
from kbrw.mogulskii import ArraySpec, CorridorSpec, brownian_corridor_mc, triangular_experiment
from kbrw.simulate import GwEmbedParams, estimate_M_kappa, simulate_G
from kbrw.spine import functional, make_spine, spine_many_to_one_rhs, tree_many_to_one_lhs
from kbrw.stats import replicate_chunks, wilson_interval
from kbrw.transform import make_vlaw


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_wilson_contains_point_estimate(successes, trials):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    p = successes / trials
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_empty():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trial"):
            wilson_interval(0, trials)


def test_wilson_never_degenerate_at_extremes():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert lo < 1.0 and hi == 1.0


def test_wilson_width_shrinks_with_trials():
    widths = []
    for n in (10, 100, 1000, 10000):
        lo, hi = wilson_interval(int(0.2 * n), n)
        widths.append(hi - lo)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_proportion_stderr():
    assert proportion_stderr(0.5, 100) == pytest.approx(0.05)
    assert proportion_stderr(0.0, 100) == 0.0
    assert math.isinf(proportion_stderr(0.5, 0))


def test_regression_slope_exact_line():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    assert regression_slope(x, -2.0 * x + 7.0) == pytest.approx(-2.0, rel=1e-12)


def test_replicate_chunks_refuses_a_count_below_one():
    assert [(first, k) for first, k, _ in replicate_chunks(0, 5, 2)] == [(0, 2), (2, 2), (4, 1)]
    for count in (0, -5):
        with pytest.raises(ValueError, match="replicate"):
            replicate_chunks(0, count, 2)


# every chunked routine at a replicate count below 1, given the binary p = 0.3
# V-law, its spine and a Gaussian spine array: no sample, so no mean, count
# histogram or probability to report
BELOW_ONE = {
    "brownian_corridor_mc_0": lambda v, sp, arr: brownian_corridor_mc(
        -1.0, 1.0, -1.0, 1.0, paths=0, steps=10),
    "brownian_corridor_mc_negative": lambda v, sp, arr: brownian_corridor_mc(
        -1.0, 1.0, -1.0, 1.0, paths=-5, steps=10),
    "spine_many_to_one_rhs": lambda v, sp, arr: spine_many_to_one_rhs(
        sp, 4, functional("one"), 0),
    "tree_many_to_one_lhs": lambda v, sp, arr: tree_many_to_one_lhs(
        v, 4, functional("one"), 0),
    "estimate_M_kappa": lambda v, sp, arr: estimate_M_kappa(v, j_max=3, replicates=0),
    "triangular_experiment": lambda v, sp, arr: triangular_experiment(
        arr, CorridorSpec.from_functions(lambda t: -1.0, lambda t: 1.0, 1.0), [8],
        mc_replicates=-3),
    "simulate_G": lambda v, sp, arr: simulate_G(
        v, GwEmbedParams(n=12, eps=0.43, alpha=0.5, L=10, M=0.2), 0),
}


@pytest.mark.parametrize("name", BELOW_ONE)
def test_chunked_routines_refuse_a_count_below_one(name, vlaw_p03, spine_p03, law_gaussian):
    arr = ArraySpec.from_spine(make_spine(make_vlaw(law_gaussian, solve_tstar(law_gaussian))))
    with pytest.raises(ValueError, match="replicate"):
        BELOW_ONE[name](vlaw_p03, spine_p03, arr)
