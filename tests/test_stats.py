import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import proportion_stderr, regression_slope
from kbrw.stats import wilson_interval


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_wilson_contains_point_estimate(successes, trials):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    p = successes / trials
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_empty():
    assert wilson_interval(0, 0) == (0.0, 1.0)


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
