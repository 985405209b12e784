import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_broods
from kbrw.errors import LawValidationError
from kbrw.models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite,
                         Gaussian, ProductLaw, child_atoms, intensity_atoms, lattice_frame,
                         mean_children, offspring_pmf, step_law, validate)
from kbrw.rng import replicate_stream


def test_binary_bernoulli_support():
    rng = replicate_stream(7, 0)
    for _ in range(50):
        counts, flat = sample_broods(BinaryBernoulli(0.5), 1, rng)
        assert counts.tolist() == [2] and flat.size == 2
        assert set(flat.tolist()) <= {0.0, 1.0}


def test_degenerate_empty_outcome_rejected_at_validation():
    law = ExplicitFinite((((), 1.0),))
    report = validate(law)
    assert not report.ok
    assert any("supercriticality" in v for v in report.violations)
    assert any("strict-convexity" in v for v in report.violations)


def test_validate_examples():
    r = validate(BinaryBernoulli(0.3))
    assert r.ok and r.violations == ()

    sub = ProductLaw(((0, 0.6), (2, 0.4)), DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))
    r = validate(sub)
    assert not r.ok
    assert any("supercriticality" in v for v in r.violations)

    gauss = ProductLaw(((1, 0.5), (3, 0.5)), Gaussian(0.0, 1.0))
    r = validate(gauss)
    assert r.ok and r.violations == ()


def test_deterministic_displacement_rejected():
    with pytest.raises(LawValidationError):
        DiscreteFinite(((1.0, 1.0),))
    law = ExplicitFinite((((1.0, 1.0), 0.5), ((1.0,), 0.5)))
    report = validate(law)
    assert not report.ok
    assert any("strict-convexity" in v for v in report.violations)


def test_fractional_child_count_rejected():
    step = DiscreteFinite(((0.0, 0.5), (1.0, 0.5)))
    with pytest.raises(LawValidationError, match="integers"):
        ProductLaw(((2.5, 1.0),), step)
    assert ProductLaw(((2.0, 1.0),), step).offspring_pmf == ((2, 1.0),)


@pytest.mark.parametrize("stddev", [0.0, -1.0, math.nan])
def test_gaussian_needs_a_positive_stddev(stddev):
    with pytest.raises(LawValidationError, match=r"^Gaussian: stddev must be > 0$"):
        Gaussian(0.0, stddev)


def test_probability_renormalization():
    law = BinaryBernoulli(0.3)
    assert mean_children(law) == 2.0
    # within 1e-12 of one: accepted and renormalized exactly
    pmf = ((2, 0.5), (3, 0.5 + 4e-13))
    law2 = ProductLaw(pmf, DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))
    assert math.fsum(p for _, p in law2.offspring_pmf) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(LawValidationError):
        ProductLaw(((2, 0.5), (3, 0.6)), DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))
    with pytest.raises(LawValidationError):
        ExplicitFinite((((0.0,), -0.1), ((1.0,), 1.1)))
    # a NaN probability sums to NaN, which is not 1 either
    for make in (lambda q: DiscreteFinite(((0.0, q), (1.0, 0.5))),
                 lambda q: ProductLaw(((2, q), (3, 0.5)), DiscreteFinite(((0.0, 0.5), (1.0, 0.5)))),
                 lambda q: ExplicitFinite((((0.0,), q), ((1.0,), 0.5)))):
        assert make(0.5)
        with pytest.raises(LawValidationError, match="sum to nan"):
            make(math.nan)


def test_zero_probability_items_dropped_at_construction():
    step = DiscreteFinite(((0.0, 0.5), (5.0, 0.0), (1.0, 0.5)))
    assert step.atoms == ((0.0, 0.5), (1.0, 0.5))
    assert ProductLaw(((0, 0.0), (2, 1.0)), step).offspring_pmf == ((2, 1.0),)
    assert ExplicitFinite((((7.0,), 0.0), ((0.0, 1.0), 1.0))).outcomes == (((0.0, 1.0), 1.0),)
    # distinct atoms are counted among those of positive probability
    with pytest.raises(LawValidationError, match="positive probability"):
        DiscreteFinite(((0.0, 1.0), (1.0, 0.0)))
    # a duplicate child count is refused even when one copy has probability 0
    with pytest.raises(LawValidationError, match="duplicate"):
        ProductLaw(((2, 1.0), (2, 0.0)), step)


def test_displacement_lln():
    # empirical mean displacement over 1e6 draws vs the exact mean 0.3
    law = BinaryBernoulli(0.3)
    rng = replicate_stream(123, 0)
    total, children = 0.0, 0
    for _ in range(100):
        _, flat = sample_broods(law, 10_000, rng)
        total += float(flat.sum())
        children += flat.size
    mean = total / children
    stderr = math.sqrt(0.3 * 0.7 / children)
    assert abs(mean - 0.3) <= 3.0 * stderr


def test_child_count_frequencies():
    pmf = ((0, 0.2), (1, 0.3), (2, 0.3), (3, 0.2))
    law = ProductLaw(pmf, DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))
    rng = replicate_stream(9, 1)
    n = 200_000
    counts, _ = sample_broods(law, n, rng)
    freq = np.bincount(counts, minlength=4) / n
    for k, p in pmf:
        assert abs(freq[k] - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_exchangeable_displacements():
    # joint moments symmetric under index permutation within 4 sigma
    law = ProductLaw(((2, 1.0),), DiscreteFinite(((0.0, 0.7), (2.0, 0.3))))
    rng = replicate_stream(5, 2)
    _, flat = sample_broods(law, 300_000, rng)
    d = flat.reshape(-1, 2)
    m12 = d[:, 0] * d[:, 1] ** 2
    m21 = d[:, 1] * d[:, 0] ** 2
    diff = m12 - m21
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 4.0 * se


def test_explicit_outcome_sampling():
    law = ExplicitFinite((((0.0, 0.0), 0.5), ((0.0, 1.0), 0.3), ((1.0, 2.0), 0.2)))
    rng = replicate_stream(17, 3)
    counts, flat = sample_broods(law, 50_000, rng)
    assert np.all(counts == 2)
    broods = {tuple(row) for row in flat.reshape(-1, 2)}
    assert broods <= {(0.0, 0.0), (0.0, 1.0), (1.0, 2.0)}
    freq = sum(tuple(row) == (1.0, 2.0) for row in flat.reshape(-1, 2)) / 50_000
    assert abs(freq - 0.2) <= 4.0 * math.sqrt(0.2 * 0.8 / 50_000)


def test_sampling_reproducible():
    law = BinaryBernoulli(0.3)
    a = sample_broods(law, 100, replicate_stream(42, 5))
    b = sample_broods(law, 100, replicate_stream(42, 5))
    c = sample_broods(law, 100, replicate_stream(42, 6))
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_structural_views(law_explicit):
    assert offspring_pmf(BinaryBernoulli(0.1)) == ((2, 1.0),)
    assert offspring_pmf(law_explicit) == ((2, 1.0),)
    values, weights, _ = intensity_atoms(law_explicit)
    assert weights.sum() == pytest.approx(2.0)
    assert lattice_frame(values) == (0.0, 1.0)


@pytest.mark.parametrize("values, frame", [
    # within 1e-9 of integers: exactly the integer frame, however wide
    ([0, 1], (0.0, 1.0)),
    ([-60, 1 - 1e-10, 5000], (0.0, 1.0)),
    ([], (0.0, 1.0)),
    # two values, or evenly spaced ones, always have a frame
    ([0.5, 1.0], (0.5, 0.5)),
    ([-0.3, 0.7], (-0.3, 1.0)),
    ([0.0, math.sqrt(2)], (0.0, math.sqrt(2))),
    ([-0.5, 0.5, 2.5], (-0.5, 1.0)),
    ([0.25], (0.25, 1.0)),
    # incommensurate values drive the search past MAX_FRAME_SPAN = 10^6 steps
    ([0.0, 1.0, math.pi], None),
    ([0.0, 1.0, math.sqrt(2)], None),
    # near-commensurate: 1.0001 is 10,001 steps of its own gap (rounded)
    ([0.0, 1.0, 1.0001], None),
    ([0.0, 0.5, 500.0], (0.0, 0.5)),
    # commensurate, but the gcd 1e-7 makes 10^7 steps
    ([0.0, 0.3, 1.0000003], None),
    ([0.0, 0.001, 1.0], (0.0, 0.001)),
    # a frame finer than every gap: Euclid takes 1 - 2 (0.4) for h
    ([0.0, 0.4, 1.0], (0.0, 1.0 - 2 * 0.4)),
    # at most MAX_FRAME_SPAN = 10^6 steps wide
    ([0.0, 0.5, 500.5], (0.0, 0.5)),
    ([0.0, 0.5, 500_000.0], (0.0, 0.5)),
    ([0.0, 0.5, 500_000.5], None),
])
def test_lattice_frame(values, frame):
    assert lattice_frame(np.array(values, dtype=np.float64)) == frame


@pytest.mark.parametrize("u", [[0, 2, 5], [0, 1, 2000], [0, 1500, 3001], [-3, 0, 1, 7]])
def test_lattice_frame_of_an_affine_image(u):
    # integers u have the frame (0, 1) however their gaps fall; their image
    # psi - t* u, as a spine's steps are, has the frame (psi - t* max u, t*)
    psi, t = 1.234567, 0.7318275
    a, h = lattice_frame(psi - t * np.array(u, dtype=np.float64))
    assert a == pytest.approx(psi - t * max(u), rel=1e-15, abs=1e-12)
    assert h == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("name", ["law_p03", "law_p0", "law_explicit", "law_gaussian",
                                  "law_mixed_offspring", "law_tenths"])
def test_child_atoms_merge_to_the_intensity(request, name):
    # intensity_atoms is this table merged over child counts (its tables are
    # pinned in test_golden.py); the weights sum to the mean child count, the
    # counts are brood sizes of the law and a Gaussian step keeps its sd as
    # the noise
    law = request.getfixturevalue(name)
    values, counts, weights, noise = child_atoms(law)
    assert weights.sum() == pytest.approx(mean_children(law), rel=1e-15, abs=0)
    assert noise == intensity_atoms(law)[2] == getattr(step_law(law), "stddev", 0.0)
    assert set(counts.tolist()) <= {k for k, _ in offspring_pmf(law)} - {0}


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=30, deadline=None)
def test_binary_constructible_on_open_interval(p):
    assert mean_children(BinaryBernoulli(p)) == 2.0


@given(st.floats(max_value=0.0), st.floats(min_value=1.0))
@settings(max_examples=20, deadline=None)
def test_binary_rejects_outside_interval(lo, hi):
    with pytest.raises(LawValidationError):
        BinaryBernoulli(lo)
    with pytest.raises(LawValidationError):
        BinaryBernoulli(hi)


def test_top_uniform_draws_the_last_atom(law_tenths, top_uniform):
    # a cdf ending below 1 once sent this uniform past the end of the table
    counts, flat = sample_broods(law_tenths, 3, top_uniform)
    assert counts.tolist() == [2, 2, 2] and flat.tolist() == [0.0, 1.0] * 3
    tenths = ProductLaw(tuple((k, 0.1) for k in range(1, 11)),
                        DiscreteFinite(tuple((float(j), 0.1) for j in range(10))))
    counts, flat = sample_broods(tenths, 2, top_uniform)
    assert counts.tolist() == [10, 10] and flat.tolist() == [9.0] * 20
    # a trailing atom of probability zero is never drawn
    zero_tail = ProductLaw(((1, 0.5), (2, 0.5), (3, 0.0)),
                           DiscreteFinite(((0.0, 0.5), (1.0, 0.5), (2.0, 0.0))))
    counts, flat = sample_broods(zero_tail, 2, top_uniform)
    assert counts.tolist() == [2, 2] and flat.tolist() == [1.0] * 4
