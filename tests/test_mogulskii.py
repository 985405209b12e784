import csv
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORRIDOR_REL_TOL, corridor_series, full_product_corridor_mc
from kbrw.cli import main
from kbrw.analysis import solve_tstar
from kbrw.models import BinaryBernoulli, DiscreteFinite, ProductLaw
from kbrw.mogulskii import (ArraySpec, CorridorSpec, brownian_corridor_mc,
                            corridor_constant, default_endpoint_b, ito_mckean_f,
                            r_n, triangular_experiment)
from kbrw.spine import make_spine
from kbrw.transform import make_vlaw

# series value of the unit-strip staying probability, frozen from the
# eigenfunction expansion and confirmed against the bridge-corrected MC
F_UNIT_STRIP = 0.37077742979952394


def _flat(level):
    return lambda t: level


def test_corridor_constant_flat_strip():
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 1.0)
    assert corridor_constant(spec) == pytest.approx(-math.pi ** 2 / 8.0, abs=1e-10)


def test_corridor_constant_cone():
    spec = CorridorSpec.from_functions(lambda t: -1.0 - t, lambda t: 1.0 + t, 1.0)
    assert corridor_constant(spec) == pytest.approx(-math.pi ** 2 / 16.0, abs=1e-10)


def test_corridor_constant_sigma_scaling():
    base = corridor_constant(CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 1.0))
    doubled = corridor_constant(CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 2.0))
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


@given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_corridor_constant_closed_form_strips(lo, hi):
    spec = CorridorSpec.from_functions(_flat(-lo), _flat(hi), 1.0)
    expected = -math.pi ** 2 / (2.0 * (lo + hi) ** 2)
    assert corridor_constant(spec) == pytest.approx(expected, abs=1e-10)


def test_corridor_invariants_enforced():
    with pytest.raises(ValueError):
        CorridorSpec.from_functions(_flat(0.5), _flat(1.0), 1.0)   # g1(0) >= 0
    with pytest.raises(ValueError):
        CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 0.0)  # sigma
    with pytest.raises(ValueError):
        # pinches at t = 1
        CorridorSpec.from_functions(lambda t: -1.0 + t, lambda t: 1.0 - t, 1.0)


def test_ito_mckean_empty_window():
    # the series sums to +0.0 on a point window, edges and origin included
    for a, b, c in ((-1.0, 1.0, 0.5), (-1.0, 1.0, -1.0), (-0.3, 2.0, 2.0),
                    (-2.5, 0.7, 0.0), (-1e-3, 4.0, 1.3)):
        f = ito_mckean_f(a, b, c, c)
        assert f == 0.0 and math.copysign(1.0, f) == 1.0


def test_ito_mckean_unit_strip_value():
    assert ito_mckean_f(-1.0, 1.0, -1.0, 1.0) == pytest.approx(F_UNIT_STRIP, abs=1e-13)


def test_ito_mckean_additivity():
    f = ito_mckean_f
    for m in (-0.7, -0.2, 0.0, 0.4, 0.9):
        split = f(-1, 1, -1, m) + f(-1, 1, m, 1)
        assert split == pytest.approx(f(-1, 1, -1, 1), abs=1e-12)


def test_ito_mckean_monotonicity():
    f = ito_mckean_f
    vals = [f(-1, 1, -1, d) for d in (-0.5, 0.0, 0.5, 1.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    widths = [f(-w, w, -w, w) for w in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_ito_mckean_preconditions():
    with pytest.raises(ValueError):
        ito_mckean_f(0.1, 1.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        ito_mckean_f(-1.0, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        ito_mckean_f(-1.0, 1.0, 0.5, 0.2)


def test_ito_mckean_matches_mc_oracle():
    mc, se = brownian_corridor_mc(-1, 1, -1, 1, paths=60_000, steps=800, seed=2)
    assert abs(F_UNIT_STRIP - mc) <= 3.0 * se


def test_mc_oracle_deterministic():
    a = brownian_corridor_mc(-1, 1, -1, 1, paths=10_000, steps=100, seed=5)
    b = brownian_corridor_mc(-1, 1, -1, 1, paths=10_000, steps=100, seed=5)
    assert a == b


# the wide strip, an end window, an asymmetric strip, a narrow strip where a
# few paths survive, one where every path dies (so each chunk stops early),
# and one whose lower boundary is so close to 0 that the first step leaves
# most weights at exactly 0 and the rest near 1e-16
STRIPS = [(-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, -0.3, 0.5), (-0.5, 2.0, -0.5, 2.0),
          (-0.5, 0.5, -0.5, 0.5), (-0.05, 0.05, -0.05, 0.05), (-1e-17, 1.0, -1e-17, 1.0)]


# 23,456 paths leave a partial second chunk
@pytest.mark.parametrize("steps, paths", [(40, 23_456), (500, 5_000), (2_000, 1_500)])
@pytest.mark.parametrize("strip", STRIPS)
def test_mc_oracle_matches_the_full_product(strip, steps, paths):
    assert brownian_corridor_mc(*strip, paths=paths, steps=steps, seed=11) == \
        full_product_corridor_mc(*strip, paths=paths, steps=steps, seed=11)


@pytest.mark.parametrize("strip, steps", [
    ((-1.0, 1.0, 0.5, -0.5), 10),            # empty end window
    ((0.2, 1.0, 0.3, 0.5), 10),              # the strip misses 0
    ((-1.0, math.nan, -1.0, 1.0), 10),       # NaN boundary
    ((-1.0, 1.0, -1.0, 1.0), 0),
    ((-1.0, 1.0, -1.0, 1.0), -3),
    ((-1.0, 1.0, -1.0, 1.0), 2.5),
])
def test_mc_oracle_refuses_bad_input(strip, steps):
    with pytest.raises(ValueError, match="need"):
        brownian_corridor_mc(*strip, paths=1_000, steps=steps)


def test_lazy_walk_small_n_exact_enumeration():
    from itertools import product
    arr = ArraySpec.lazy_walk()
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), math.sqrt(2 / 3))
    rows = triangular_experiment(arr, spec, [12])
    n = 12
    a = rows[0].a_n
    bound = math.floor(a + 1e-9)
    steps = np.array(list(product((-1, 0, 1), repeat=n)), dtype=np.int64)
    s = np.cumsum(steps, axis=1)
    lit = float(np.all((s >= -bound) & (s <= bound), axis=1).mean())
    assert rows[0].prob == pytest.approx(lit, rel=1e-13)
    assert rows[0].method == "dp"


def test_lazy_walk_gap_shrinks():
    arr = ArraySpec.lazy_walk()
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), math.sqrt(2 / 3))
    rows = triangular_experiment(arr, spec, [1_000, 10_000])
    assert rows[0].gap > rows[1].gap
    assert rows[1].gap < 0.2 * abs(rows[1].target)
    wit = rows[1].witnesses
    assert wit["mean"] == 0.0 and wit["var"] == pytest.approx(2 / 3)


def test_endpoint_variant_present_only_when_requested():
    arr = ArraySpec.lazy_walk()
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), math.sqrt(2 / 3))
    plain = triangular_experiment(arr, spec, [500])
    assert plain[0].endpoint_prob is None
    b = default_endpoint_b(spec)
    assert b == pytest.approx(0.5)
    rows = triangular_experiment(arr, spec, [500], endpoint_b=b)
    assert 0.0 < rows[0].endpoint_prob <= rows[0].prob
    # the endpoint-constrained event shares the same scaled limit
    assert rows[0].endpoint_scaled <= rows[0].scaled_log_prob


def test_endpoint_window_above_the_corridor_is_empty(spine_p03, profile_p03):
    # b < 0 puts the window [a_n (g2(1) - b), a_n g2(1)] upside down, and it
    # must stay empty; at n = 512 the corridor top a_n = 8 is a lattice point,
    # so a window read the other way round would hold S_n = 8.  The spine
    # frame maps the window to K bounds as the lazy walk's does.
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), profile_p03.sigma)
    for arr in (ArraySpec.lazy_walk(), ArraySpec.from_spine(spine_p03)):
        row, = triangular_experiment(arr, spec, [512], endpoint_b=-0.1)
        assert row.method == "dp" and row.prob > 0.0
        assert row.endpoint_prob == 0.0


def test_endpoint_scaled_converges_too():
    # the endpoint-constrained event shares the limit constant: at sizeable n
    # its scaled log-probability sits near the target (no monotonicity claim,
    # the lattice-width rounding makes the approach oscillatory)
    arr = ArraySpec.lazy_walk()
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), math.sqrt(2 / 3))
    b = default_endpoint_b(spec)
    rows = triangular_experiment(arr, spec, [10_000], endpoint_b=b)
    assert abs(rows[0].endpoint_scaled - rows[0].target) < 0.2 * abs(rows[0].target)
    assert rows[0].endpoint_scaled <= rows[0].scaled_log_prob


def test_spine_family_conditioning_vacuous_on_binary(law_p03, profile_p03):
    vlaw = make_vlaw(law_p03, profile_p03)
    sp = make_spine(vlaw)
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), profile_p03.sigma)
    conditioned = ArraySpec.from_spine(sp, condition_nu=True)
    plain = ArraySpec.from_spine(sp, condition_nu=False)
    rows_c = triangular_experiment(conditioned, spec, [200, 400])
    rows_p = triangular_experiment(plain, spec, [200, 400])
    for rc, rp in zip(rows_c, rows_p):
        assert rc.prob == rp.prob  # nu = 2 always: conditioning changes nothing
        assert rc.method == "dp"
        assert rc.witnesses["nu_tail"] == 0.0
        assert rc.witnesses["var"] == pytest.approx(profile_p03.sigma2, abs=1e-12)
        assert abs(rc.witnesses["mean"]) < 1e-12


def test_spine_lattice_mapping_against_enumeration(law_p03, profile_p03):
    # the affine-lattice corridor DP vs literal enumeration of all 2^n
    # spine paths: S_i = i psi - t* B_i with B_i a Bernoulli(gamma) sum
    from itertools import product as iproduct
    vlaw = make_vlaw(law_p03, profile_p03)
    sp = make_spine(vlaw)
    arr = ArraySpec.from_spine(sp)
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), profile_p03.sigma)
    n = 12
    rows = triangular_experiment(arr, spec, [n])
    assert rows[0].method == "dp"
    a = rows[0].a_n
    t, psi, g = profile_p03.t_star, profile_p03.psi_tstar, profile_p03.gamma
    total = 0.0
    for bits in iproduct((0, 1), repeat=n):
        b = np.cumsum(bits)
        i = np.arange(1, n + 1)
        s = i * psi - t * b
        if np.all((s >= -a - 1e-9) & (s <= a + 1e-9)):
            k = sum(bits)
            total += g ** k * (1 - g) ** (n - k)
    assert rows[0].prob == pytest.approx(total, rel=1e-12)


def test_spine_family_converges(law_p03, profile_p03):
    vlaw = make_vlaw(law_p03, profile_p03)
    sp = make_spine(vlaw)
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), profile_p03.sigma)
    arr = ArraySpec.from_spine(sp)
    rows = triangular_experiment(arr, spec, [500, 5_000, 50_000])
    gaps = [r.gap for r in rows]
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.25 * abs(rows[2].target)


# (n, prob, endpoint_prob) of the spine family on the flat strip of width 2
# with endpoint_b = 0.5; the spine step's atoms may be computed in another
# order, so these hold to 1e-10 relative, not bit for bit
SPINE_ROWS = [
    (BinaryBernoulli(0.3), [(3000, 8.305339667320489e-07, 1.0532267196126979e-07),
                            (50_000, 4.859012917081523e-17, 7.90737554143196e-18)]),
    (ProductLaw(((0, 0.1), (1, 0.3), (2, 0.4), (3, 0.2)),
                DiscreteFinite(((-1.0, 0.3), (0.0, 0.3), (2.0, 0.4)))),
     [(3000, 8.229132227421479e-05, 9.848206126741355e-06),
      (50_000, 1.0356351217423203e-11, 1.4248790049046205e-12)]),
]


@pytest.mark.parametrize("law, expected", SPINE_ROWS)
def test_spine_family_rows_pinned(law, expected):
    prof = solve_tstar(law)
    arr = ArraySpec.from_spine(make_spine(make_vlaw(law, prof)))
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), prof.sigma)
    rows = triangular_experiment(arr, spec, [n for n, _, _ in expected], endpoint_b=0.5)
    for row, (n, p, pe) in zip(rows, expected):
        assert (row.n, row.method) == (n, "dp")
        assert row.prob == pytest.approx(p, rel=1e-10, abs=0.0)
        assert row.endpoint_prob == pytest.approx(pe, rel=1e-10, abs=0.0)


def test_r_n_rule():
    assert r_n(1) == 2
    assert r_n(16) == math.floor(math.e ** 2)
    assert r_n(10_000) == math.floor(math.e ** 10)


def test_violation_warns_but_runs():
    # drifting family: mean 0.5 stays fixed, violating the vanishing-mean condition
    arr = ArraySpec.lattice(((0, 0.5), (1, 0.5)))
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 0.5)
    with pytest.warns(UserWarning):
        rows = triangular_experiment(arr, spec, [400])
    assert len(rows) == 1  # still produced


def _binary_product(atoms):
    return ProductLaw(((2, 1.0),), DiscreteFinite(atoms))


def test_spine_family_is_exact_iff_law_is_lattice(law_explicit):
    # half-integer steps lie on the frame (0, 1/2); {0, 1, sqrt 2} on none.
    # The spine steps psi - t* u of {0, 2, 5} have the gaps 2 t* and 3 t*,
    # and their frame step is the gcd t*
    half = _binary_product(((0.0, 0.7), (0.5, 0.3)))
    gaps = _binary_product(((0, 0.5), (2, 0.3), (5, 0.2)))
    irrational = _binary_product(((0.0, 0.5), (1.0, 0.3), (math.sqrt(2), 0.2)))
    for law, method in ((law_explicit, "dp"), (half, "dp"), (gaps, "dp"), (irrational, "mc")):
        prof = solve_tstar(law)
        arr = ArraySpec.from_spine(make_spine(make_vlaw(law, prof)))
        spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), prof.sigma)
        row, = triangular_experiment(arr, spec, [20], mc_replicates=20_000, seed=2)
        assert (arr.frame is not None, row.method) == (method == "dp", method)
        assert 0.0 < row.prob < 1.0


@pytest.mark.parametrize("atoms, prob", [
    (((0, 0.5), (2, 0.3), (5, 0.2)), 1.0532283424208035e-05),
    # 2,000 steps of t* wide
    (((0, 0.5), (1, 0.3), (2000, 0.2)), 3.034006312228677e-06),
])
def test_spine_of_an_integer_law_runs_the_dp(atoms, prob):
    # frozen from the DP on the law's own integer frame (0, 1), whose spine
    # walk psi - t* U is the reflection of the K walk on the steps' frame
    prof = solve_tstar(law := _binary_product(atoms))
    arr = ArraySpec.from_spine(make_spine(make_vlaw(law, prof)))
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), prof.sigma)
    row, = triangular_experiment(arr, spec, [1000], mc_replicates=1)
    assert row.method == "dp"
    assert row.prob == pytest.approx(prob, rel=1e-13)


def test_framed_spine_against_enumeration():
    # steps {0, 1/2}: the spine steps psi - t* u are {psi - t*/2, psi}, on
    # their own frame (psi - t*/2, t*/2); the corridor DP on it against all
    # 2^n spine paths
    from itertools import product as iproduct
    law = ProductLaw(((2, 1.0),), DiscreteFinite(((0.0, 0.7), (0.5, 0.3))))
    prof = solve_tstar(law)
    sp = make_spine(make_vlaw(law, prof))
    arr = ArraySpec.from_spine(sp)
    assert arr.frame == pytest.approx((prof.psi_tstar - prof.t_star * 0.5, prof.t_star * 0.5),
                                      rel=1e-12)
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), prof.sigma)
    n = 12
    row, = triangular_experiment(arr, spec, [n])
    assert row.method == "dp"
    total = 0.0
    for idx in iproduct(range(sp.s_values.size), repeat=n):
        s = np.cumsum(sp.s_values[list(idx)])
        if np.all((s >= -row.a_n - 1e-9) & (s <= row.a_n + 1e-9)):
            total += math.prod(sp.probs[list(idx)])
    assert row.prob == pytest.approx(total, rel=1e-12)


def _bare(values, probs):
    """A family built with the constructor alone, which reads its frame off
    its steps."""
    return ArraySpec((np.asarray(values, dtype=np.float64),
                      np.zeros(len(values), dtype=np.int64), np.asarray(probs)))


def test_frame_is_read_off_the_steps():
    # steps of +-0.4 lie on the frame (-0.4, 0.8): a +-1 walk W = S / 0.4,
    # and |S_i| <= a_n = 10 at n = 1000 is |W_i| <= 25, exact hits included
    arr = _bare((-0.4, 0.4), (0.5, 0.5))
    assert arr.frame == pytest.approx((-0.4, 0.8), rel=1e-15)
    row, = triangular_experiment(arr, CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 0.4),
                                 [1000])
    assert row.method == "dp"
    ref = corridor_series((0.5, 0.0, 0.5), -25, 25, 1000)
    assert abs(row.prob - ref) <= 1e-14 * ref
    # the frame is no argument: the old call (atoms, frame) is refused
    with pytest.raises(TypeError):
        ArraySpec(arr.atoms, (0.0, 1.0))
    noisy = ArraySpec(arr.atoms, noise=0.1)
    assert noisy.frame is None


def test_every_frame_has_a_positive_step(spine_p03, law_explicit):
    # K = (S - i a) / h counts up as S does, for every family
    half = _binary_product(((0.0, 0.7), (0.5, 0.3)))
    gaps = _binary_product(((0, 0.5), (2, 0.3), (5, 0.2)))
    spines = [ArraySpec.from_spine(spine_p03)] + [
        ArraySpec.from_spine(make_spine(make_vlaw(law, solve_tstar(law))))
        for law in (half, gaps, law_explicit)]
    families = [ArraySpec.lazy_walk(), ArraySpec.lattice(((-0.5, 0.5), (0.5, 0.5))),
                _bare((-0.4, 0.4), (0.5, 0.5))] + spines
    for arr in families:
        a, h = arr.frame
        assert h > 0.0
        k = (arr.atoms[0] - a) / h
        assert np.all(np.abs(k - np.rint(k)) < 1e-9)


def test_sampled_corridor_keeps_exact_hits_inclusive(monkeypatch):
    # 12.5 steps of 0.4 reach the corridor edge a_n = 5 at n = 125 only up to
    # rounding.  {-1, -0.4, 0, 0.4, 1} on its frame (-1, 0.2) runs the DP, as
    # its x5 image {-5, -2, 0, 2, 5} on the strip of half-width 5 a_n does;
    # sampled, a hit must stay inside just as it does there
    values, probs = (-1.0, -0.4, 0.0, 0.4, 1.0), (0.2,) * 5
    spec = CorridorSpec.from_functions(_flat(-1.0), _flat(1.0), 1.0)
    reps, n = 200_000, 125
    dp, = triangular_experiment(_bare(values, probs), spec, [n])
    scaled = ArraySpec.lattice(tuple((5 * v, p) for v, p in zip(values, probs)))
    ref, = triangular_experiment(scaled, CorridorSpec.from_functions(_flat(-5.0), _flat(5.0), 1.0),
                                 [n])
    assert (dp.method, ref.method) == ("dp", "dp")
    assert abs(dp.prob - ref.prob) <= 1e-13 * ref.prob
    monkeypatch.setattr(ArraySpec, "frame", property(lambda self: None))
    mc, = triangular_experiment(_bare(values, probs), spec, [n], mc_replicates=reps, seed=3)
    assert mc.method == "mc"
    se = math.sqrt(ref.prob * (1.0 - ref.prob) / reps)
    assert abs(mc.prob - ref.prob) < 4.0 * se


def test_half_integer_lattice_family_is_the_scaled_walk():
    # steps of +-1/2 in [-a_n, a_n] are steps of +-1 in [-2 a_n, 2 a_n]
    half = ArraySpec.lattice(((-0.5, 0.5), (0.5, 0.5)))
    unit = ArraySpec.lattice(((-1, 0.5), (1, 0.5)))
    assert half.frame == (-0.5, 1.0) and unit.frame == (0.0, 1.0)
    rows = [triangular_experiment(arr, CorridorSpec.from_functions(
                _flat(-w), _flat(w), sigma), [1000, 8000], endpoint_b=w / 2)
            for arr, w, sigma in ((half, 1.0, 0.5), (unit, 2.0, 1.0))]
    for r_half, r_unit in zip(*rows):
        assert r_half.method == r_unit.method == "dp"
        assert r_half.prob == pytest.approx(r_unit.prob, rel=1e-12)
        assert r_half.endpoint_prob == pytest.approx(r_unit.endpoint_prob, rel=1e-12)


def test_shipped_lazy_rows_against_sine_series(tmp_path):
    # the shipped config's rows are flat corridors [-m, m], m = floor(a_n),
    # with the endpoint window [ceil(a_n / 2), m]
    cfg = Path(__file__).resolve().parents[1] / "configs" / "mogulskii_lazy.json"
    out = tmp_path / "lazy.csv"
    assert main(["mogulskii", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [int(r["n"]) for r in rows] == [1000, 10_000, 100_000]
    for r in rows:
        n, a = int(r["n"]), float(r["a_n"])
        m = math.floor(a + 1e-9)
        window = (math.ceil(a / 2 - 1e-9), m)
        for got, win in ((float(r["prob"]), None), (float(r["endpoint_prob"]), window)):
            ref = corridor_series((1 / 3,) * 3, -m, m, n, win)
            assert abs(got - ref) <= CORRIDOR_REL_TOL * ref


def test_gaussian_spine_family_uses_mc(law_gaussian):
    prof = solve_tstar(law_gaussian)
    sp = make_spine(make_vlaw(law_gaussian, prof))
    arr = ArraySpec.from_spine(sp)
    spec = CorridorSpec.from_functions(_flat(-2.0), _flat(2.0), prof.sigma)
    rows = triangular_experiment(arr, spec, [30], mc_replicates=1_000_000, seed=8)
    assert rows[0].method == "mc"
    assert 0.0 < rows[0].prob < 1.0


def test_sampled_corridor_memory_does_not_grow_with_n(law_gaussian):
    # one full chunk of paths at n = 400; drawn as a single (chunk, n)
    # matrix it peaked at about 400 MB
    prof = solve_tstar(law_gaussian)
    arr = ArraySpec.from_spine(make_spine(make_vlaw(law_gaussian, prof)))
    spec = CorridorSpec.from_functions(_flat(-2.0), _flat(2.0), prof.sigma)
    tracemalloc.start()
    try:
        triangular_experiment(arr, spec, [400], mc_replicates=65_536, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
