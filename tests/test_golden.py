"""Golden outputs: exact values of the Monte Carlo routes at fixed seeds and
of the exact oracles they are judged against.

A refactor that claims to keep every output must keep these bit for bit,
so each value is compared with ``==``.  They were recorded with numpy 2.4.6
on Python 3.11.7; another numpy may change a generator's output and with it
these values.  A change that alters the random draws on purpose (as the
chunked population kernel did for the survival, tree-route, M/kappa, G and
escape-cap pins) records them again and says so in CHANGES.md.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

from conftest import P0, default_library, gw_survival_to_n, sample_broods
from kbrw.analysis import solve_tstar
from kbrw.cli import main
from kbrw.models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite, Gaussian, ProductLaw,
                         intensity_atoms)
from kbrw.mogulskii import (ArraySpec, CorridorSpec, brownian_corridor_mc,
                            corridor_constant, triangular_experiment)
from kbrw.oracle import LatticeLaw, exact_path_survival, rho_limit
from kbrw.simulate import (BarrierSpec, GwEmbedParams, escape_cap_sweep, estimate_M_kappa,
                           estimate_rho, simulate_G)
from kbrw.spine import (expected_leaf_sum_exact, functional, make_spine,
                        spine_many_to_one_rhs, tree_many_to_one_lhs)
from kbrw.transform import make_vlaw

MIXED = ProductLaw(((0, 0.2), (1, 0.3), (2, 0.3), (3, 0.2)),
                   DiscreteFinite(((0.0, 0.5), (1.0, 0.5))))
# steps {-1, 0, 2}: the DP window grows by 2 and shrinks by 1 per level
SKEWED = ProductLaw(((0, 0.1), (1, 0.3), (2, 0.4), (3, 0.2)),
                    DiscreteFinite(((-1.0, 0.3), (0.0, 0.3), (2.0, 0.4))))
# atomic broods with an empty one, so the embedded GW process can die out
EXPLICIT = ExplicitFinite((((), 0.25), ((0.0, 1.0), 0.45), ((-1.0, 1.0, 2.0), 0.3)))
# Gaussian steps with a random and with a fixed child count
GAUSS_MIXED = ProductLaw(((1, 0.5), (3, 0.5)), Gaussian(0.0, 1.0))
GAUSS_FIXED = ProductLaw(((2, 1.0),), Gaussian(0.3, 1.5))


def _vlaw(law):
    return make_vlaw(law, solve_tstar(law))


def test_survival_csv_bytes(tmp_path):
    # the survival config of acceptance criterion 11
    cfg = tmp_path / "survival.json"
    cfg.write_text(json.dumps({"law": {"type": "binary_bernoulli", "p": 0.3}, "seed": 97,
                               "slopes": [0.1], "n": [6], "replicates": 2000}))
    out = tmp_path / "survival.csv"
    assert main(["survival", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "25bfcd8f1384d9e033aec44104db8e8ed461332b129a217b1745dae08a186210"


def test_mogulskii_csv_bytes(tmp_path):
    # the shipped lazy-walk corridor config: three DP rows with endpoint columns
    cfg = Path(__file__).resolve().parents[1] / "configs" / "mogulskii_lazy.json"
    out = tmp_path / "mogulskii.csv"
    assert main(["mogulskii", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "55da5fdd8e00006c1ff3a3e303baa8329d694de426108daad8a282491ea7b41b"


def test_pemantle_csv_bytes(tmp_path):
    # the shipped pemantle config: exact DP rows only
    cfg = Path(__file__).resolve().parents[1] / "configs" / "pemantle_binary.json"
    out = tmp_path / "pemantle.csv"
    assert main(["pemantle", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "4772e74a1c1d1c6ed6650cc0637ee61a25a05808965cc9d1e077ff555f0debbe"


def test_analyze_csv_bytes(tmp_path):
    # the shipped analyze config: constants and certificates of binary p = 0.3
    cfg = Path(__file__).resolve().parents[1] / "configs" / "analyze_binary.json"
    out = tmp_path / "analyze.csv"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "5ed76d7eeb7b51015e3a927503fd7fafb9130ecee63516c81c73c4bc0eb9c943"


def test_shipped_survival_csv_bytes(tmp_path):
    # the shipped survival config: nine Monte Carlo rows of 1,563 chunks at
    # cap 10^4, so each row's draws cross several group boundaries
    cfg = Path(__file__).resolve().parents[1] / "configs" / "survival_binary.json"
    out = tmp_path / "survival.csv"
    assert main(["survival", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "edc4a1cab1c27f9ab25d04060ca3ec06dda0647f1a48913b615370a0fb9aafac"


def test_lattice_corridor_rows():
    # a sloped strip for the lazy walk and a five-knot corridor for the skew
    # lattice {-1, 0, 2}, both with an endpoint window
    lazy = CorridorSpec.from_functions(lambda t: -1 + 0.3 * t, lambda t: 2 - 0.4 * t, 0.8)
    row, = triangular_experiment(ArraySpec.lazy_walk(), lazy, [8000], endpoint_b=0.5)
    assert (row.prob, row.endpoint_prob) == (0.00010138793326528382, 1.3681077656454683e-05)
    knots = CorridorSpec((0.0, 0.3, 0.31, 0.7, 1.0), (-1.0, -0.5, -0.5, -1.2, -0.8),
                         (1.0, 1.5, 3.0, 0.6, 1.1), 1.2)
    skew = ArraySpec.lattice(((-1, 0.3), (0, 0.3), (2, 0.4)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the skew walk drifts
        row, = triangular_experiment(skew, knots, [8000], endpoint_b=0.3)
    assert (row.prob, row.endpoint_prob) == (4.808153867424979e-286, 3.20404744814944e-286)


def test_brownian_corridor_mc():
    # 45k paths span three streams, the last one partial
    assert brownian_corridor_mc(-1, 1, -1, 1, paths=45_000, steps=40, seed=5) == \
        (0.3716639898161002, 0.0021729473090450068)


def test_many_to_one_routes():
    f = functional("below_line", slope=0.5)
    # binary law: fixed topology, many chunks of replicates
    assert tree_many_to_one_lhs(_vlaw(BinaryBernoulli(0.3)), 4, f, 10_000, seed=3) == \
        (0.651327907509476, 0.02080028271257619)
    # mixed offspring counts: random topology, the last chunk partial
    vm = _vlaw(MIXED)
    assert tree_many_to_one_lhs(vm, 4, f, 300, seed=4) == \
        (0.8051663820869261, 0.11443739275791127)
    g = functional("below_line_maxnu", slope=0.5, r=2)
    assert spine_many_to_one_rhs(make_spine(vm), 4, g, 10_000, seed=6) == \
        (0.1002, 0.003002814960960628)


def test_intensity_tables():
    # (values, weights, noise) of intensity_atoms on the models fixture laws;
    # MIXED is also the bench's mixed law
    expected = {
        BinaryBernoulli(0.3): ([0.0, 1.0], [1.4, 0.6], 0.0),
        BinaryBernoulli(P0): ([0.0, 1.0], [1.8660254037844386, 0.1339745962155614], 0.0),
        ExplicitFinite((((0.0, 0.0), 0.5), ((0.0, 1.0), 0.3), ((1.0, 2.0), 0.2))):
            ([0.0, 1.0, 2.0], [1.3, 0.5, 0.2], 0.0),
        GAUSS_MIXED: ([0.0], [2.0], 1.0),
        MIXED: ([0.0, 1.0], [0.75, 0.75], 0.0),
        ExplicitFinite(tuple(((0.0, float((j + 1) % 3)), 0.1) for j in range(10))):
            ([0.0, 1.0, 2.0], [1.3, 0.4, 0.30000000000000004], 0.0),
    }
    for law, table in expected.items():
        values, weights, noise = intensity_atoms(law)
        assert (values.tolist(), weights.tolist(), noise) == table


def test_spine_tables():
    # (s_values, nu_values, probs, noise) of make_spine: finite laws tilt one
    # atom per child, a Gaussian step puts its tilted mean at each count
    expected = {
        BinaryBernoulli(0.3): ([2.3371509353037863, -0.36551835253670895], [2, 2],
                               [0.13524346252099828, 0.8647565374790018], 0.0),
        MIXED: ([2.192995292399475] * 3 + [-0.20028532658221776] * 3, [1, 2, 3] * 2,
                [0.016737304016395383, 0.033474608032790766, 0.03347460803279077,
                 0.1832626959836046, 0.3665253919672092, 0.36652539196720924], 0.0),
        SKEWED: ([2.845760149845482] * 3 + [1.808664938678613] * 3
                 + [-0.26552548365512485] * 3, [1, 2, 3] * 3,
                 [0.005228108349973595, 0.013941622266596254, 0.010456216699947191,
                  0.014748549392106524, 0.0393294650456174, 0.029497098784213055,
                  0.15649393049321395, 0.41731714798190395, 0.312987860986428], 0.0),
        EXPLICIT: ([2.208440866461773, 0.7633395545243704, 3.6535421783991753,
                    0.7633395545243704, -0.6817617574130321], [2, 2, 3, 3, 3],
                   [0.04944231894627461, 0.20974825549399415, 0.007769767928153731,
                    0.13983217032932943, 0.5932074873022481], 0.0),
        GAUSS_MIXED: ([0.0, 0.0], [1, 3], [0.25, 0.75], 1.1774100225154747),
        GAUSS_FIXED: ([-2.220446049250313e-16], [2], [1.0], 1.1774100225154749),
    }
    for law, table in expected.items():
        sp = make_spine(_vlaw(law))
        assert (sp.s_values.tolist(), sp.nu_values.tolist(), sp.probs.tolist(),
                sp.noise) == table


def test_exact_leaf_sums_of_the_library():
    # every library functional by the exact forward pass at n = 4; the
    # functional below_line_maxnu(0.5, 2) is exactly 0 on EXPLICIT, whose
    # broods of two all step above the line
    expected = {
        BinaryBernoulli(0.3): [1.0000000000000007, 0.6466682845672752, 0.7341259424746678,
                               2.0112992451873795, 0.6466682845672752],
        MIXED: [0.999999999999999, 0.769364647694118, 0.7049791976545012,
                1.8589656996919106, 0.09970965834115769],
        EXPLICIT: [1.0, 0.5376158894385491, 0.604024565678799,
                   2.1139801370028732, 0.0],
        SKEWED: [0.9999999999999997, 0.7350132356783805, 0.7350132356783805,
                 1.9519234292704855, 0.12884578469567134],
    }
    for law, values in expected.items():
        vl = _vlaw(law)
        assert [expected_leaf_sum_exact(vl, 4, f)
                for f in default_library(vl.profile.sigma)] == values


def test_tree_route_functionals():
    # 400 replicates: six full chunks and a partial one
    fs = [functional("band", half_width=2.0), functional("exp_capped", u=1.0, cap=2.0),
          functional("below_line_maxnu", slope=1.0, r=2)]
    expected = {
        MIXED: [(0.7112414292211193, 0.0918796900456548),
                (1.82390873332485, 0.13499778249952704),
                (0.12226460968492196, 0.03262554409747676)],
        EXPLICIT: [(0.6932153218621919, 0.07935224644125986),
                   (1.972224916457187, 0.12431090469780236),
                   (0.002478007851042852, 0.0005270188970702532)],
    }
    for law, values in expected.items():
        vl = _vlaw(law)
        assert [tree_many_to_one_lhs(vl, 4, f, 400, seed=11 + j)
                for j, f in enumerate(fs)] == values


def test_population_routines():
    vb = _vlaw(BinaryBernoulli(0.3))
    assert estimate_M_kappa(vb, j_max=6, replicates=200, seed=7) == (2.3371509353037863, 1.0)
    params = GwEmbedParams(n=12, eps=0.43, alpha=0.5, L=10, M=0.2)
    assert int(simulate_G(vb, params, 1000, seed=8).sum()) == 120
    sweep = escape_cap_sweep(vb, BarrierSpec("V", 0.1), 10, 400, [2, 8, 64, math.inf], seed=9)
    assert [e.p_hat for e in sweep] == [0.15, 0.035, 0.035, 0.035]


def test_gaussian_profiles_and_certificates():
    # (t*, gamma, psi, psi'', sigma^2, beta_U, beta_V), then the two tilt
    # residuals and the two delta witnesses of make_vlaw
    expected = {
        GAUSS_MIXED: ((1.1774100225154747, 1.1774100225154747, 1.3862943611198906, 1.0,
                       1.3862943611198906, 2.410453395121491, 2.6155474501253293),
                      (0.0, 0.0, 1.9999999999999998, 16.0)),
        GAUSS_FIXED: ((0.7849400150103166, 2.0661150337732117, 1.6217763656229858, 2.25,
                       1.386294361119891, 2.95219043340349, 2.61554745012533),
                      (0.0, -2.220446049250313e-16, 2.000000000000001, 16.000000000000007)),
    }
    for law, (profile, certificates) in expected.items():
        p = solve_tstar(law)
        assert (p.t_star, p.gamma, p.psi_tstar, p.psi2_tstar, p.sigma2, p.beta_U,
                p.beta_V) == profile
        v = make_vlaw(law, p)
        assert (v.mean_exp_residual, v.mean_vexp_residual, v.delta1_witness,
                v.delta2_witness) == certificates


def test_gaussian_broods():
    rng = np.random.default_rng(12)
    counts, flat = sample_broods(GAUSS_MIXED, 3, rng)
    assert (counts.tolist(), flat.tolist()) == (
        [1, 3, 1], [0.7239565416499906, 1.6187762233340763, -1.2055581426463289,
                    -0.6269554710763733, -1.3206632116051251])
    counts, flat = sample_broods(GAUSS_FIXED, 2, rng)
    assert (counts.tolist(), flat.tolist()) == (
        [2, 2], [0.2670781705944296, 1.0438200996963325, -2.5661529962649707,
                 0.5205962488174914])


def test_gaussian_survival_and_spine_routes():
    vg = _vlaw(GAUSS_MIXED)
    est = estimate_rho(vg, BarrierSpec("V", 0.1), 6, 500, seed=5)
    assert (est.survivors, est.ci_low, est.ci_high, est.cap_hits) == \
        (4, 0.00311531518006224, 0.020387035834105168, 0)
    # two child counts, so every level also draws the count
    sp = make_spine(vg)
    assert spine_many_to_one_rhs(sp, 40, functional("below_line", slope=0.5), 3000,
                                 seed=2) == (0.4696666666666667, 0.009113413981658939)
    assert spine_many_to_one_rhs(sp, 40, functional("band", half_width=2.0), 3000,
                                 seed=3) == (0.0003333333333333333, 0.0003333333333333333)


def test_gaussian_spine_corridor_row():
    g = ProductLaw(((1, 0.5), (3, 0.5)), Gaussian(0.0, 1.0))
    arr = ArraySpec.from_spine(make_spine(_vlaw(g)))
    spec = CorridorSpec.from_functions(lambda t: -1.0, lambda t: 1.0, 1.0)
    row, = triangular_experiment(arr, spec, [8], endpoint_b=0.5, mc_replicates=70_000,
                                 seed=10)
    assert (row.method, row.prob, row.endpoint_prob) == \
        ("mc", 0.18004285714285714, 0.03724285714285714)


def test_exact_path_survival():
    # u_line 3.0 is above every step, so the kill line is unreachable and the
    # value is exactly 0; each value is within 1e-15 relative of a 40-digit
    # evaluation of the same recursion
    lines = (-0.5, 0.0, 0.77, 0.95, 3.0)
    expected = {
        BinaryBernoulli(0.3): [1.0, 1.0, 0.028787195706118998, 7.738575688359826e-40, 0.0],
        SKEWED: [0.6906468155213749, 0.6494823921806249, 0.3132418207363107,
                 0.2887147625900421, 0.0],
        EXPLICIT: [0.6833977214147069, 0.6803893097097766, 0.45659262070661555,
                   0.42327579071382515, 0.0],
    }
    for law, values in expected.items():
        ll = LatticeLaw.from_law(law)
        assert [exact_path_survival(ll, 300, u_line=c) for c in lines] == values


def test_unreachable_kill_line_is_exactly_zero():
    # 1 - Q once gave -2.2e-16 here for SKEWED: its pgf sums to 1 + 2.2e-16
    for law in (BinaryBernoulli(0.3), SKEWED, EXPLICIT):
        ll = LatticeLaw.from_law(law)
        for n in (1, 2, 7, 64, 300):
            for c in (ll.u_max + 0.5, 3.0):
                assert exact_path_survival(ll, n, u_line=c) == 0.0


def test_rho_limit_on_pemantle_grid():
    law = BinaryBernoulli(0.3)
    ll, profile = LatticeLaw.from_law(law), solve_tstar(law)
    got = [rho_limit(ll, BarrierSpec("U", e).u_line(profile))
           for e in (0.02, 0.01, 0.005, 0.003)]
    # within 1.5e-15 relative of the untrimmed recursion in 80-bit long double
    assert got == [(0.00013489462653990106, 1024), (2.883698150168405e-06, 4096),
                   (1.322358809802639e-08, 8192), (7.395409891146395e-11, 32768)]


def test_gw_survival_to_n():
    assert gw_survival_to_n(LatticeLaw.from_law(EXPLICIT), 50) == 0.7021520315827742
    assert gw_survival_to_n(LatticeLaw.from_law(SKEWED), 50) == 0.8416876048223001


def test_corridor_constant_flat_strip():
    spec = CorridorSpec.from_functions(lambda t: -1.0, lambda t: 1.0, math.sqrt(2 / 3))
    assert corridor_constant(spec) == -0.8224670334241131
