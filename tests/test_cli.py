import importlib
import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kbrw import cli
from kbrw.analysis import solve_tstar
from kbrw.cli import (EXIT_NO_CRITICAL_POINT, EXIT_OK, EXIT_VALIDATION, _fmt,
                      law_from_config, main)
from kbrw.models import BOUNDARY_TOL, BinaryBernoulli, ExplicitFinite, ProductLaw
from kbrw.oracle import exact_corridor_walk

P0 = 0.0669872981077807
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = str(Path(cli.__file__).resolve().parent.parent)


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_law_from_config_families():
    assert isinstance(law_from_config({"type": "binary_bernoulli", "p": 0.3}),
                      BinaryBernoulli)
    assert isinstance(law_from_config(
        {"type": "product", "offspring_pmf": [[2, 1.0]],
         "step": {"type": "discrete", "atoms": [[0, 0.5], [1, 0.5]]}}), ProductLaw)
    assert isinstance(law_from_config(
        {"type": "explicit", "outcomes": [[[0, 1], 0.5], [[1], 0.5]]}), ExplicitFinite)


def test_fmt_non_finite_and_repr():
    assert [_fmt(x) for x in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]
    assert _fmt(0.1) == "0.10000000000000001" and _fmt(2) == "2" and _fmt("mc") == "mc"


def test_analyze_p0(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", {"law": {"type": "binary_bernoulli", "p": P0}})
    code = main(["analyze", "--config", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    gamma = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("gamma ")))
    assert gamma == pytest.approx(0.5, abs=1e-9)
    assert "aldous_rate" in out
    assert "beta_bs_derivative_form" in out


def test_analyze_gaussian_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, "ag.json", {"law": {
        "type": "product", "offspring_pmf": [[2, 1.0]],
        "step": {"type": "gaussian", "mean": 0.3, "stddev": 1.5}}})
    assert main(["analyze", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == """\
mean_children = 2
t_star = 0.78494001501031663
gamma = 2.0661150337732117
psi_tstar = 1.6217763656229858
psi2_tstar = 2.25
sigma2 = 1.386294361119891
beta_U = 2.9521904334034899
beta_V = 2.6155474501253302
tilt_identity_mean_exp_residual = 0
tilt_identity_mean_vexp_residual = -2.2204460492503131e-16
delta1_witness_E_sum_exp_minus_2V = 2.0000000000000009
delta2_witness_E_sum_exp_plus_V = 16.000000000000007
"""


def test_analyze_p03_beta_rows(tmp_path, capsys):
    cfg = _write(tmp_path, "a3.json", {"law": {"type": "binary_bernoulli", "p": 0.3}})
    assert main(["analyze", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    vals = dict(l.split(" = ") for l in out.splitlines() if " = " in l)
    assert float(vals["beta_V"]) == pytest.approx(2.0532, abs=5e-5)
    assert float(vals["beta_bs"]) == pytest.approx(1.249, abs=5e-4)
    assert "aldous_rate" not in vals  # only reported at the 16p(1-p)=1 point


def test_analyze_percolation_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "b.json", {"law": {"type": "binary_bernoulli", "p": 0.6}})
    assert main(["analyze", "--config", cfg]) == EXIT_NO_CRITICAL_POINT
    cfg2 = _write(tmp_path, "b2.json", {
        "law": {"type": "product", "offspring_pmf": [[3, 1.0]],
                "step": {"type": "discrete", "atoms": [[0, 0.6], [1, 0.4]]}}})
    assert main(["analyze", "--config", cfg2]) == EXIT_NO_CRITICAL_POINT


def test_analyze_domain_too_narrow_exit_code(tmp_path, capsys):
    # one ulp below the percolation threshold p = 1/2: t* is too large for
    # the bracket, which is reported like a missing critical point
    cfg = _write(tmp_path, "n.json", {"law": {"type": "binary_bernoulli",
                                               "p": 0.4999999999999999}})
    assert main(["analyze", "--config", cfg]) == EXIT_NO_CRITICAL_POINT


@pytest.mark.parametrize("command, extra", [
    ("survival", {"seed": 1, "slopes": [0.1], "n": [3], "replicates": 100}),
    ("mogulskii", {"seed": 1, "family": {"type": "spine"}, "n_list": [10],
                   "corridor": {"g1": {"type": "affine", "intercept": -1.0},
                                "g2": {"type": "affine", "intercept": 1.0},
                                "sigma": 1.0}}),
])
def test_percolation_exit_code_survival_and_mogulskii(tmp_path, command, extra):
    cfg = _write(tmp_path, f"{command}.json",
                 {"law": {"type": "binary_bernoulli", "p": 0.6}, **extra})
    assert main([command, "--config", cfg, "--threads", "1"]) == EXIT_NO_CRITICAL_POINT


@pytest.mark.parametrize("command, config", [
    ("analyze", "analyze_binary.json"), ("pemantle", "pemantle_binary.json"),
    ("mogulskii", "mogulskii_lazy.json")])
def test_escape_cap_only_for_survival(command, config, capsys):
    # the flag was once dropped silently outside survival; it lands in the
    # config, whose schema admits escape_cap for survival alone
    assert main([command, "--config", str(CONFIGS / config), "--escape-cap", "5"]) \
        == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "config.escape_cap" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(threads, capsys):
    # such a count once ran the rows serially and exited 0
    assert main(["survival", "--config", str(CONFIGS / "survival_binary.json"),
                 "--threads", threads]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and f"--threads must be at least 1, not {threads}" in err


def test_fractional_child_count_rejected(tmp_path, capsys):
    law = {"type": "product", "offspring_pmf": [[2.7, 1.0]],
           "step": {"type": "discrete", "atoms": [[0, 0.7], [1, 0.3]]}}
    assert main(["analyze", "--config", _write(tmp_path, "f.json", {"law": law})]) \
        == EXIT_VALIDATION
    law["offspring_pmf"] = [[2.0, 1.0]]
    assert main(["analyze", "--config", _write(tmp_path, "f2.json", {"law": law})]) == EXIT_OK
    assert "mean_children = 2\n" in capsys.readouterr().out


def test_analyze_subcritical_exit_code(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "law": {"type": "product", "offspring_pmf": [[0, 0.6], [2, 0.4]],
                "step": {"type": "discrete", "atoms": [[0, 0.5], [1, 0.5]]}}})
    assert main(["analyze", "--config", cfg]) == EXIT_VALIDATION


def test_bad_config_rejected(tmp_path):
    cfg = _write(tmp_path, "d.json", {"law": {"type": "binary_bernoulli"}})
    assert main(["analyze", "--config", cfg]) == EXIT_VALIDATION
    # stochastic command without a seed
    cfg2 = _write(tmp_path, "d2.json", {
        "law": {"type": "binary_bernoulli", "p": 0.3},
        "slopes": [0.1], "n": [4], "replicates": 200})
    assert main(["survival", "--config", cfg2]) == EXIT_VALIDATION


@pytest.mark.parametrize("command, text", [
    ("analyze", "[1, 2]"),
    ("analyze", "null"),
    ("analyze", b'{"law": {"type": "binary_bernoulli", "p": 0.3}, "x": "\xff"}'),
    ("mogulskii", {"family": {"type": "lattice", "atoms": [1, 2]}}),
    ("mogulskii", {"family": {"type": "lattice", "atoms": [[None, 0.5], [1, 0.5]]}}),
], ids=["list", "null", "not-utf8", "lattice-bare-atoms", "lattice-null-atom"])
def test_malformed_config_is_a_bad_config(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif isinstance(text, dict):
        path.write_text(json.dumps({**_mog_config(), **text}))
    else:
        path.write_text(text)
    assert main([command, "--config", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "bad config" in err and "Traceback" not in err


@pytest.mark.parametrize("command, config", [
    ("pemantle", {"law": {"type": "binary_bernoulli", "p": 0.3}, "eps_grid": [math.inf],
                  "rel_tol": 0.01}),
    ("mogulskii", {"corridor": {"g1": {"type": "affine", "intercept": -math.inf},
                                "g2": {"type": "affine", "intercept": 1.0}, "sigma": 0.8}}),
    ("survival", {"law": {"type": "binary_bernoulli", "p": 0.3}, "seed": 1,
                  "slopes": [math.nan], "n": [4], "replicates": 100}),
], ids=["pemantle-inf-eps", "mogulskii-minus-inf-intercept", "survival-nan-slope"])
def test_non_finite_json_constants_are_a_bad_config(tmp_path, capsys, command, config):
    # json.dumps writes Infinity and NaN, which are not JSON
    if command == "mogulskii":
        config = {**_mog_config(), **config}
    cfg = _write(tmp_path, "nf.json", config)
    out = tmp_path / "nf.csv"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) \
        == EXIT_VALIDATION
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


def _survival_config():
    return {"law": {"type": "binary_bernoulli", "p": 0.3}, "seed": 42,
            "coordinate": "V", "slopes": [0.2, 0.1], "n": [4, 8],
            "replicates": 3000}


@pytest.mark.parametrize("command, config", [
    ("analyze", {"law": {"type": "binary_bernoulli", "p": 0.3}}),
    ("survival", _survival_config()),
])
def test_unusable_out_path_rejected_before_work(tmp_path, capsys, command, config):
    cfg = _write(tmp_path, "o.json", config)
    for out in (tmp_path / "missing" / "o.csv", tmp_path):
        assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"bad output path: {out}\n")


def test_survival_csv_schema_and_agreement(tmp_path):
    cfg = _write(tmp_path, "s.json", _survival_config())
    out = tmp_path / "s.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("# schema=kbrw.v2.survival")
    rows = _read_rows(out)
    assert len(rows) == 8  # 2 slopes x 2 depths x {mc, oracle}
    mc = {(r["slope"], r["n"]): r for r in rows if r["method"] == "mc"}
    oracle = {(r["slope"], r["n"]): r for r in rows if r["method"] == "oracle"}
    assert set(mc) == set(oracle)
    for key, r in mc.items():
        exact = float(oracle[key]["estimate"])
        # MC interval contains the exact value (95% Wilson, fixed seed)
        assert float(r["ci_low"]) <= exact <= float(r["ci_high"])


def test_survival_oracle_rows_monotone(tmp_path):
    cfg = _write(tmp_path, "s2.json", _survival_config())
    out = tmp_path / "s2.csv"
    main(["survival", "--config", cfg, "--out", str(out)])
    rows = [r for r in _read_rows(out) if r["method"] == "oracle"]
    by_slope = {}
    for r in rows:
        by_slope.setdefault(float(r["slope"]), {})[int(r["n"])] = float(r["estimate"])
    for slope, d in by_slope.items():
        assert d[8] <= d[4]
    for n in (4, 8):
        assert by_slope[0.1][n] <= by_slope[0.2][n]


def test_survival_byte_identical_rerun(tmp_path):
    cfg = _write(tmp_path, "s3.json", _survival_config())
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["survival", "--config", cfg, "--out", str(out1)])
    main(["survival", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_survival_threads_do_not_change_output(tmp_path):
    cfg = _write(tmp_path, "s4.json", _survival_config())
    outs = set()
    for threads in ("1", "2", "3", "4"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["survival", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == EXIT_OK
        _assert_no_children()
        outs.add(out.read_bytes())
    assert len(outs) == 1


def test_survival_seed_flag_overrides(tmp_path):
    cfg = _write(tmp_path, "s5.json", _survival_config())
    out1, out2 = tmp_path / "u1.csv", tmp_path / "u2.csv"
    main(["survival", "--config", cfg, "--out", str(out1)])
    main(["survival", "--config", cfg, "--out", str(out2), "--seed", "43"])
    assert out1.read_bytes() != out2.read_bytes()


def test_survival_non_lattice_warns_and_omits_oracle(tmp_path, capsys):
    config = _survival_config()
    config["law"] = {"type": "product", "offspring_pmf": [[2, 1.0]],
                     "step": {"type": "gaussian", "mean": 0.0, "stddev": 1.0}}
    config["slopes"], config["n"] = [0.3], [4]
    cfg = _write(tmp_path, "s6.json", config)
    out = tmp_path / "s6.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "oracle rows omitted" in capsys.readouterr().err
    rows = _read_rows(out)
    assert {r["method"] for r in rows} == {"mc"}


def test_survival_half_integer_law_has_oracle_rows(tmp_path):
    # {2: 1} x {0: 0.7, 0.5: 0.3} lies on the frame (0, 1/2): in K it is the
    # integer law {0: 0.7, 1: 0.3}, with the same rho at a V slope
    rows = {}
    for name, half in (("half", 0.5), ("unit", 1)):
        config = {**_survival_config(), "law": _binary_step_law([[0, 0.7], [half, 0.3]]),
                  "slopes": [0.1], "n": [6]}
        out = tmp_path / f"{name}.csv"
        assert main(["survival", "--config", _write(tmp_path, f"{name}.json", config),
                     "--out", str(out)]) == EXIT_OK
        rows[name] = [r for r in _read_rows(out) if r["method"] == "oracle"]
    assert len(rows["half"]) == 1 and rows["half"] == rows["unit"]
    assert float(rows["half"][0]["estimate"]) == 0.0562155890028311


def _binary_step_law(atoms):
    return {"type": "product", "offspring_pmf": [[2, 1.0]],
            "step": {"type": "discrete", "atoms": atoms}}


@pytest.mark.filterwarnings("error")
def test_zero_probability_atom_does_not_make_a_step_random(tmp_path, capsys):
    # a deterministic step with a decoy atom of probability 0 is still
    # deterministic: the step law drops the decoy and rejects what is left,
    # before the cumulant takes log 0
    cfg = _write(tmp_path, "za.json", {"law": _binary_step_law([[0, 1.0], [1, 0.0]])})
    assert main(["analyze", "--config", cfg]) == EXIT_VALIDATION
    assert "needs >= 2 distinct atoms of positive probability" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_zero_probability_atom_keeps_a_lattice_law_lattice(tmp_path):
    # a non-integer atom of probability 0 displaces no child: the law is the
    # lattice law without it, oracle rows included
    data = []
    for name, atoms in (("decoy", [[0, 0.7], [1, 0.3], [0.5, 0.0]]),
                        ("plain", [[0, 0.7], [1, 0.3]])):
        config = {**_survival_config(), "law": _binary_step_law(atoms),
                  "slopes": [0.1], "n": [6]}
        out = tmp_path / f"{name}.csv"
        assert main(["survival", "--config", _write(tmp_path, f"{name}.json", config),
                     "--out", str(out)]) == EXIT_OK
        data.append(_read_rows(out))
    assert [r for r in data[0] if r["method"] != "mc"] != []
    assert data[0] == data[1]


def test_pemantle_reproduction(tmp_path):
    cfg = _write(tmp_path, "p.json", {
        "law": {"type": "binary_bernoulli", "p": 0.3},
        "eps_grid": [0.08, 0.05], "rel_tol": 0.02})
    out = tmp_path / "p.csv"
    assert main(["pemantle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out)
    assert len(rows) == 2
    target = -solve_tstar(BinaryBernoulli(0.3)).beta_U
    for r in rows:
        assert float(r["beta_target"]) == pytest.approx(target, rel=1e-12)
        assert float(r["eps_V"]) == pytest.approx(float(r["eps_U"]) * 2.702669287840495,
                                                  rel=1e-9)
        # scaled quantity lands in the right neighbourhood of the constant
        assert -2.0 < float(r["sqrt_eps_times_log_rho"]) < -0.8
    # deterministic rerun
    out2 = tmp_path / "p2.csv"
    main(["pemantle", "--config", cfg, "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_pemantle_rows_independent_of_grid_order(tmp_path):
    # rows run deepest first and are written sorted, so neither the order of
    # eps_grid nor the thread count moves a byte after the first line, whose
    # config digest hashes eps_grid in its order
    config = json.loads((CONFIGS / "pemantle_binary.json").read_text())
    bodies = set()
    for grid in (config["eps_grid"], config["eps_grid"][::-1]):
        cfg = _write(tmp_path, "po.json", dict(config, eps_grid=grid))
        for threads in ("1", "2", "3"):
            out = tmp_path / f"po{threads}.csv"
            assert main(["pemantle", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == EXIT_OK
            _assert_no_children()
            bodies.add(out.read_bytes().split(b"\n", 1)[1])
    assert len(bodies) == 1


def test_survival_escape_cap_flag_override(tmp_path):
    config = _survival_config()
    config["slopes"], config["n"] = [1e6], [20]  # no barrier: population explodes
    config["replicates"] = 200
    cfg = _write(tmp_path, "s7.json", config)
    out = tmp_path / "s7.csv"
    main(["survival", "--config", cfg, "--out", str(out), "--escape-cap", "8"])
    rows = [r for r in _read_rows(out) if r["method"] == "mc"]
    assert int(rows[0]["cap_hits"]) == 200  # every replicate hit the tiny cap


def test_survival_record_runtime_opt_in(tmp_path):
    config = _survival_config()
    config["slopes"], config["n"] = [0.1], [4]
    cfg = _write(tmp_path, "s8.json", config)
    out = tmp_path / "s8.csv"
    main(["survival", "--config", cfg, "--out", str(out)])
    assert all(float(r["runtime_ms"]) == 0.0 for r in _read_rows(out))
    config["record_runtime"] = True
    cfg = _write(tmp_path, "s9.json", config)
    main(["survival", "--config", cfg, "--out", str(out)])
    assert any(float(r["runtime_ms"]) > 0.0 for r in _read_rows(out))


def test_survival_time_budget_exit_code(tmp_path):
    from kbrw.cli import EXIT_BUDGET
    config = _survival_config()
    config["time_budget_s"] = 1e-9
    cfg = _write(tmp_path, "s10.json", config)
    assert main(["survival", "--config", cfg]) == EXIT_BUDGET


@pytest.mark.parametrize("threads", [["--threads", "1"], []])
def test_survival_time_budget_stops_the_run(tmp_path, threads):
    # the shipped grid at 2,000,000 replicates takes several seconds; the
    # alarm must stop it, the forked helpers included, and leave no CSV behind
    from kbrw.cli import EXIT_BUDGET
    config = json.loads((CONFIGS / "survival_binary.json").read_text())
    config["replicates"] = 2_000_000
    config["time_budget_s"] = 0.5
    cfg = _write(tmp_path, "sb.json", config)
    out = tmp_path / "sb.csv"
    started = time.perf_counter()
    assert main(["survival", "--config", cfg, "--out", str(out), *threads]) == EXIT_BUDGET
    assert time.perf_counter() - started < 5.0
    assert not out.exists()
    _assert_no_children()


def test_mogulskii_time_budget_exit_code(tmp_path):
    from kbrw.cli import EXIT_BUDGET
    # the spine walk's bounds move almost every level, so its corridor DP runs
    # one slice step per level, about a second at this n; the shipped lazy
    # config is a few long runs and finishes inside the budget
    config = {"seed": 3, "law": {"type": "binary_bernoulli", "p": 0.3},
              "corridor": {"g1": {"type": "affine", "intercept": -1.0},
                           "g2": {"type": "affine", "intercept": 1.0},
                           "sigma": 0.9242681859919269},
              "family": {"type": "spine"}, "n_list": [100_000], "time_budget_s": 0.2}
    cfg = _write(tmp_path, "mb.json", config)
    out = tmp_path / "mb.csv"
    assert main(["mogulskii", "--config", cfg, "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()


def test_pemantle_depth_cap_exit_code(tmp_path):
    from kbrw.cli import EXIT_BUDGET
    cfg = _write(tmp_path, "pc.json", {
        "law": {"type": "binary_bernoulli", "p": 0.3},
        "eps_grid": [0.05], "rel_tol": 1e-9, "n_start": 4, "n_max": 16})
    assert main(["pemantle", "--config", cfg]) == EXIT_BUDGET


@pytest.mark.parametrize("n_start, n_max", [(512, 256), (256, 256), (None, 128)])
def test_pemantle_rejects_depths_without_a_doubling(tmp_path, capsys, monkeypatch,
                                                    n_start, n_max):
    # rho_limit could not double once, so it refuses the depths before any DP
    def no_dp(*args, **kwargs):
        raise AssertionError("a DP ran")
    monkeypatch.setattr(cli.oracle, "exact_path_survival", no_dp)
    config = {"law": {"type": "binary_bernoulli", "p": 0.3}, "eps_grid": [0.05],
              "n_start": n_start, "n_max": n_max}
    cfg = _write(tmp_path, "pn.json", {k: v for k, v in config.items() if v is not None})
    assert main(["pemantle", "--config", cfg, "--threads", "1"]) == EXIT_VALIDATION
    assert "n_max" in capsys.readouterr().err


def test_pemantle_p0_footer(tmp_path):
    cfg = _write(tmp_path, "pf.json", {
        "law": {"type": "binary_bernoulli", "p": P0},
        "eps_grid": [0.1], "rel_tol": 0.05})
    out = tmp_path / "pf.csv"
    main(["pemantle", "--config", cfg, "--out", str(out)])
    assert "aldous_rate=1.11146670" in out.read_text()


def test_pemantle_rejects_supercritical_labels(tmp_path):
    cfg = _write(tmp_path, "pr.json", {
        "law": {"type": "binary_bernoulli", "p": 0.55}, "eps_grid": [0.1]})
    assert main(["pemantle", "--config", cfg]) == EXIT_NO_CRITICAL_POINT
    cfg2 = _write(tmp_path, "pr2.json", {
        "law": {"type": "explicit", "outcomes": [[[0, 1], 1.0]]}, "eps_grid": [0.1]})
    assert main(["pemantle", "--config", cfg2]) == EXIT_VALIDATION


def _mog_config():
    return {"seed": 7,
            "corridor": {"g1": {"type": "affine", "intercept": -1.0},
                         "g2": {"type": "affine", "intercept": 1.0},
                         "sigma": math.sqrt(2 / 3)},
            "family": {"type": "lazy"}, "n_list": [1000, 10000]}


def test_mogulskii_csv(tmp_path):
    cfg = _write(tmp_path, "m.json", _mog_config())
    out = tmp_path / "m.csv"
    assert main(["mogulskii", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out)
    assert [int(r["n"]) for r in rows] == [1000, 10000]
    assert float(rows[1]["gap"]) < float(rows[0]["gap"])
    target = -math.pi ** 2 / 12.0
    for r in rows:
        assert float(r["target_constant"]) == pytest.approx(target, abs=1e-10)
    assert "endpoint_prob" not in rows[0]
    # deterministic rerun
    out2 = tmp_path / "m2.csv"
    main(["mogulskii", "--config", cfg, "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_mogulskii_endpoint_columns(tmp_path):
    config = _mog_config()
    config["endpoint_b"] = True
    cfg = _write(tmp_path, "me.json", config)
    out = tmp_path / "me.csv"
    main(["mogulskii", "--config", cfg, "--out", str(out)])
    rows = _read_rows(out)
    assert "endpoint_prob" in rows[0]
    assert 0.0 < float(rows[0]["endpoint_prob"]) <= float(rows[0]["prob"])


@pytest.mark.parametrize("endpoint_b, code", [
    (-0.1, EXIT_VALIDATION), (0, EXIT_VALIDATION), (True, EXIT_OK), (0.5, EXIT_OK)])
def test_mogulskii_endpoint_b_must_be_positive(tmp_path, endpoint_b, code):
    config = _mog_config()
    config.update(endpoint_b=endpoint_b, n_list=[512])
    assert main(["mogulskii", "--config", _write(tmp_path, "eb.json", config)]) == code


def test_mogulskii_pinched_corridor_rejected(tmp_path):
    config = _mog_config()
    config["corridor"]["g2"] = {"type": "affine", "intercept": 1.0, "slope": -2.5}
    cfg = _write(tmp_path, "mp.json", config)
    assert main(["mogulskii", "--config", cfg]) == EXIT_VALIDATION


def test_mogulskii_conditioning_removing_all_mass_rejected(tmp_path, capsys):
    # every brood has 4 children and r_n(2) = 3; sigma is the spine walk's,
    # so the sigma check passes and the conditioning is what fails
    config = _mog_config()
    config.update(law={"type": "explicit",
                       "outcomes": [[[0, 1, 1, 2], 0.5], [[0, 0, 1, 1], 0.5]]},
                  family={"type": "spine"}, n_list=[2])
    config["corridor"]["sigma"] = 1.1888933360934952
    cfg = _write(tmp_path, "mc.json", config)
    assert main(["mogulskii", "--config", cfg]) == EXIT_VALIDATION
    assert "removes all mass at n=2" in capsys.readouterr().err


def test_mogulskii_samples_boundary_and_lattice_family(tmp_path):
    # a constant sampled g1 and the lazy walk's atoms spelled out give the
    # lazy affine config's data rows byte for byte
    lazy = _mog_config()
    lazy.update(n_list=[1000, 4000], endpoint_b=True)
    spelled = json.loads(json.dumps(lazy))
    spelled["corridor"]["g1"] = {"type": "samples", "values": [-1, -1, -1]}
    spelled["family"] = {"type": "lattice", "atoms": [[-1, 1 / 3], [0, 1 / 3], [1, 1 / 3]]}
    data = []
    for name, config in (("lazy", lazy), ("spelled", spelled)):
        out = tmp_path / f"{name}.csv"
        assert main(["mogulskii", "--config", _write(tmp_path, f"{name}.json", config),
                     "--out", str(out)]) == EXIT_OK
        data.append(out.read_text().splitlines()[1:])
    assert len(data[0]) == 3 and data[0] == data[1]


def test_mogulskii_samples_boundary_keeps_its_breakpoints(tmp_path):
    # breakpoints at t = 1/4, 1/2 and 3/4 lie on no grid of 1024 samples;
    # resampled on one, g1(1/4) read -0.50073 and the n = 1000 prob 3.58091e-05
    values = [-1, -0.5, -1, -0.2, -1]
    config = {**_mog_config(), "n_list": [1000]}
    config["corridor"]["g1"] = {"type": "samples", "values": values}
    out = tmp_path / "kinks.csv"
    assert main(["mogulskii", "--config", _write(tmp_path, "kinks.json", config),
                 "--out", str(out)]) == EXIT_OK
    row, = _read_rows(out)
    # the width is linear on each quarter, which adds dt / (w0 w1) to the
    # integral of 1 / width^2; sigma^2 = 2/3
    widths = [1 - v for v in values]
    integral = sum(0.25 / (w0 * w1) for w0, w1 in zip(widths, widths[1:]))
    assert float(row["target_constant"]) == pytest.approx(-math.pi ** 2 / 3 * integral,
                                                          rel=1e-14)
    # the lazy walk's DP between the polyline's own integer bounds at a_n = 10
    i = np.arange(1, 1001)
    lower = np.ceil(10 * np.interp(i / 1000, np.linspace(0, 1, 5), values) - BOUNDARY_TOL)
    prob, _ = exact_corridor_walk([-1, 0, 1], [1 / 3] * 3, lower.astype(np.int64),
                                  np.full(1000, 10))
    assert float(row["prob"]) == pytest.approx(prob, rel=1e-12)


def test_mogulskii_endpoint_b_false_same_as_missing(tmp_path):
    data = []
    for name, extra in (("missing", {}), ("false", {"endpoint_b": False})):
        config = {**_mog_config(), "n_list": [512], **extra}
        out = tmp_path / f"{name}.csv"
        assert main(["mogulskii", "--config", _write(tmp_path, f"{name}.json", config),
                     "--out", str(out)]) == EXIT_OK
        data.append(out.read_text().splitlines()[1:])
    assert len(data[0]) == 2 and data[0] == data[1]


def test_mogulskii_spine_family_needs_law(tmp_path, capsys):
    config = _mog_config()
    config["family"] = {"type": "spine"}
    assert main(["mogulskii", "--config", _write(tmp_path, "sl.json", config)]) \
        == EXIT_VALIDATION
    assert "needs a 'law'" in capsys.readouterr().err


_LAZY_ATOMS = [[-1, 1 / 3], [0, 1 / 3], [1, 1 / 3]]
_BINARY_SPINE_SIGMA = 0.9242681210027041


@pytest.mark.parametrize("family, extra", [
    ({"type": "lazy"}, {"law": {"type": "binary_bernoulli", "p": 0.3}}),
    # a percolating law, atoms and condition_nu: the lazy walk once ran and
    # ignored all three
    ({"type": "lazy", "atoms": _LAZY_ATOMS, "condition_nu": False},
     {"law": {"type": "binary_bernoulli", "p": 0.9}}),
    ({"type": "lattice", "atoms": _LAZY_ATOMS, "condition_nu": False}, {}),
    ({"type": "spine", "atoms": _LAZY_ATOMS}, {"law": {"type": "binary_bernoulli", "p": 0.3}}),
], ids=["lazy-law", "lazy-atoms-law", "lattice-condition_nu", "spine-atoms"])
def test_mogulskii_family_takes_only_its_own_keys(tmp_path, capsys, family, extra):
    # sigma is the walk's own, so only the family's keys can refuse the config
    config = {**_mog_config(), "family": family, **extra}
    if family["type"] == "spine":
        config["corridor"]["sigma"] = _BINARY_SPINE_SIGMA
    out = tmp_path / "fk.csv"
    assert main(["mogulskii", "--config", _write(tmp_path, "fk.json", config),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("needs a 'law'" if list(family) == ["type"] else "bad config: config.family") in err


def test_pemantle_takes_only_a_binary_law(tmp_path, capsys):
    config = {"law": {"type": "product", "offspring_pmf": [[2, 1.0]],
                      "step": {"type": "discrete", "atoms": [[0, 0.7], [1, 0.3]]}},
              "eps_grid": [0.05]}
    out = tmp_path / "pb.csv"
    assert main(["pemantle", "--config", _write(tmp_path, "pb.json", config),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "bad config: config.law.type: 'product' is not 'binary_bernoulli'" \
        in capsys.readouterr().err


def test_mogulskii_lattice_family_needs_atoms_on_a_frame(tmp_path, capsys):
    # {-1, 0, sqrt 2} lies on no a + h Z; sigma is the walk's own, so only
    # the missing frame can refuse it
    atoms = [[-1, 0.5], [0, 0.25], [math.sqrt(2), 0.25]]
    mean = sum(v * p for v, p in atoms)
    config = {**_mog_config(), "family": {"type": "lattice", "atoms": atoms}}
    config["corridor"]["sigma"] = math.sqrt(sum(p * (v - mean) ** 2 for v, p in atoms))
    assert main(["mogulskii", "--config", _write(tmp_path, "li.json", config)]) \
        == EXIT_VALIDATION
    assert "lattice family needs step values on a lattice" in capsys.readouterr().err


def test_mogulskii_half_integer_lattice_family_is_exact(tmp_path):
    config = {**_mog_config(), "n_list": [1000],
              "family": {"type": "lattice", "atoms": [[-0.5, 0.5], [0.5, 0.5]]}}
    config["corridor"]["sigma"] = 0.5
    out = tmp_path / "half.csv"
    assert main(["mogulskii", "--config", _write(tmp_path, "half.json", config),
                 "--out", str(out)]) == EXIT_OK
    row, = _read_rows(out)
    assert 0.0 < float(row["prob"]) < 1.0


def test_mogulskii_lattice_family_drops_zero_probability_atoms(tmp_path):
    # an atom of probability 0 is no step, integer or not: the data rows are
    # those of the walk without it
    data = []
    for name, extra in (("plain", []), ("half", [[0.5, 0.0]]), ("five", [[5, 0.0]])):
        config = {**_mog_config(), "n_list": [1000, 4000],
                  "family": {"type": "lattice", "atoms": [[-1, 0.5], [1, 0.5]] + extra}}
        config["corridor"]["sigma"] = 1.0
        out = tmp_path / f"{name}.csv"
        assert main(["mogulskii", "--config", _write(tmp_path, f"{name}.json", config),
                     "--out", str(out)]) == EXIT_OK
        data.append(out.read_bytes().split(b"\n", 1)[1])
    assert data[0] == data[1] == data[2]


def test_mogulskii_lattice_family_rejects_a_walk_that_never_moves(tmp_path, capsys):
    # without its atom of probability 0 the walk never moves, so it would
    # stay in the corridor and report prob 1 against a negative constant
    config = {**_mog_config(), "n_list": [1000],
              "family": {"type": "lattice", "atoms": [[0, 1.0], [1, 0.0]]}}
    assert main(["mogulskii", "--config", _write(tmp_path, "still.json", config)]) \
        == EXIT_VALIDATION
    assert "needs >= 2 distinct atoms of positive probability" in capsys.readouterr().err


@pytest.mark.parametrize("extra, walk_sigma", [
    ({}, "0.81649658"),
    ({"law": {"type": "binary_bernoulli", "p": 0.3}, "family": {"type": "spine"}},
     "0.92426812"),
], ids=["lazy", "binary-spine"])
def test_mogulskii_rejects_a_sigma_that_is_not_the_walks(tmp_path, capsys, extra, walk_sigma):
    # the corridor constant scales with sigma^2: sigma 2.0 would give the lazy
    # walk target_constant -4.93 where its own sigma gives -0.822
    config = {**_mog_config(), "n_list": [1000], **extra}
    config["corridor"]["sigma"] = 2.0
    out = tmp_path / "ws.csv"
    assert main(["mogulskii", "--config", _write(tmp_path, "ws.json", config),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "corridor.sigma = 2.0" in err and f"sigma {walk_sigma}" in err
    assert not out.exists()


def test_mogulskii_lattice_family_needs_atoms(tmp_path):
    config = _mog_config()
    config["family"] = {"type": "lattice"}
    cfg = _write(tmp_path, "ml.json", config)
    assert main(["mogulskii", "--config", cfg]) == EXIT_VALIDATION


def test_mogulskii_spine_family(tmp_path):
    config = {"seed": 3, "law": {"type": "binary_bernoulli", "p": 0.3},
              "corridor": {"g1": {"type": "affine", "intercept": -1.0},
                           "g2": {"type": "affine", "intercept": 1.0},
                           "sigma": 0.9242681859919269},
              "family": {"type": "spine", "condition_nu": True},
              "n_list": [300]}
    cfg = _write(tmp_path, "ms.json", config)
    out = tmp_path / "ms.csv"
    assert main(["mogulskii", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out)
    assert 0.0 < float(rows[0]["prob"]) < 1.0


# ---------------------------------------------------------------------------
# the row runner: this process and its forked helpers

def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_rows_returns_every_task_in_order():
    # more tasks than a pipe of 4-byte indices could hold (16,384); nothing
    # is pickled on the way in, so the worker may be a lambda
    tasks = list(range(20_000))
    assert cli._run_rows(tasks, lambda t: -t, 2) == [-t for t in tasks]
    _assert_no_children()


def test_helper_that_dies_is_an_error():
    # this process is slow, so the helper claims a task, and it dies there
    parent = os.getpid()

    def worker(t):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.05)
        return t
    with pytest.raises(ChildProcessError, match="ended without its rows"):
        cli._run_rows(list(range(20)), worker, 2)
    _assert_no_children()


def test_helper_row_error_as_at_one_thread(tmp_path, capsys, monkeypatch):
    # the 0.003 row exhausts n_max; this process claims its first task only
    # after half a second, so at --threads 2 the helper runs that row
    from kbrw.cli import EXIT_BUDGET
    cfg = _write(tmp_path, "pe.json", {"law": {"type": "binary_bernoulli", "p": 0.3},
                                       "eps_grid": [0.05, 0.003], "n_max": 512})
    parent, claimed_rows = os.getpid(), cli._claimed_rows

    def late(*args):
        if os.getpid() == parent:
            time.sleep(0.5)
        return claimed_rows(*args)
    monkeypatch.setattr(cli, "_claimed_rows", late)
    seen = []
    for threads in ("1", "2"):
        assert main(["pemantle", "--config", cfg, "--threads", threads]) == EXIT_BUDGET
        _assert_no_children()
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
    assert seen[0].err == "grid exhausted: survival did not stabilize below n = 512\n"


@pytest.mark.parametrize("late, failing, expected", [
    # only this process's row raises
    ("this process", {"this process"}, "row 1 in this process"),
    # this process fails at a higher index than the helper does
    ("this process", {"this process", "a helper"}, "row 0 in a helper"),
    # this process fails at a lower index than the helper does
    ("a helper", {"this process", "a helper"}, "row 0 in this process"),
], ids=["only-this-process", "helper-lower", "this-process-lower"])
def test_lowest_failing_row_wins_whichever_process_ran_it(monkeypatch, late, failing, expected):
    # the late process claims nothing until task 0 has started, and task 0
    # goes on only once task 1 has started, so the other process runs task 0
    # and the late one task 1; a process in ``failing`` raises on the first
    # row it runs.  Each start is a byte in a pipe both processes hold.
    parent, claimed_rows = os.getpid(), cli._claimed_rows
    started = [os.pipe(), os.pipe()]

    def here():
        return "this process" if os.getpid() == parent else "a helper"

    def wait_for(t):
        assert select.select([started[t][0]], [], [], 30.0)[0], f"task {t} never started"

    def delayed(*args):
        if here() == late:
            wait_for(0)
        return claimed_rows(*args)

    def worker(t):
        if t < 2:
            os.write(started[t][1], b"x")
        if t == 0:
            wait_for(1)
        if here() in failing:
            raise ValueError(f"row {t} in {here()}")
        return t
    monkeypatch.setattr(cli, "_claimed_rows", delayed)
    try:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            cli._run_rows(list(range(4)), worker, 2)
    finally:
        for fd in (fd for pair in started for fd in pair):
            os.close(fd)
    _assert_no_children()


def test_default_threads_count_the_usable_cpus(tmp_path, monkeypatch):
    # on one usable CPU every row runs in this process, so nothing forks
    def fork():
        raise AssertionError("forked a helper for one CPU")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    cfg = _write(tmp_path, "s1.json", _survival_config())
    assert main(["survival", "--config", cfg]) == EXIT_OK


# ---------------------------------------------------------------------------
# the in-house config checker and the start-up cost it saves

def test_cli_import_loads_neither_jsonschema_nor_multiprocessing():
    # nor the modules that only the mogulskii command runs
    code = ("import sys, kbrw.cli; print([m for m in ('jsonschema', 'multiprocessing', "
            "'kbrw.mogulskii', 'kbrw.spine') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_package_import_is_lazy():
    code = ("import sys, kbrw; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'kbrw.'))))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    import kbrw
    modules = [importlib.import_module(f"kbrw.{p.stem}")
               for p in Path(SRC, "kbrw").glob("*.py") if p.stem != "__init__"]
    for name in kbrw.__all__:
        # the one object that every module defining or importing the name holds
        held = {id(vars(m)[name]) for m in modules if name in vars(m)}
        assert held == {id(getattr(kbrw, name))}, name
    with pytest.raises(AttributeError, match="no_such_name"):
        kbrw.no_such_name
    assert set(kbrw.__all__) <= set(dir(kbrw))


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux and at least 2 CPUs, where OpenBLAS would start "
                           "a second thread")
def test_cli_starts_blas_on_one_thread():
    # kbrw.cli is the first import: numpy imported before it keeps its threads
    code = ("import kbrw.cli, os; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "1 1\n"
    out = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": "2"},
                         check=True, capture_output=True, text=True).stdout
    assert out.split()[0] == "2"


def _subschemas(schema):
    """``schema`` and every object schema inside it, at any depth."""
    if not isinstance(schema, dict):
        return
    yield schema
    for key, sub in schema.items():
        if key == "properties":
            subs = sub.values()
        elif key in ("oneOf", "prefixItems"):
            subs = sub
        elif key in ("items", "additionalProperties"):
            subs = [sub]
        else:
            subs = []
        for s in subs:
            yield from _subschemas(s)


def test_check_reads_every_keyword_the_schemas_use():
    # the keywords cli._check handles; a schema that starts using another
    # one needs a line there first
    handled = {"type", "properties", "required", "additionalProperties",
               "items", "prefixItems", "minItems", "maxItems",
               "const", "enum", "minimum", "exclusiveMinimum", "exclusiveMaximum",
               "oneOf"}
    subschemas = [s for schema in cli.CONFIG_SCHEMAS.values() for s in _subschemas(schema)]
    assert set().union(*subschemas) == handled
    # _check passes a oneOf when some alternative passes; that is JSON
    # Schema's "exactly one" only while no value can pass two, which holds
    # when every alternative requires its own string type const
    for schema in subschemas:
        if "oneOf" in schema:
            consts = [alt["properties"]["type"]["const"] for alt in schema["oneOf"]]
            assert all("type" in alt["required"] for alt in schema["oneOf"]), schema
            assert all(isinstance(c, str) for c in consts), consts
            assert len(set(consts)) == len(consts), consts


# configs the suite above rejects or accepts for their schema, by command
_SCHEMA_CASES = [
    ("analyze", {"law": {"type": "binary_bernoulli"}}),
    ("analyze", {"law": {"type": "binary_bernoulli", "p": 0.3}, "time_budget_s": 1}),
    ("analyze", {"law": {"type": "product", "offspring_pmf": [[2.7, 1.0]],
                         "step": {"type": "discrete", "atoms": [[0, 0.7], [1, 0.3]]}}}),
    ("analyze", {"law": {"type": "product", "offspring_pmf": [[2.0, 1.0]],
                         "step": {"type": "discrete", "atoms": [[0, 0.7], [1, 0.3]]}}}),
    ("analyze", {"law": {"type": "product", "offspring_pmf": [[2, 1.0]],
                         "step": {"type": "gaussian", "mean": 0.3, "stddev": 1.5}}}),
    ("analyze", {"law": {"type": "explicit", "outcomes": [[[0, 1], 0.5], [[1], 0.5]]}}),
    ("survival", {"law": {"type": "binary_bernoulli", "p": 0.3},
                  "slopes": [0.1], "n": [4], "replicates": 200}),
    ("survival", {**_survival_config(), "escape_cap": None, "record_runtime": True}),
    ("survival", {**_survival_config(), "replicates": 1000.0, "n": [6.0]}),
    ("survival", {**_survival_config(), "seed": True}),
    ("pemantle", {"law": {"type": "binary_bernoulli", "p": 0.3}, "eps_grid": [0.05],
                  "n_start": 128.0, "n_max": 3}),
    ("pemantle", {"law": {"type": "product", "offspring_pmf": [[2, 1.0]],
                          "step": {"type": "discrete", "atoms": [[0, 0.7], [1, 0.3]]}},
                  "eps_grid": [0.05]}),
    ("mogulskii", {**_mog_config(), "family": {"type": "lattice", "atoms": [1, 2]}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "lattice",
                                               "atoms": [[None, 0.5], [1, 0.5]]}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "lattice"}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "spine", "condition_nu": True}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "lazy", "atoms": [[-1, 0.5], [1, 0.5]]}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "lattice", "condition_nu": False,
                                               "atoms": [[-1, 0.5], [1, 0.5]]}}),
    ("mogulskii", {**_mog_config(), "family": {"type": "spine",
                                               "atoms": [[-1, 0.5], [1, 0.5]]}}),
    ("mogulskii", {**_mog_config(), "endpoint_b": -0.1}),
    ("mogulskii", {**_mog_config(), "endpoint_b": 0}),
    ("mogulskii", {**_mog_config(), "endpoint_b": True}),
    ("mogulskii", {**_mog_config(), "endpoint_b": False}),
    ("mogulskii", {**_mog_config(), "corridor": {
        "g1": {"type": "samples", "values": [-1, -1, -1]},
        "g2": {"type": "affine", "intercept": 1.0, "slope": -2.5}, "sigma": 0.8}}),
]

_REPLACEMENTS = [None, True, False, 0, 1, -1, 2.0, 2.5, 100, 1e300, -1e300, 1_000_000,
                 "x", "lattice", "affine", [], [1], [[1, 0.5], [2, 0.5]], {},
                 {"type": "affine", "intercept": 1.0}]


def _mutations(value):
    """Every config that differs from ``value`` in one place: one entry
    replaced or removed, or one added (an unknown key, or a copy of a list's
    last item)."""
    yield from _REPLACEMENTS
    if isinstance(value, dict):
        yield {**value, "extra": 1}
        for key, item in value.items():
            yield {k: v for k, v in value.items() if k != key}
            for m in _mutations(item):
                yield {**value, key: m}
    elif isinstance(value, list):
        yield value + value[-1:]
        for k, item in enumerate(value):
            yield value[:k] + value[k + 1:]
            for m in _mutations(item):
                yield value[:k] + [m] + value[k + 1:]


def test_check_agrees_with_jsonschema():
    import jsonschema
    cases = [(command, json.loads((CONFIGS / f"{command}_{suffix}.json").read_text()))
             for command, suffix in (("analyze", "binary"), ("survival", "binary"),
                                     ("pemantle", "binary"), ("mogulskii", "lazy"))]
    cases += _SCHEMA_CASES
    verdicts = {True: 0, False: 0}
    for command, config in cases:
        schema = cli.CONFIG_SCHEMAS[command]
        reference = jsonschema.validators.validator_for(schema)(schema)
        for candidate in (config, *_mutations(config)):
            try:
                cli._check(schema, candidate)
                ours = True
            except ValueError:
                ours = False
            assert ours == reference.is_valid(candidate), (command, candidate)
            verdicts[ours] += 1
    # both verdicts are well represented
    assert min(verdicts.values()) > 500


def test_bad_config_message_names_the_key(tmp_path, capsys):
    cfg = _write(tmp_path, "k.json", {**_survival_config(), "replicates": 99})
    assert main(["survival", "--config", cfg]) == EXIT_VALIDATION
    assert "bad config: config.replicates: 99 is less than 100" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["1e999", "1" + "0" * 400])
def test_overflowing_number_is_a_bad_config(tmp_path, capsys, number):
    # valid JSON, but Python would read the first as inf, and the second is
    # an int that no double holds
    path = tmp_path / "o.json"
    path.write_text(f'{{"law": {{"type": "binary_bernoulli", "p": 0.3}}, "eps_grid": [{number}]}}')
    assert main(["pemantle", "--config", str(path)]) == EXIT_VALIDATION
    assert f"bad config: {number} is beyond the range of a double" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, floats", [
    ("survival", {**_survival_config(), "slopes": [0.1], "replicates": 1000},
     {"replicates": 1000.0}),
    ("survival", {**_survival_config(), "slopes": [0.1], "replicates": 1000},
     {"n": [4.0, 8.0]}),
    ("pemantle", {"law": {"type": "binary_bernoulli", "p": 0.3}, "eps_grid": [0.05],
                  "n_start": 64, "n_max": 1024}, {"n_start": 64.0, "n_max": 1024.0}),
    # a Gaussian spine has no lattice frame, so its corridor is sampled
    ("mogulskii", {**_mog_config(), "n_list": [10], "mc_replicates": 1000000,
                   "family": {"type": "spine"},
                   "law": {"type": "product", "offspring_pmf": [[1, 0.5], [3, 0.5]],
                           "step": {"type": "gaussian", "mean": 0.0, "stddev": 1.0}},
                   "corridor": {**_mog_config()["corridor"], "sigma": 1.1774100225154747}},
     {"n_list": [10.0], "mc_replicates": 1000000.0}),
], ids=["survival-replicates", "survival-n", "pemantle-n_start", "mogulskii-n_list"])
def test_integral_float_counts_run_as_ints(tmp_path, command, config, floats):
    # JSON Schema counts 1000.0 as an integer, so the commands must too
    data = []
    for name, cfg in (("ints", config), ("floats", {**config, **floats})):
        out = tmp_path / f"{name}.csv"
        assert main([command, "--config", _write(tmp_path, f"{name}.json", cfg),
                     "--out", str(out), "--threads", "1"]) == EXIT_OK
        data.append(out.read_text().splitlines()[1:])
    assert len(data[0]) > 1 and data[0] == data[1]


@pytest.mark.filterwarnings("error")
def test_huge_eps_is_a_line_below_every_lineage(tmp_path):
    cfg = _write(tmp_path, "he.json", {"law": {"type": "binary_bernoulli", "p": 0.3},
                                       "eps_grid": [1e300]})
    out = tmp_path / "he.csv"
    assert main(["pemantle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert float(_read_rows(out)[0]["rho_oracle"]) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g1, g2, message", [
    (-1e300, 1.0, "corridor at n=1000 has lattice bounds beyond the int64 range"),
    (-1e308, 1e308, "corridor too wide: g2 - g1 overflows a double"),
])
def test_huge_corridor_rejected(tmp_path, capsys, g1, g2, message):
    config = _mog_config()
    config["corridor"]["g1"]["intercept"] = g1
    config["corridor"]["g2"]["intercept"] = g2
    assert main(["mogulskii", "--config", _write(tmp_path, "hc.json", config)]) \
        == EXIT_VALIDATION
    assert message in capsys.readouterr().err



def test_huge_time_budget_runs(tmp_path):
    cfg = _write(tmp_path, "tb.json", {"law": {"type": "binary_bernoulli", "p": 0.3},
                                       "eps_grid": [0.2], "time_budget_s": 1e300})
    assert main(["pemantle", "--config", cfg, "--out", str(tmp_path / "tb.csv")]) == EXIT_OK
