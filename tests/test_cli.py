import json
import math
import multiprocessing
import time
from pathlib import Path

import pytest

from kbrw.cli import (EXIT_NO_CRITICAL_POINT, EXIT_OK, EXIT_VALIDATION, _fmt,
                      law_from_config, main)
from kbrw.models import BinaryBernoulli, ExplicitFinite, ProductLaw

P0 = 0.0669872981077807
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    # the flag was once dropped silently outside survival
    assert main([command, "--config", str(CONFIGS / config), "--escape-cap", "5"]) \
        == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "--escape-cap applies only to survival" in err


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
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["survival", "--config", cfg, "--out", str(out1), "--threads", "1"])
    main(["survival", "--config", cfg, "--out", str(out2), "--threads", "4"])
    assert out1.read_bytes() == out2.read_bytes()


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


def test_pemantle_reproduction(tmp_path):
    cfg = _write(tmp_path, "p.json", {
        "law": {"type": "binary_bernoulli", "p": 0.3},
        "eps_grid": [0.08, 0.05], "rel_tol": 0.02})
    out = tmp_path / "p.csv"
    assert main(["pemantle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out)
    assert len(rows) == 2
    from kbrw.analysis import beta_bs
    target = -beta_bs(0.3)
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
    # the shipped grid takes well over 10 s; the alarm must stop it, the
    # pool's workers included, and leave no CSV behind
    from kbrw.cli import EXIT_BUDGET
    config = json.loads((CONFIGS / "survival_binary.json").read_text())
    config["time_budget_s"] = 0.5
    cfg = _write(tmp_path, "sb.json", config)
    out = tmp_path / "sb.csv"
    started = time.perf_counter()
    assert main(["survival", "--config", cfg, "--out", str(out), *threads]) == EXIT_BUDGET
    assert time.perf_counter() - started < 5.0
    assert not out.exists()
    assert multiprocessing.active_children() == []


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


def test_mogulskii_conditioning_removing_all_mass_rejected(tmp_path):
    # every brood has 4 children and r_n(2) = 3
    config = _mog_config()
    config.update(law={"type": "explicit",
                       "outcomes": [[[0, 1, 1, 2], 0.5], [[0, 0, 1, 1], 0.5]]},
                  family={"type": "spine"}, n_list=[2])
    cfg = _write(tmp_path, "mc.json", config)
    assert main(["mogulskii", "--config", cfg]) == EXIT_VALIDATION


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


def test_mogulskii_lattice_family_needs_integer_atoms(tmp_path):
    config = _mog_config()
    config["family"] = {"type": "lattice", "atoms": [[-1, 0.5], [0.5, 0.5]]}
    assert main(["mogulskii", "--config", _write(tmp_path, "li.json", config)]) \
        == EXIT_VALIDATION


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
