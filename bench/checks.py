"""Correctness checks for the benchmark workloads, with the reference values.

Every reference below was produced by the package at the commit that
introduced this benchmark (exact DPs and closed forms, so they carry no
Monte Carlo noise).  Each check returns ``(attempted, failed, notes)``: an
operation is one CSV data row or one library call, and it fails when its
process exited non-zero, when it is missing, when it fails its check, or
when it differs from the output it must reproduce byte for byte.
"""

from __future__ import annotations

import math

# exact_path_survival on binary p=0.3, coordinate V, keyed by (slope, n)
SURVIVAL_ORACLE = {
    (0.05, 6): 0.033444936081474474,
    (0.05, 10): 0.021156315017132443,
    (0.05, 12): 0.012505948205173034,
    (0.1, 6): 0.05621558900283119,
    (0.1, 10): 0.027664507331230936,
    (0.1, 12): 0.02090882384581394,
    (0.2, 6): 0.086853098421938779,
    (0.2, 10): 0.046430886299096086,
    (0.2, 12): 0.040680867005414068,
}
SURVIVAL_ORACLE_RTOL = 1e-9

# rho_limit on binary p=0.3 with rel_tol 0.01, keyed by eps_U.  The
# absolute term admits the survival-form oracle: the 1 - Q form in use
# when these were recorded is floored near one ulp of 1 (2.2e-16 off at
# eps_U = 0.003), far inside 1e-14, while a 0.1% error in any rho is not.
PEMANTLE_RHO = {
    0.02: 0.0001348946265405937,
    0.01: 2.88369815082401e-06,
    0.005: 1.3223588890554083e-08,
    0.003: 7.3955064294750628e-11,
}
PEMANTLE_RTOL = 1e-6
PEMANTLE_ATOL = 1e-14

# lazy-walk corridor DP on the flat (-1, 1) strip: n -> (prob, endpoint_prob)
CORRIDOR_PROB = {
    1000: (0.0014032422083190129, 0.00028008121074806457),
    10000: (5.2670754496063155e-08, 8.3785371074309719e-09),
    100000: (8.5797225387885338e-17, 1.2560476980028841e-17),
}
CORRIDOR_RTOL = 1e-9
ITO_MCKEAN_STRIP = 0.37077742979952394   # ito_mckean_f(-1, 1, -1, 1)
ITO_MCKEAN_RTOL = 1e-12

# exact values behind the tree-mc checks
RHO_CRIT08 = 0.04068086700541407      # rho(V slope 0.215, n 12), binary p=0.3
RHO_CAP_ROW = 0.44277960104114356     # rho(V slope 1.0, n 20), binary p=0.3
M2O_EXACT = {"mixed": 0.754101903374845, "binary": 0.6143833951652242}

# Monte Carlo agreement is judged at 4 standard errors: at most a few dozen
# MC comparisons per run, so a false alarm stays below about 1 in 500 runs.
Z_MC = 4.0


def close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rtol * abs(ref) + atol


def parse_csv(text: str) -> list[dict]:
    """Data rows of a kbrw CSV as dicts of strings."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def _f(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, ValueError):
        return math.nan


def _i(row: dict, key: str) -> int:
    x = _f(row, key)
    return int(x) if math.isfinite(x) else -1


def differing_rows(text: str, reference: str) -> int:
    """Data rows of ``text`` that are not byte-identical to ``reference``.

    A differing schema or footer line counts as one more failed row, so any
    changed byte is counted."""
    a, b = text.splitlines(), reference.splitlines()
    diff = sum(1 for i in range(max(len(a), len(b)))
               if i >= len(a) or i >= len(b) or a[i] != b[i])
    return min(diff, max(len(_data_lines(reference)), 1))


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines()[2:] if ln and not ln.startswith("#")]


def check_survival(text: str, replicates: int) -> tuple[int, int, list[str]]:
    """MC rows within Z_MC stderr of the exact rho; oracle rows as recorded."""
    rows = parse_csv(text)
    seen = {(r.get("method"), _f(r, "slope"), _i(r, "n")): r for r in rows}
    failed, notes = 0, []
    for (slope, n), ref in SURVIVAL_ORACLE.items():
        o = seen.get(("oracle", slope, n))
        if o is None or not close(_f(o, "estimate"), ref, SURVIVAL_ORACLE_RTOL):
            failed += 1
            notes.append(f"oracle row slope={slope} n={n} off its recorded value")
        m = seen.get(("mc", slope, n))
        se = math.sqrt(ref * (1.0 - ref) / replicates)
        if (m is None or _f(m, "replicates") != replicates
                or not abs(_f(m, "estimate") - ref) <= Z_MC * se):
            failed += 1
            notes.append(f"mc row slope={slope} n={n} beyond {Z_MC} se of the exact value")
    return 2 * len(SURVIVAL_ORACLE), failed, notes


def check_pemantle(text: str) -> tuple[int, int, list[str]]:
    rows = parse_csv(text)
    by_eps = {_f(r, "eps_U"): r for r in rows}
    failed, notes = 0, []
    for eps, ref in PEMANTLE_RHO.items():
        r = by_eps.get(eps)
        if r is None or not close(_f(r, "rho_oracle"), ref, PEMANTLE_RTOL, PEMANTLE_ATOL):
            failed += 1
            notes.append(f"rho at eps_U={eps} off its recorded value")
    return len(PEMANTLE_RHO), failed, notes


def check_corridor_csv(text: str) -> tuple[int, int, list[str]]:
    """prob and endpoint_prob as recorded; gap strictly decreasing in n."""
    rows = parse_csv(text)
    by_n = {_i(r, "n"): r for r in rows}
    failed, notes = 0, []
    prev_gap = math.inf
    for n in sorted(CORRIDOR_PROB):
        prob, eprob = CORRIDOR_PROB[n]
        r = by_n.get(n)
        gap = _f(r, "gap") if r is not None else math.nan
        ok = (r is not None and close(_f(r, "prob"), prob, CORRIDOR_RTOL)
              and close(_f(r, "endpoint_prob"), eprob, CORRIDOR_RTOL) and gap < prev_gap)
        if not ok:
            failed += 1
            notes.append(f"corridor row n={n} off its recorded value or gap not decreasing")
        prev_gap = gap if math.isfinite(gap) else prev_gap
    return len(CORRIDOR_PROB), failed, notes


def check_corridor_lib(res: dict) -> tuple[int, int, list[str]]:
    failed, notes = 0, []
    ito = res.get("ito_mckean_f", math.nan)
    if not close(ito, ITO_MCKEAN_STRIP, ITO_MCKEAN_RTOL):
        failed += 1
        notes.append("ito_mckean_f off its recorded value")
    mean, se = res.get("bm_mean", math.nan), res.get("bm_stderr", math.nan)
    if not (se > 0 and abs(mean - ITO_MCKEAN_STRIP) <= Z_MC * se):
        failed += 1
        notes.append(f"brownian_corridor_mc beyond {Z_MC} se of the series")
    return 2, failed, notes


def check_tree(res: dict) -> tuple[int, int, list[str]]:
    """The five tree-mc library calls; see NOTES.md for each criterion."""
    failed, notes = 0, []

    def fail(msg):
        nonlocal failed
        failed += 1
        notes.append(msg)

    m, kappa = res.get("M", math.nan), res.get("kappa", math.nan)
    if not (m > 0 and 0.0 < kappa <= 1.0 and res.get("block_inequality") is True):
        fail("estimate_M_kappa gave an M outside the block inequality of criterion 08")
    reps = res.get("G_replicates", 0)
    p_ne = res.get("G_nonempty", math.nan)
    if reps > 0:
        slack = 3.0 * math.sqrt(max(p_ne, 1.0 / reps) * (1.0 - max(p_ne, 1.0 / reps)) / reps)
        if not p_ne >= 0.5 * RHO_CRIT08 - slack:
            fail("simulate_G below the criterion-08 lower bound")
    else:
        fail("simulate_G returned no replicates")
    for key, exact in M2O_EXACT.items():
        rep = res.get(f"m2o_{key}", {})
        ok = (rep.get("passed") is True and rep.get("exact") is not None
              and close(rep["exact"], exact, 1e-12)
              and abs(exact - rep["lhs_mean"]) <= Z_MC * rep["lhs_stderr"]
              and abs(exact - rep["rhs_mean"]) <= Z_MC * rep["rhs_stderr"])
        if not ok:
            fail(f"many_to_one_check on the {key} law: exact value outside an interval")
    p_hat, n = res.get("cap_p_hat", math.nan), res.get("cap_replicates", 0)
    se = math.sqrt(RHO_CAP_ROW * (1.0 - RHO_CAP_ROW) / n) if n else math.inf
    if not p_hat >= RHO_CAP_ROW - Z_MC * se:
        fail("escape-cap row below oracle - 4 se")
    return 5, failed, notes
