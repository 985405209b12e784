"""Child process of the benchmark: set-up probes, library workloads, traced runs.

    worker.py setup SPEC                    set up, print READY <clock>, exit
    worker.py lib SPEC OUT                  run the library calls, write OUT
    worker.py trace-lib SPEC OUT SPANS ID   the same, with spans written to SPANS
    worker.py trace-cli SPEC SPANS ID -- ARGV...
                                            kbrw.cli.main(ARGV) with spans

SPEC is the JSON workload spec that run.py writes.  The clock is
``time.perf_counter``, which is CLOCK_MONOTONIC and so comparable across
processes.  A traced run prints ``DUMP_S <seconds>``: the time spent writing
spans, which run.py subtracts from the traced wall time.
"""

from __future__ import annotations

import json
import sys
import time


def _certified_law(law_cfg: dict):
    """law -> validate -> critical profile -> VLaw, as the CLI does it."""
    import jsonschema
    from kbrw import cli, models
    from kbrw.analysis import solve_tstar
    from kbrw.transform import make_vlaw
    jsonschema.validate(law_cfg, cli.LAW_SCHEMA)
    law = cli.law_from_config(law_cfg)
    report = models.validate(law)
    if not report.ok:
        raise ValueError(f"law fails validation: {report.violations}")
    profile = solve_tstar(law)
    return law, profile, make_vlaw(law, profile)


def _corridor_spec(config: dict):
    from kbrw.mogulskii import CorridorSpec, corridor_constant
    cor = config["corridor"]

    def affine(b):
        return lambda t: b["intercept"] + b.get("slope", 0.0) * t

    spec = CorridorSpec.from_functions(affine(cor["g1"]), affine(cor["g2"]), cor["sigma"])
    return spec, corridor_constant(spec)


def setup(spec: dict):
    """Everything a workload does before its first row of work."""
    import jsonschema
    from kbrw import cli
    from kbrw.spine import make_spine
    if spec.get("command"):
        with open(spec["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        jsonschema.validate(config, cli.CONFIG_SCHEMAS[spec["command"]])
        if "law" in config:
            _certified_law(config["law"])
        if spec["command"] == "mogulskii":
            _corridor_spec(config)
    state = {}
    for key, law_cfg in spec.get("lib", {}).get("laws", {}).items():
        law, profile, vlaw = _certified_law(law_cfg)
        state[key] = (law, profile, vlaw, make_spine(vlaw))
    return state


def _report(rep) -> dict:
    return {"passed": bool(rep.passed), "exact": rep.exact,
            "lhs_mean": rep.lhs_mean, "lhs_stderr": rep.lhs_stderr,
            "rhs_mean": rep.rhs_mean, "rhs_stderr": rep.rhs_stderr,
            "exact_in_lhs_3se": rep.exact_in_lhs, "exact_in_rhs_3se": rep.exact_in_rhs}


def run_tree(lib: dict, state: dict) -> dict:
    from kbrw.simulate import (BarrierSpec, GwEmbedParams, estimate_M_kappa,
                               estimate_rho, simulate_G)
    from kbrw.spine import functional, many_to_one_check
    vlaw = state["binary"][2]
    seeds = lib["seeds"]
    out = {}
    m, kappa = estimate_M_kappa(vlaw, j_max=10, replicates=lib["M_kappa_replicates"],
                                seed=seeds["M_kappa"])
    g = lib["gw_embed"]
    params = GwEmbedParams(n=g["n"], eps=g["eps"], alpha=g["alpha"], L=g["L"], M=m)
    out.update(M=m, kappa=kappa, block_inequality=params.satisfies_block_inequality)
    counts = simulate_G(vlaw, params, lib["G_replicates"], seed=seeds["G"])
    out.update(G_replicates=int(counts.size), G_nonempty=float((counts > 0).mean()))
    for key in ("mixed", "binary"):
        m2o = lib["many_to_one"][key]
        k_law, _, k_vlaw, k_sp = state[key]
        rep = many_to_one_check(k_law, k_vlaw, k_sp, m2o["n"],
                                functional("below_line", slope=m2o["slope"]),
                                m2o["replicates"], seed=seeds[f"m2o_{key}"])
        out[f"m2o_{key}"] = _report(rep)
    cap = lib["cap_row"]
    est = estimate_rho(vlaw, BarrierSpec("V", cap["slope"]), cap["n"], cap["replicates"],
                       escape_cap=cap["escape_cap"], seed=seeds["cap_row"])
    out.update(cap_p_hat=est.p_hat, cap_replicates=est.replicates, cap_hits=est.cap_hits)
    return out


def run_corridor(lib: dict, state: dict) -> dict:
    from kbrw.mogulskii import brownian_corridor_mc, ito_mckean_f
    bm = lib["bm"]
    a, b, c, d = bm["strip"]
    mean, se = brownian_corridor_mc(a, b, c, d, paths=bm["paths"], steps=bm["steps"],
                                    seed=bm["seed"])
    return {"bm_mean": mean, "bm_stderr": se, "ito_mckean_f": ito_mckean_f(a, b, c, d)}


LIB_RUNNERS = {"tree-mc": run_tree, "corridor": run_corridor}


def run_lib(spec: dict, out_path: str) -> None:
    result = LIB_RUNNERS[spec["workload"]](spec["lib"], setup({"lib": spec["lib"]}))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)


def main(argv: list[str]) -> int:
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup(spec)
        print(f"READY {time.perf_counter():.9f}", flush=True)
        return 0
    if mode == "lib":
        run_lib(spec, argv[2])
        return 0
    import tracing
    tracer = tracing.install()
    if mode == "trace-lib":
        out_path, spans_path, run_id = argv[2:5]
        run_lib(spec, out_path)
        code = 0
    elif mode == "trace-cli":
        spans_path, run_id = argv[2:4]
        from kbrw import cli
        code = cli.main(argv[argv.index("--") + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    t = time.perf_counter()
    tracer.dump(spans_path, spec["workload"], run_id)
    print(f"DUMP_S {time.perf_counter() - t:.9f}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
