"""Experiment orchestration: JSON configs in, CSV reports out.

Subcommands:

* ``analyze``    -- critical constants and centering certificates for a law.
* ``survival``   -- killed-walk survival estimates (MC rows plus exact-DP
                    oracle rows on lattice laws) over a slope/depth grid.
* ``pemantle``   -- the binary-Bernoulli reproduction table: exact survival
                    iterated in depth against the predicted decay constant.
* ``mogulskii``  -- corridor probabilities against the small-deviation
                    constant over an n-grid.

Every stochastic command requires a seed and is bit-reproducible from
(config, seed); ``survival`` and ``pemantle`` rows run in this process and
in ``--threads`` - 1 helpers forked from it (``_run_rows``), and are sorted
before writing, so the thread count never changes the output.  A config's
``time_budget_s`` bounds the whole run: when it runs out the command stops,
helpers included, writes no CSV and exits 4.

The CLI runs numpy's BLAS on one thread per process unless
``OPENBLAS_NUM_THREADS`` is set: its parallelism is its forked helpers, and no
kernel calls BLAS on arrays large enough to gain from threads, while starting
OpenBLAS's threads cost each process about 65 ms on 2 CPUs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import pickle
import signal
import sys
import time

# before numpy is first imported, which starts OpenBLAS's threads (see the
# module docstring); a value the user exported still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import models, oracle, simulate, transform
from .analysis import (aldous_rate, beta_bs_from_gamma_derivative,
                       gamma_bs_solve, solve_tstar)
from .errors import (CertificationError, DomainTooNarrow, GridExhausted,
                     LatticeError, LawValidationError, NoCriticalPoint)
from .models import (BinaryBernoulli, DiscreteFinite, ExplicitFinite, Gaussian,
                     OffspringLaw, ProductLaw)
from .rng import derive_seed

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CRITICAL_POINT = 3
EXIT_BUDGET = 4

CSV_SCHEMA_VERSION = "kbrw.v2"

# ---------------------------------------------------------------------------
# config schema

# (value, probability) pairs of a finite step law
_ATOMS_SCHEMA = {"type": "array", "minItems": 2,
                 "items": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": {"type": "number"}}}

_STEP_SCHEMA = {
    "oneOf": [
        {"type": "object",
         "properties": {"type": {"const": "discrete"}, "atoms": _ATOMS_SCHEMA},
         "required": ["type", "atoms"], "additionalProperties": False},
        {"type": "object",
         "properties": {"type": {"const": "gaussian"},
                        "mean": {"type": "number"},
                        "stddev": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["type", "mean", "stddev"], "additionalProperties": False},
    ]
}

LAW_SCHEMA = {
    "oneOf": [
        {"type": "object",
         "properties": {"type": {"const": "binary_bernoulli"},
                        "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
         "required": ["type", "p"], "additionalProperties": False},
        {"type": "object",
         "properties": {"type": {"const": "product"},
                        "offspring_pmf": {"type": "array", "minItems": 1,
                                          "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                                    "prefixItems": [
                                                        {"type": "integer", "minimum": 0},
                                                        {"type": "number"}]}},
                        "step": _STEP_SCHEMA},
         "required": ["type", "offspring_pmf", "step"], "additionalProperties": False},
        {"type": "object",
         "properties": {"type": {"const": "explicit"},
                        "outcomes": {"type": "array", "minItems": 1,
                                     "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                               "prefixItems": [
                                                   {"type": "array",
                                                    "items": {"type": "number"}},
                                                   {"type": "number"}]}}},
         "required": ["type", "outcomes"], "additionalProperties": False},
    ]
}

_BOUNDARY_SCHEMA = {
    "oneOf": [
        {"type": "object",
         "properties": {"type": {"const": "affine"},
                        "intercept": {"type": "number"}, "slope": {"type": "number"}},
         "required": ["type", "intercept"], "additionalProperties": False},
        {"type": "object",
         "properties": {"type": {"const": "samples"},
                        "values": {"type": "array", "minItems": 2,
                                   "items": {"type": "number"}}},
         "required": ["type", "values"], "additionalProperties": False},
    ]
}

# entries every command shares; analyze runs under no time budget
_SHARED = {"law": LAW_SCHEMA, "seed": {"type": "integer"},
           "time_budget_s": {"type": "number", "exclusiveMinimum": 0}}


def _command_schema(required: list[str], **properties) -> dict:
    return {"type": "object", "properties": {**_SHARED, **properties},
            "required": required, "additionalProperties": False}


CONFIG_SCHEMAS = {
    "analyze": _command_schema(["law"], time_budget_s=False),
    "survival": _command_schema(
        ["law", "seed", "slopes", "n", "replicates"],
        coordinate={"enum": ["U", "V"]},
        slopes={"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}},
        n={"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        replicates={"type": "integer", "minimum": 100},
        escape_cap={"type": ["integer", "null"], "minimum": 1},
        record_runtime={"type": "boolean"}),
    "pemantle": _command_schema(
        ["law", "eps_grid"],
        eps_grid={"type": "array", "minItems": 1,
                  "items": {"type": "number", "exclusiveMinimum": 0}},
        rel_tol={"type": "number", "exclusiveMinimum": 0},
        n_start={"type": "integer", "minimum": 2},
        n_max={"type": "integer", "minimum": 4}),
    "mogulskii": _command_schema(
        ["seed", "corridor", "family", "n_list"],
        corridor={
            "type": "object",
            "properties": {"g1": _BOUNDARY_SCHEMA, "g2": _BOUNDARY_SCHEMA,
                           "sigma": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["g1", "g2", "sigma"], "additionalProperties": False,
        },
        family={
            "type": "object",
            "properties": {"type": {"enum": ["lazy", "lattice", "spine"]},
                           "atoms": _ATOMS_SCHEMA,
                           "condition_nu": {"type": "boolean"}},
            "required": ["type"], "additionalProperties": False,
            "if": {"properties": {"type": {"const": "lattice"}}},
            "then": {"required": ["atoms"]},
        },
        n_list={"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 2}},
        endpoint_b={"type": ["number", "boolean"], "exclusiveMinimum": 0},
        mc_replicates={"type": "integer", "minimum": 1000000}),
}

def _is_type(value, name: str) -> bool:
    """JSON types: a bool is not a number, and 2.0 is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "number":
        return isinstance(value, (int, float))
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, {"object": dict, "array": list, "null": type(None),
                              "boolean": bool}[name])


def _check(schema, value, path: str = "config") -> None:
    """Raise ValueError naming the first place where ``value`` breaks ``schema``.

    Draft 2020-12 semantics for the keywords and values that CONFIG_SCHEMAS
    use (every const and enum is a string, and the alternatives of every
    oneOf differ in a ``type`` const), so configs pass or fail as under
    ``jsonschema.validate``, which would cost each run about 0.1 s to import
    and to check the schema.
    """
    def fail(message: str):
        raise ValueError(f"{path}: {message}")
    if schema is False:
        fail("is not allowed here")
    names = schema.get("type", ())
    names = [names] if isinstance(names, str) else names
    if names and not any(_is_type(value, t) for t in names):
        fail(f"{value!r} is not of type {' or '.join(names)}")
    if "const" in schema and value != schema["const"]:
        fail(f"{value!r} is not {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _is_type(value, "number"):
        if value < schema.get("minimum", -math.inf):
            fail(f"{value!r} is less than {schema['minimum']!r}")
        if value <= schema.get("exclusiveMinimum", -math.inf):
            fail(f"{value!r} is not above {schema['exclusiveMinimum']!r}")
        if value >= schema.get("exclusiveMaximum", math.inf):
            fail(f"{value!r} is not below {schema['exclusiveMaximum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", math.inf):
            fail(f"has more than {schema['maxItems']} items")
        prefix = schema.get("prefixItems", [])
        for k, item in enumerate(value):
            _check(prefix[k] if k < len(prefix) else schema.get("items", {}),
                   item, f"{path}[{k}]")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, item in value.items():
            _check(properties.get(key, schema.get("additionalProperties", {})),
                   item, f"{path}.{key}")
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
    if "oneOf" in schema:
        errors = []
        for alternative in schema["oneOf"]:
            try:
                _check(alternative, value, path)
            except ValueError as exc:
                errors.append(str(exc))
        if len(errors) == len(schema["oneOf"]):
            fail(f"fits none of the alternatives ({'; '.join(errors)})")
    if "if" in schema:
        try:
            _check(schema["if"], value, path)
        except ValueError:
            pass
        else:
            _check(schema["then"], value, path)


def law_from_config(obj: dict) -> OffspringLaw:
    if obj["type"] == "binary_bernoulli":
        return BinaryBernoulli(obj["p"])
    if obj["type"] == "product":
        step = obj["step"]
        if step["type"] == "discrete":
            s = DiscreteFinite(tuple((v, p) for v, p in step["atoms"]))
        else:
            s = Gaussian(step["mean"], step["stddev"])
        return ProductLaw(tuple((k, p) for k, p in obj["offspring_pmf"]), s)
    return ExplicitFinite(tuple((tuple(ds), p) for ds, p in obj["outcomes"]))


def _boundary_from_config(obj: dict):
    if obj["type"] == "affine":
        a, b = obj["intercept"], obj.get("slope", 0.0)
        return lambda t: a + b * t
    values = np.asarray(obj["values"], dtype=np.float64)
    ts = np.linspace(0.0, 1.0, values.size)
    return lambda t: float(np.interp(t, ts, values))


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_csv(out_path: str | None, schema: str, config: dict, header: list[str],
              rows: list[list], footer_comments: list[str] = ()) -> None:
    lines = [f"# schema={CSV_SCHEMA_VERSION}.{schema} config_sha256={config_digest(config)} "
             f"seed={config.get('seed', '')}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    for c in footer_comments:
        lines.append(f"# {c}")
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _usable_cpus() -> int:
    """The CPUs this process may run on (the machine's count where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim(claims: tuple[int, int], stop: int | None = None) -> int:
    """Take the next unclaimed task index from the pipe ``claims`` and put
    back the one after it, or ``stop``.  The pipe holds one 8-byte index, and
    a process that reads it holds it alone until it writes, so claims come
    in task order with no bound on the number of tasks."""
    i = int.from_bytes(os.read(claims[0], 8), "little")
    os.write(claims[1], (i + 1 if stop is None else stop).to_bytes(8, "little"))
    return i


def _claimed_rows(tasks, worker, claims: tuple[int, int]):
    """The ``(index, row)`` pairs of the tasks this process claims, and the
    ``(index, exception)`` of a row that raised, or None.  A row's exception
    ends all claiming: the tasks before it were claimed already and finish,
    so the lowest failing index is the task a serial run would fail on."""
    rows = []
    while (i := _claim(claims)) < len(tasks):
        try:
            rows.append((i, worker(tasks[i])))
        except Exception as exc:
            _claim(claims, stop=len(tasks))
            return rows, (i, exc)
    return rows, None


def _run_rows(tasks, worker, threads: int | None):
    """worker(task) for every task, in task order.

    With ``threads`` above 1, this process runs rows itself beside
    ``threads - 1`` forked helpers, and each process claims the next
    unclaimed task (``_claim``).  Nothing is pickled on the way in: a helper
    inherits the tasks and the worker.  It pickles its rows, or the
    exception a row raised, into its own pipe and leaves by ``os._exit``; a
    helper's exception is raised here as it was raised there.  The
    ``finally`` kills and reaps every helper, so an exception here (such as
    the budget alarm) does not wait for their rows and leaves no process.
    """
    workers = min(_usable_cpus() if threads is None else threads, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):     # Windows cannot fork
        return [worker(t) for t in tasks]
    claims = os.pipe()
    os.write(claims[1], bytes(8))      # task 0 is the first unclaimed
    fds, helpers = list(claims), {}     # helpers: pid -> read end of its pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:            # a helper never returns into the caller's code
                    try:
                        with open(w, "wb") as fh:
                            pickle.dump(_claimed_rows(tasks, worker, claims), fh)
                    finally:
                        os._exit(0)
            finally:
                os.close(w)
            helpers[pid] = r
        parts = [_claimed_rows(tasks, worker, claims)]
        for pid, r in helpers.items():
            with open(r, "rb", closefd=False) as fh:
                try:
                    parts.append(pickle.load(fh))
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"row helper {pid} ended without its rows") from None
        errors = [error for _, error in parts if error is not None]
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        rows = dict(pair for pairs, _ in parts for pair in pairs)
        return [rows[i] for i in range(len(tasks))]
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _certified(config: dict) -> transform.VLaw:
    """The config's law with its solved profile and certified centering."""
    law = law_from_config(config["law"])
    return transform.make_vlaw(law, solve_tstar(law))


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(config: dict, threads: int | None):
    vlaw = _certified(config)
    law, profile = vlaw.base, vlaw.profile
    rows = [
        ("mean_children", models.mean_children(law)),
        ("t_star", profile.t_star),
        ("gamma", profile.gamma),
        ("psi_tstar", profile.psi_tstar),
        ("psi2_tstar", profile.psi2_tstar),
        ("sigma2", profile.sigma2),
        ("beta_U", profile.beta_U),
        ("beta_V", profile.beta_V),
        ("tilt_identity_mean_exp_residual", vlaw.mean_exp_residual),
        ("tilt_identity_mean_vexp_residual", vlaw.mean_vexp_residual),
        ("delta1_witness_E_sum_exp_minus_2V", vlaw.delta1_witness),
        ("delta2_witness_E_sum_exp_plus_V", vlaw.delta2_witness),
    ]
    if isinstance(law, BinaryBernoulli) and law.p < 0.5:
        g = gamma_bs_solve(law.p)
        rows += [
            ("gamma_bs_entropy_equation", g),
            ("gamma_cross_check_abs_diff", abs(g - profile.gamma)),
            ("beta_bs", profile.beta_U),
        ]
        if abs(16.0 * law.p * (1.0 - law.p) - 1.0) <= 1e-9:
            # the derivative form of beta applies only at the gamma = 1/2 point
            rows.append(("beta_bs_derivative_form", beta_bs_from_gamma_derivative(law.p)))
            rows.append(("aldous_rate", aldous_rate(law.p)))
    for key, value in rows:
        print(f"{key} = {_fmt(value)}")
    return ["quantity", "value"], [[k, v] for k, v in rows], []


# ---------------------------------------------------------------------------
# survival

def _survival_row(vlaw: transform.VLaw, ll: oracle.LatticeLaw | None, config: dict,
                  task: tuple) -> list:
    """The CSV row, in header order, of one (method, slope, n, row_seed) task."""
    method, slope, n, row_seed = task
    coordinate = config.get("coordinate", "V")
    started = time.perf_counter()
    barrier = simulate.BarrierSpec(coordinate, slope)
    if method == "mc":
        escape_cap = config.get("escape_cap", 10_000)
        est = simulate.estimate_rho(vlaw, barrier, n, int(config["replicates"]),
                                    escape_cap=math.inf if escape_cap is None else escape_cap,
                                    seed=row_seed)
        fields = [est.p_hat, est.ci_low, est.ci_high, est.replicates, row_seed, est.cap_hits]
    else:
        p = oracle.exact_path_survival(ll, n, barrier.u_line(vlaw.profile))
        fields = [p, p, p, 0, row_seed, 0]
    runtime_ms = (time.perf_counter() - started) * 1e3 if config.get("record_runtime") else 0.0
    return [method, coordinate, slope, n, *fields, runtime_ms]


def cmd_survival(config: dict, threads: int | None):
    vlaw = _certified(config)
    try:
        ll, methods = oracle.LatticeLaw.from_law(vlaw.base), ["mc", "oracle"]
    except LatticeError:
        ll, methods = None, ["mc"]
        print("warning: non-lattice law, oracle rows omitted", file=sys.stderr)
    grid = [(method, slope, int(n)) for slope in config["slopes"] for n in config["n"]
            for method in methods]
    tasks = [(*g, derive_seed(config["seed"], idx)) for idx, g in enumerate(grid)]
    rows = _run_rows(tasks, functools.partial(_survival_row, vlaw, ll, config), threads)
    rows.sort(key=lambda r: (r[0], r[2], r[3]))     # method, slope, n
    header = ["method", "coordinate", "slope", "n", "estimate", "ci_low", "ci_high",
              "replicates", "seed", "cap_hits", "runtime_ms"]
    return header, rows, []


# ---------------------------------------------------------------------------
# pemantle reproduction table

def _pemantle_row(ll, profile, rel_tol: float, n_start: int, n_max: int, eps_u: float) -> list:
    """The CSV row, in header order, at one eps_U."""
    barrier = simulate.BarrierSpec("U", eps_u)
    rho, n_used = oracle.rho_limit(ll, barrier.u_line(profile), rel_tol=rel_tol,
                                   n_start=n_start, n_max=n_max)
    return [eps_u, barrier.v_slope(profile), n_used, rho,
            math.sqrt(eps_u) * math.log(rho) if rho > 0 else -math.inf, -profile.beta_U]


def cmd_pemantle(config: dict, threads: int | None):
    n_start, n_max = int(config.get("n_start", 128)), int(config.get("n_max", 1 << 18))
    if n_start >= n_max:
        raise ValueError(f"n_start = {n_start} leaves no doubling below n_max = {n_max}")
    if config["law"]["type"] != "binary_bernoulli":
        raise LawValidationError("pemantle command needs a binary_bernoulli law")
    vlaw = _certified(config)
    law = vlaw.base
    worker = functools.partial(_pemantle_row, oracle.LatticeLaw.from_law(law), vlaw.profile,
                               config.get("rel_tol", 0.01), n_start, n_max)
    # n_used grows about as eps_U^(-3/2), so the deepest rows are claimed
    # first and no process ends the run on one long row started last
    rows = _run_rows(sorted(config["eps_grid"]), worker, threads)
    rows.sort(key=lambda r: -r[0])
    header = ["eps_U", "eps_V", "n_used", "rho_oracle",
              "sqrt_eps_times_log_rho", "beta_target"]
    footers = []
    if abs(16.0 * law.p * (1.0 - law.p) - 1.0) <= 1e-9:
        footers.append(f"aldous_rate={_fmt(aldous_rate(law.p))}")
    return header, rows, footers


# ---------------------------------------------------------------------------
# mogulskii experiments

def cmd_mogulskii(config: dict, threads: int | None):
    from . import mogulskii, spine     # only this command runs them
    cor = config["corridor"]
    spec = mogulskii.CorridorSpec.from_functions(
        _boundary_from_config(cor["g1"]), _boundary_from_config(cor["g2"]), cor["sigma"])
    fam = config["family"]
    if fam["type"] == "lazy":
        arr = mogulskii.ArraySpec.lazy_walk()
    elif fam["type"] == "lattice":
        arr = mogulskii.ArraySpec.lattice(tuple((v, p) for v, p in fam["atoms"]))
    else:
        if "law" not in config:
            raise ValueError("spine family needs a 'law' entry in the config")
        arr = mogulskii.ArraySpec.from_spine(spine.make_spine(_certified(config)),
                                             condition_nu=fam.get("condition_nu", True))
    # the corridor constant scales with sigma, so sigma must be the walk's own
    var = mogulskii.ArraySpec(arr.atoms, noise=arr.noise).witnesses_at(1)["var"]
    if abs(cor["sigma"] ** 2 - var) > 1e-6 * var:
        raise ValueError(f"corridor.sigma = {cor['sigma']!r} is not the walk's "
                         f"sigma {math.sqrt(var)!r}")
    endpoint_b = config.get("endpoint_b") or None   # false and missing alike
    if endpoint_b is True:
        endpoint_b = mogulskii.default_endpoint_b(spec)
    rows = mogulskii.triangular_experiment(arr, spec, [int(n) for n in config["n_list"]],
                                           endpoint_b=endpoint_b,
                                           mc_replicates=int(config.get("mc_replicates",
                                                                        1_000_000)),
                                           seed=config["seed"])
    header = ["n", "a_n", "prob", "scaled_log_prob", "target_constant", "gap"]
    if endpoint_b is not None:
        header += ["endpoint_prob", "endpoint_scaled"]
    table = []
    for r in rows:
        row = [r.n, r.a_n, r.prob, r.scaled_log_prob, r.target, r.gap]
        if endpoint_b is not None:
            row += [r.endpoint_prob, r.endpoint_scaled]
        table.append(row)
    return header, table, []


# ---------------------------------------------------------------------------
# entry point

# command -> cmd(config, threads) -> (header, rows, footer comments)
_COMMANDS = {"analyze": cmd_analyze, "survival": cmd_survival, "pemantle": cmd_pemantle,
             "mogulskii": cmd_mogulskii}


def _load_config(path: str, command: str, overrides: dict) -> dict:
    def reject(name: str):
        raise ValueError(f"{name} is not a JSON number")

    def finite(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):        # such as 1e999, or an integer of 400 digits
            raise ValueError(f"{text} is beyond the range of a double")
        return x

    def whole(text: str) -> int:
        finite(text)
        return int(text)
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh, parse_constant=reject, parse_float=finite, parse_int=whole)
    if not isinstance(config, dict):
        raise ValueError("the config must be a JSON object")
    config.update({k: v for k, v in overrides.items() if v is not None})
    _check(CONFIG_SCHEMAS[command], config)
    return config


class _BudgetExceeded(BaseException):
    """time_budget_s ran out.  Like KeyboardInterrupt, it is no row error, so
    no ``except Exception`` takes it for one."""


def _budget_alarm(signum, frame):
    raise _BudgetExceeded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kbrw",
                                     description="killed branching random walk laboratory")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="processes that run survival and pemantle rows, this one "
                             "included (default: the CPUs this process may use)")
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    parser.add_argument("--escape-cap", type=int, default=None,
                        help="overrides config escape_cap")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print(f"--threads must be at least 1, not {args.threads}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.escape_cap is not None and args.command != "survival":
        print("--escape-cap applies only to survival", file=sys.stderr)
        return EXIT_VALIDATION
    # an output path that cannot be created would fail only after all the work
    if args.out is not None and (os.path.isdir(args.out)
                                 or not os.path.isdir(os.path.dirname(args.out) or ".")):
        print(f"bad output path: {args.out}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        overrides = {"seed": args.seed, "escape_cap": args.escape_cap}
        config = _load_config(args.config, args.command, overrides)
    except (ValueError, OSError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # one real-time alarm bounds the whole command; the CSV is written only
    # after it is disarmed, so a run that overshoots leaves no partial output
    budget = config.get("time_budget_s")
    if budget is not None:
        previous = signal.signal(signal.SIGALRM, _budget_alarm)
    try:
        try:
            if budget is not None:
                # setitimer cannot take 1e300 s; a budget of 30 years never fires anyway
                signal.setitimer(signal.ITIMER_REAL, min(budget, 1e9))
            header, rows, footers = _COMMANDS[args.command](config, args.threads)
        finally:
            if budget is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (LawValidationError, CertificationError, LatticeError, ValueError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoCriticalPoint, DomainTooNarrow) as exc:
        print(f"no critical tilt: {exc}", file=sys.stderr)
        return EXIT_NO_CRITICAL_POINT
    except GridExhausted as exc:
        print(f"grid exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _BudgetExceeded:
        print("runtime budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if budget is not None:
            signal.signal(signal.SIGALRM, previous)
    # analyze prints its quantities and writes a CSV only on request
    if args.command != "analyze" or args.out is not None:
        write_csv(args.out, args.command, config, header, rows, footers)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
