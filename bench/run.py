"""Benchmark of the kbrw package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  One invocation measures one workload for
about S seconds and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones; ``--workload all`` runs every workload both ways.  The
package is imported from ``src/`` of the same checkout and sees only the
configs run.py writes under ``.bench_work/``.  Times are scaled to a
reference machine speed read while the run lasts (``Speed``), because the
speed of a shared VM drifts.  See NOTES.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NPROC = os.cpu_count() or 1
SETUP_PROBES = 5            # set-up is timed this many times per run; the median is reported
CHILD_TIMEOUT_S = 150       # a child still running after this is killed and counted failed
REF_BLOCKS = 8              # reference blocks per gap reading (see Speed)
REF_BLOCK_S = 0.030         # one reference block on the reference machine in a quiet minute
PROBE_PERIOD_S = 0.05       # each CPU's speed is sampled this often during a run
PROBE_REF_S = 0.0005        # one _probe_kernel on the reference machine in a quiet minute
ALL_CPUS = tuple(sorted(os.sched_getaffinity(0)))
ONE_CPU = ALL_CPUS[-1:]     # where single-process children run
SURVIVAL_REPLICATES = 4000
THREADS = list(dict.fromkeys([NPROC, 1]))   # CLI thread counts: the default, then 1
WORKLOADS = ("survival-mc", "tree-mc", "pemantle-dp", "corridor")

# Re-anchor baseline from ROADMAP.md (2 CPUs, Python 3.11.7, numpy 2.4.6),
# printed next to the traced figures so a large gap is visible.
BASELINE = {
    "simulate.us_per_replicate": "44",
    "rng.rekey.us_per_call": "7.5",
    "models.sample_broods.us_per_call": "~6",
    "oracle.path_dp.us_per_level": "55-90",
    "oracle.corridor_dp.us_per_level": "~22",
    "mogulskii.bm.ns_per_path_step": "~75",
}
# derived from the call arguments (window bounds), not counted inside the DP
COMPUTED = {"oracle.path_dp.states", "oracle.path_dp.ns_per_state",
            "oracle.corridor_dp.states", "oracle.corridor_dp.ns_per_state"}


# ---------------------------------------------------------------------------
# workloads

def make_spec(workload: str, seed: int, wdir: Path) -> dict:
    """The inputs of one workload, all derived from ``seed``."""
    law = {"type": "binary_bernoulli", "p": 0.3}
    spec = {"workload": workload}
    if workload == "survival-mc":
        # the grid of configs/survival_binary.json at a replicate count that
        # lets a run repeat the workload several times
        config = {"law": law, "seed": seed, "coordinate": "V",
                  "slopes": [0.05, 0.1, 0.2], "n": [6, 10, 12],
                  "replicates": SURVIVAL_REPLICATES, "escape_cap": 10_000}
        spec.update(command="survival", threads=THREADS)
    elif workload == "pemantle-dp":
        # no randomness: the seed reaches only the CSV header
        config = {"law": law, "seed": seed,
                  "eps_grid": [0.02, 0.01, 0.005, 0.003], "rel_tol": 0.01}
        spec.update(command="pemantle", threads=THREADS)
    elif workload == "corridor":
        # configs/mogulskii_lazy.json; the DP is exact, the seed drives the BM call
        config = {"seed": seed,
                  "corridor": {"g1": {"type": "affine", "intercept": -1.0},
                               "g2": {"type": "affine", "intercept": 1.0},
                               "sigma": 0.8164965809277260},
                  "family": {"type": "lazy"}, "n_list": [1000, 10000, 100000],
                  "endpoint_b": True}
        # mogulskii ignores --threads, so one CLI run stands for both thread counts
        spec.update(command="mogulskii", threads=[NPROC], one_process=True,
                    lib={"bm": {"strip": [-1.0, 1.0, -1.0, 1.0], "paths": 20_000,
                                "steps": 500, "seed": seed}})
    elif workload == "tree-mc":
        config = None
        s = 16 * seed
        spec["lib"] = {
            "laws": {"binary": law,
                     "mixed": {"type": "product",
                               "offspring_pmf": [[0, 0.2], [1, 0.3], [2, 0.3], [3, 0.2]],
                               "step": {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]}}},
            "seeds": {"M_kappa": s + 1, "G": s + 2, "m2o_mixed": s + 3,
                      "m2o_binary": s + 4, "cap_row": s + 5},
            "M_kappa_replicates": 800,
            "gw_embed": {"n": 12, "eps": 0.43, "alpha": 0.5, "L": 11},
            "G_replicates": 10_000,
            "many_to_one": {"mixed": {"n": 6, "slope": 0.5, "replicates": 5_000},
                            "binary": {"n": 6, "slope": 0.5, "replicates": 20_000}},
            "cap_row": {"slope": 1.0, "n": 20, "replicates": 1_000, "escape_cap": 10_000},
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if config is not None:
        spec["config"] = str(wdir / "config.json")
        (wdir / "config.json").write_text(json.dumps(config, indent=1))
    spec_path = wdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    spec["path"] = str(spec_path)
    return spec


CSV_CHECKS = {
    "survival": lambda text: checks.check_survival(text, SURVIVAL_REPLICATES),
    "pemantle": checks.check_pemantle,
    "mogulskii": checks.check_corridor_csv,
}
LIB_CHECKS = {"tree-mc": checks.check_tree, "corridor": checks.check_corridor_lib}


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    code: int
    spawned: float    # time.perf_counter() at spawn
    wall: float       # spawn to reap
    rss_mb: float     # peak RSS of the child or of any descendant it reaped
    stdout: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], wdir: Path, tag: str) -> Child:
    """Run one child to completion; run.py never has two at once."""
    env = dict(os.environ, TMPDIR=str(wdir / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = wdir / f"{tag}.out", wdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; wait4 folds in the child's reaped descendants
    return Child(proc.returncode, t0, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# machine speed

def _reference_block() -> int:
    """About 30 ms of fixed work in the package's mix: interpreter loop,
    small numpy calls, sorts and cumsums of 10**5 doubles."""
    rng = np.random.default_rng(12345)
    s = 0
    for i in range(30_000):
        s += i * i % 7
    for _ in range(400):
        x = rng.random(4)
        y = np.repeat(x, 3)
        s += int(y[y > 0.5].size)
    a = rng.random(100_000)
    for _ in range(5):
        s += int(np.argsort(a)[0])
        a = np.cumsum(a) % 1.0
    return s


def reference_time(cpus: tuple[int, ...]) -> float:
    """Mean seconds of one reference block over REF_BLOCKS blocks, taken in
    turn on each of ``cpus``."""
    saved = os.sched_getaffinity(0)
    total = 0.0
    try:
        for k in range(REF_BLOCKS):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            t0 = time.perf_counter()
            _reference_block()
            total += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, saved)
    return total / REF_BLOCKS


def _probe_kernel(a: np.ndarray) -> float:
    """About half a millisecond of the same mix, small enough to run while
    a child runs."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    for _ in range(20):
        s += int(np.repeat(a[:4], 2)[3] > 0.5)
    return s + float(np.sort(a)[0])


def _busy_ticks(cpu: int) -> int:
    """Non-idle clock ticks of ``cpu`` so far, from /proc/stat (0 if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    f = [int(x) for x in line.split()[1:8]]
                    return f[0] + f[1] + f[2] + f[5] + f[6]   # user nice system irq softirq
    except OSError:
        pass
    return 0


class Speed:
    """Runs timed children and converts their seconds to the reference speed.

    Other tenants of a shared VM slow each vCPU on its own, by up to 1.5x
    for seconds to minutes, and process CPU time slows with it.  A timed
    child runs on a fixed set of CPUs (one CPU unless it runs a pool), and
    the machine's speed on those CPUs is read two ways:

    - between children: the reference block, timed on the child's CPUs
      just before and just after it (``gap``);
    - during the child: one thread per CPU, pinned to it, times the probe
      kernel every PROBE_PERIOD_S and notes its CPU's busy ticks since the
      last sample; the busy-weighted mean over the child's CPUs while it
      ran, so a CPU the child left idle does not count (``probe``).

    The child's seconds are multiplied by the geometric mean of
    REF_BLOCK_S / gap and PROBE_REF_S / probe; each reading alone misses
    some of the slowdown that the other sees.  Neither kernel uses the
    package, so a change to the package moves the scaled time as it moves
    the raw time.
    """

    def __init__(self, cpus: tuple[int, ...] = ALL_CPUS):
        self.samples: list[tuple[float, int, float, int]] = []   # (end, cpu, secs, ticks)
        self.factors: list[float] = []
        self.last: tuple[tuple[int, ...], float] | None = None   # last gap reading
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(c,), daemon=True)
                         for c in cpus]
        for t in self._threads:
            t.start()

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})        # this thread only
        a = np.random.default_rng(cpu).random(4096)
        _probe_kernel(a)                      # warm-up, not recorded
        last = _busy_ticks(cpu)
        while not self._stop.wait(PROBE_PERIOD_S):
            busy = _busy_ticks(cpu)
            if self._paused.is_set():         # the driver is timing the reference block
                last = busy
                continue
            t0 = time.perf_counter()
            _probe_kernel(a)
            t1 = time.perf_counter()
            self.samples.append((t1, cpu, t1 - t0, busy - last))
            last = busy

    def probe_factor(self, t0: float, t1: float, cpus: tuple[int, ...]) -> float:
        """PROBE_REF_S over the busy-weighted mean probe time on ``cpus`` in [t0, t1]."""
        t0, t1 = t0 - PROBE_PERIOD_S, t1 + PROBE_PERIOD_S
        got = [(secs, ticks) for end, cpu, secs, ticks in list(self.samples)
               if t0 <= end <= t1 and cpu in cpus]
        if not got:
            return math.nan
        weight = sum(ticks for _, ticks in got)
        mean = (sum(secs * ticks for secs, ticks in got) / weight if weight > 0
                else sum(secs for secs, _ in got) / len(got))
        return PROBE_REF_S / mean

    def _gap(self, cpus: tuple[int, ...]) -> float:
        self._paused.set()
        try:
            return reference_time(cpus)
        finally:
            self._paused.clear()

    def timed(self, argv: list[str], wdir: Path, tag: str,
              cpus: tuple[int, ...]) -> tuple[Child, float]:
        """The child and the factor that takes its seconds to the reference speed."""
        if self.last is None or self.last[0] != cpus:
            self.last = (cpus, self._gap(cpus))
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, set(cpus))     # inherited by the child
        try:
            child = run_child(argv, wdir, tag)
        finally:
            os.sched_setaffinity(0, saved)
        after = self._gap(cpus)
        gap = 2.0 * REF_BLOCK_S / (self.last[1] + after)
        self.last = (cpus, after)
        probe = self.probe_factor(child.spawned, child.spawned + child.wall, cpus)
        factor = math.sqrt(gap * probe)
        self.factors.append(factor)
        return child, factor


def _stdout_value(child: Child, key: str) -> float:
    for line in child.stdout.splitlines():
        if line.startswith(key + " "):
            return float(line.split()[1])
    return math.nan


def setup_probe(spec: dict, wdir: Path, k: int, speed: Speed) -> float:
    """Interpreter start to the end of set-up, in a fresh process, at the
    reference speed (NaN on failure)."""
    child, factor = speed.timed([sys.executable, str(HERE / "worker.py"), "setup",
                                 spec["path"]], wdir, f"setup{k}", ONE_CPU)
    # READY is stamped on perf_counter's clock, which is shared across processes
    took = (_stdout_value(child, "READY") - child.spawned) * factor
    return took if child.code == 0 else math.nan


def cli_argv(spec: dict, threads: int, out: Path) -> list[str]:
    return ["-m", "kbrw.cli", spec["command"], "--config", spec["config"],
            "--threads", str(threads), "--out", str(out)]


# ---------------------------------------------------------------------------
# one iteration of a workload

@dataclass
class Iteration:
    wall: float = 0.0       # at the reference speed
    wall_1t: float = 0.0    # at the reference speed
    raw_wall: float = 0.0
    raw_wall_1t: float = 0.0
    rss_mb: float = 0.0
    traced: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: int = 0


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def iteration(spec: dict, wdir: Path, k: int, trace: bool, notes: list[str],
              spans: list[Path], speed: Speed) -> Iteration:
    it = Iteration()
    py, worker = sys.executable, str(HERE / "worker.py")

    def count(att: int, fail: int, msgs=()):
        it.attempted += att
        it.failed += fail
        notes.extend(msgs)

    if "command" in spec:
        check = CSV_CHECKS[spec["command"]]
        texts = {}
        for threads in spec["threads"]:
            out = wdir / f"it{k}-t{threads}.csv"
            cpus = ALL_CPUS if threads > 1 and not spec.get("one_process") else ONE_CPU
            child, factor = speed.timed([py] + cli_argv(spec, threads, out), wdir,
                                        f"it{k}-t{threads}", cpus)
            texts[threads] = _read(out) if child.code == 0 else ""
            scaled = child.wall * factor
            if threads == NPROC:
                it.wall += scaled
                it.raw_wall += child.wall
                it.rss_mb = max(it.rss_mb, child.rss_mb)
                att, fail, msgs = check(texts[threads])
                count(att, att if child.code else fail, msgs)
                rows_expected = att
            if threads == 1 or len(spec["threads"]) == 1:
                it.wall_1t += scaled
                it.raw_wall_1t += child.wall
            if threads != NPROC:
                count(rows_expected, checks.differing_rows(texts[threads], texts[NPROC]))
        if trace:
            out = wdir / f"it{k}-traced.csv"
            span_path = wdir / f"it{k}-cli-spans.npz"
            child, factor = speed.timed(
                [py, worker, "trace-cli", spec["path"], str(span_path),
                 f"{spec['workload']}-{k}-cli", "--"] + cli_argv(spec, 1, out)[2:],
                wdir, f"it{k}-traced", ONE_CPU)
            it.traced += (child.wall - _stdout_value(child, "DUMP_S")) * factor
            reference = texts.get(1, texts[NPROC])
            count(rows_expected, checks.differing_rows(_read(out) if child.code == 0 else "",
                                                       reference))
            it.rows += len(checks.parse_csv(_read(out)))
            spans.append(span_path)
    if "lib" in spec:
        out = wdir / f"it{k}-lib.json"
        child, factor = speed.timed([py, worker, "lib", spec["path"], str(out)], wdir,
                                    f"it{k}-lib", ONE_CPU)
        scaled = child.wall * factor
        it.wall += scaled
        it.wall_1t += scaled
        it.raw_wall += child.wall
        it.raw_wall_1t += child.wall
        it.rss_mb = max(it.rss_mb, child.rss_mb)
        text = _read(out) if child.code == 0 else ""
        att, fail, msgs = LIB_CHECKS[spec["workload"]](json.loads(text) if text else {})
        count(att, att if child.code else fail, msgs)
        if trace:
            traced_out = wdir / f"it{k}-lib-traced.json"
            span_path = wdir / f"it{k}-lib-spans.npz"
            child, factor = speed.timed([py, worker, "trace-lib", spec["path"],
                                         str(traced_out), str(span_path),
                                         f"{spec['workload']}-{k}-lib"],
                                        wdir, f"it{k}-lib-traced", ONE_CPU)
            it.traced += (child.wall - _stdout_value(child, "DUMP_S")) * factor
            same = child.code == 0 and _read(traced_out) == text
            count(att, 0 if same else att, () if same else ["traced library output differs"])
            spans.append(span_path)
    return it


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

class Spans:
    """All spans of one traced pass, from one or more span files."""

    def __init__(self, paths: list[Path]):
        self.names: list[str] = []
        cols = {k: [] for k in ("name", "pname", "dur", "self", "parent", "start",
                                "a", "b", "c")}
        offset = 0
        for path in paths:
            with np.load(path) as z:
                ids = np.array([self._id(str(n)) for n in z["names"]] or [0],
                               dtype=np.int64)[z["name_id"]]
                dur = z["end"] - z["start"]
                par = z["parent"].astype(np.int64)
                has = par >= 0
                cols["name"].append(ids)
                cols["pname"].append(np.where(has, ids[np.where(has, par, 0)], -1))
                cols["dur"].append(dur)
                cols["self"].append(dur - np.bincount(par[has], weights=dur[has],
                                                      minlength=dur.size))
                cols["parent"].append(np.where(has, par + offset, -1))
                cols["start"].append(z["start"])
                for key in "abc":
                    cols[key].append(z[f"count_{key}"])
                offset += dur.size
        for key, parts in cols.items():
            setattr(self, key, np.concatenate(parts) if parts else np.zeros(0))
        self.name = self.name.astype(np.int64)
        self.pname = self.pname.astype(np.int64)
        self.parent = self.parent.astype(np.int64)

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def mask(self, name: str) -> np.ndarray:
        return self.name == self._ids(name)

    def layer_mask(self, layer: str, column: str = "name") -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(getattr(self, column), ids)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def sum(self, name: str, col: str) -> float:
        return float(getattr(self, col)[self.mask(name)].sum())

    def redone_levels(self, outer: str, inner: str) -> tuple[float, float]:
        """Levels of all but the last ``inner`` call under each ``outer`` span."""
        redone = total = 0.0
        inner_idx = np.flatnonzero(self.mask(inner))
        for i in np.flatnonzero(self.mask(outer)):
            kids = inner_idx[self.parent[inner_idx] == i]
            levels = self.a[kids[np.argsort(self.start[kids])]]
            total += float(levels.sum())
            redone += float(levels[:-1].sum())
        return redone, total


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(sp: Spans) -> dict:
    sb, rk, er = "models.sample_broods", "simulate.run_killed_brw", "simulate.estimate_rho"
    rekey, G = "rng.StreamPool.rekey", "simulate.simulate_G"
    lhs, rhs = "spine.tree_many_to_one_lhs", "spine.spine_many_to_one_rhs"
    dp, cw, bm = "oracle.exact_path_survival", "oracle.exact_corridor_walk", \
        "mogulskii.brownian_corridor_mc"
    sim_broods = sp.mask(sb) & sp.layer_mask("simulate", "pname")
    walk_broods = sp.mask(sb) & (sp.pname == sp._ids(rk))
    redone, dp_levels = sp.redone_levels("oracle.rho_limit", dp)
    cw_levels = sp.sum(cw, "a")
    m = {
        "rng.rekey.calls": sp.calls(rekey),
        "rng.rekey.us_per_call": _per(sp.total(rekey), sp.calls(rekey), 1e6),
        "models.sample_broods.calls": sp.calls(sb),
        "models.sample_broods.us_per_call": _per(sp.total(sb), sp.calls(sb), 1e6),
        "models.sample_broods.children": sp.sum(sb, "b"),
        "models.sample_broods.ns_per_child": _per(sp.total(sb), sp.sum(sb, "b"), 1e9),
        "simulate.replicates": sp.sum(er, "a"),
        "simulate.us_per_replicate": _per(sp.total(er), sp.sum(er, "a"), 1e6),
        "simulate.particles": float(sp.a[sim_broods].sum()),
        "simulate.peak_population": float(max(sp.a[sim_broods].max(initial=0.0),
                                              sp.b[sp.mask(rk)].max(initial=0.0))),
        "simulate.cap_hits": sp.sum(er, "b"),
        "simulate.kept_ratio": _per(sp.sum(rk, "a"), float(sp.b[walk_broods].sum())),
        "simulate.estimate_M_kappa_s": sp.total("simulate.estimate_M_kappa"),
        "simulate.simulate_G_s": sp.total(G),
        "simulate.simulate_G.nonempty_ratio": _per(sp.sum(G, "b"), sp.sum(G, "a")),
        "spine.tree_lhs.replicates": sp.sum(lhs, "a"),
        "spine.tree_lhs.us_per_replicate": _per(sp.total(lhs), sp.sum(lhs, "a"), 1e6),
        "spine.rhs.path_steps": sp.sum(rhs, "b"),
        "spine.rhs.ns_per_path_step": _per(sp.total(rhs), sp.sum(rhs, "b"), 1e9),
        "spine.rhs.paths_per_s": _per(sp.sum(rhs, "a"), sp.total(rhs)),
        "spine.exact_enum_s": sp.total("spine.expected_leaf_sum_exact"),
        "cli.write_csv_s": sp.total("cli.write_csv"),
        "oracle.path_dp.calls": sp.calls(dp),
        "oracle.path_dp.levels": sp.sum(dp, "a"),
        "oracle.path_dp.us_per_level": _per(sp.total(dp), sp.sum(dp, "a"), 1e6),
        "oracle.path_dp.states": sp.sum(dp, "b"),
        "oracle.path_dp.ns_per_state": _per(sp.total(dp), sp.sum(dp, "b"), 1e9),
        "oracle.rho_limit.redone_level_ratio": _per(redone, dp_levels),
        "oracle.corridor_dp.calls": sp.calls(cw),
        "oracle.corridor_dp.levels": cw_levels,
        "oracle.corridor_dp.us_per_level": _per(sp.total(cw), cw_levels, 1e6),
        "oracle.corridor_dp.states": sp.sum(cw, "b"),
        "oracle.corridor_dp.ns_per_state": _per(sp.total(cw), sp.sum(cw, "b"), 1e9),
        "oracle.corridor_dp.repeat_ratio": _per(float(sp.a[sp.mask(cw) & (sp.c > 0)].sum()),
                                                cw_levels),
        "mogulskii.triangular_experiment_s": sp.total("mogulskii.triangular_experiment"),
        "mogulskii.bm.path_steps": sp.sum(bm, "a"),
        "mogulskii.bm.ns_per_path_step": _per(sp.total(bm), sp.sum(bm, "a"), 1e9),
        "analysis.solve_tstar_s": sp.total("analysis.solve_tstar"),
        "transform.make_vlaw_s": sp.total("transform.make_vlaw"),
        "spine.make_spine_s": sp.total("spine.make_spine"),
        "mogulskii.corridor_constant_s": sp.total("mogulskii.corridor_constant"),
        "trace.spans": float(sp.name.size),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sp.self[sp.layer_mask(layer)].sum())
    return m


# ---------------------------------------------------------------------------
# run record

def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "cpu_count": NPROC, "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "jsonschema": metadata.version("jsonschema"),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# entry point

def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run: set-up probes (untraced runs only), then iterations until
    the next one would overrun ``seconds``."""
    started = time.perf_counter()
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    (wdir / "tmp").mkdir(parents=True)
    spec = make_spec(workload, seed, wdir)
    notes: list[str] = []
    attempted = failed = 0
    setups = []
    iters, passes = [], []
    with Speed() as speed:
        if not trace:
            for k in range(SETUP_PROBES):
                took = setup_probe(spec, wdir, k, speed)
                attempted += 1
                if math.isfinite(took):
                    setups.append(took)
                else:
                    failed += 1
                    notes.append("set-up probe failed")
        while True:
            t0 = time.perf_counter()
            spans: list[Path] = []
            it = iteration(spec, wdir, len(iters), trace, notes, spans, speed)
            iters.append(it)
            attempted += it.attempted
            failed += it.failed
            if trace and all(p.exists() for p in spans):
                passes.append(layer_metrics(Spans(spans)))
            took = time.perf_counter() - t0
            if time.perf_counter() - started + took > seconds:
                break
    wall, wall_1t = _median([i.wall for i in iters]), _median([i.wall_1t for i in iters])
    if trace:
        passes = passes or [layer_metrics(Spans([]))]
        metrics = {key: _median([p[key] for p in passes]) for key in passes[0]}
        metrics["cli.rows"] = float(_median([i.rows for i in iters]))
        metrics["cli.parallel_eff"] = _per(wall_1t, NPROC * wall)
        metrics["trace.overhead_frac"] = _per(_median([i.traced for i in iters]), wall_1t) - 1.0
    else:
        metrics = {"wall_s": wall, "wall_1t_s": wall_1t, "setup_s": _median(setups),
                   "peak_rss_mb": _median([i.rss_mb for i in iters])}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "iterations": len(iters), "notes": notes,
            "samples": {"wall_s": [i.wall for i in iters],
                        "wall_1t_s": [i.wall_1t for i in iters], "setup_s": setups,
                        "raw_wall_s": [i.raw_wall for i in iters],
                        "raw_wall_1t_s": [i.raw_wall_1t for i in iters],
                        "speed_factor": speed.factors}}


def report(workload: str, seed: int, seconds: int, trace: int, declared: dict) -> dict:
    """Measure, print the human-readable record, return the result object."""
    record = run_record(workload, seed, seconds, trace)
    print("# run " + json.dumps(record, sort_keys=True))
    res = measure(workload, seed, seconds, bool(trace))
    kind = "per_layer" if trace else "end_to_end"
    units = declared[kind]
    missing = set(units) ^ set(res["metrics"])
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: {sorted(missing)}")
    k = res["iterations"]
    print(f"# {kind} metrics, {workload}: median of {k} iteration(s)"
          + ("" if trace else f"; setup_s median of {len(res['samples']['setup_s'])} probes"))
    for name, unit in units.items():
        line = f"{name} = {res['metrics'][name]:.6g} {unit}"
        if name in BASELINE:
            line += f"   [re-anchor baseline {BASELINE[name]} {unit}]"
        if name in COMPUTED:
            line += "   [computed from window bounds]"
        print(line)
    if not trace:
        for name, xs in res["samples"].items():
            print(f"# {name} samples: {' '.join(f'{x:.4f}' for x in xs)}")
    frac = _per(res["failed"], res["attempted"])
    print(f"failed_frac = {frac:.6g} ({res['failed']}/{res['attempted']} operations)")
    for note in sorted(set(res["notes"])):
        print(f"# FAILED: {note}")
    values = {name: res["metrics"][name] for name in units}
    measured = all(math.isfinite(v) for v in values.values())
    if not measured:
        print("# some metrics could not be measured; they are reported as null")
    return {"correct": res["failed"] == 0 and res["attempted"] > 0 and measured,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": units[name]}
                        for name, v in values.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kbrw" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'kbrw'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, args.trace, declared)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                part = report(workload, args.seed, args.seconds, trace, declared)
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{workload}.{k}": v
                                          for k, v in part["metrics"].items()})
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
