"""Self-tests of the benchmark itself (not of the package).

    python3 bench/selftest.py

Run from the repository root; takes about 15 seconds.  Checks that the
names in BENCHMARK.json are well formed and match what run.py reports, that
a perturbed output is counted as a failed operation, that run.py keeps
to at most nproc worker processes, that span self times add up, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

import checks
import run
import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
METRIC_KEYS = {"name", "unit", "better"}


def _bench() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Names(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench = _bench()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), METRIC_KEYS | {"bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertLessEqual(set(m), METRIC_KEYS | {"bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))
        for path in bench["paths"]:
            self.assertRegex(path, r"[A-Za-z0-9_.\-/]{1,200}\Z")
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))

    def test_reported_names_match_declared(self):
        bench = _bench()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        per_layer = set(run.layer_metrics(run.Spans([])))
        per_layer |= {"cli.rows", "cli.parallel_eff", "trace.overhead_frac"}
        self.assertEqual(per_layer, {m["name"] for m in bench["per_layer"]})
        self.assertEqual({"wall_s", "wall_1t_s", "setup_s", "peak_rss_mb"},
                         {m["name"] for m in bench["end_to_end"]})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class PerturbedOutputs(unittest.TestCase):
    """A changed value or byte must show up as a failed operation."""

    def setUp(self):
        self.wdir = run.WORK / "selftest"
        shutil.rmtree(self.wdir, ignore_errors=True)
        (self.wdir / "tmp").mkdir(parents=True)
        self.spec = run.make_spec("survival-mc", 5, self.wdir)
        self.real_run_child = run.run_child

    def tearDown(self):
        run.run_child = self.real_run_child

    def _iterate(self, tamper=None) -> run.Iteration:
        """One survival-mc iteration; ``tamper(csv_text, threads)`` edits an output."""
        def run_child(argv, wdir, tag):
            child = self.real_run_child(argv, wdir, tag)
            if tamper is not None and "--out" in argv:
                out = Path(argv[argv.index("--out") + 1])
                threads = int(argv[argv.index("--threads") + 1])
                out.write_text(tamper(out.read_text(), threads))
            return child
        run.run_child = run_child
        with run.Speed() as speed:
            return run.iteration(self.spec, self.wdir, 0, False, [], [], speed)

    def test_survival_clean_then_perturbed(self):
        clean = self._iterate()
        self.assertEqual(clean.failed, 0)
        self.assertEqual(clean.attempted, 2 * 2 * len(checks.SURVIVAL_ORACLE))

        def bump_rho(text, threads):
            if threads != run.NPROC:
                return text
            lines = text.splitlines(keepends=True)
            i = next(i for i, ln in enumerate(lines) if ln.startswith("oracle,"))
            cols = lines[i].split(",")
            cols[4] = _fmt(float(cols[4]) * 1.001)
            lines[i] = ",".join(cols)
            return "".join(lines)
        # the wrong rho fails its check, and the 1-thread CSV no longer matches it
        self.assertEqual(self._iterate(bump_rho).failed, 2)

        def flip_byte(text, threads):
            if threads != 1 or run.NPROC == 1:
                return text
            i = text.index("\nmc,") + 20
            return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
        self.assertEqual(self._iterate(flip_byte).failed, 0 if run.NPROC == 1 else 1)

    def test_pemantle_rho(self):
        rows = [f"{_fmt(e)},0,1024,{_fmt(r)},0,0" for e, r in checks.PEMANTLE_RHO.items()]
        text = "# schema\neps_U,eps_V,n_used,rho_oracle,sqrt_eps_times_log_rho,beta_target\n"
        self.assertEqual(checks.check_pemantle(text + "\n".join(rows))[1], 0)
        # the 1 - Q precision floor (2.2e-16 absolute) passes; a 0.1% error does not
        floor = [r.replace(_fmt(checks.PEMANTLE_RHO[0.003]),
                           _fmt(checks.PEMANTLE_RHO[0.003] - 2.2e-16)) for r in rows]
        self.assertEqual(checks.check_pemantle(text + "\n".join(floor))[1], 0)
        off = [r.replace(_fmt(checks.PEMANTLE_RHO[0.003]),
                         _fmt(checks.PEMANTLE_RHO[0.003] * 1.001)) for r in rows]
        self.assertEqual(checks.check_pemantle(text + "\n".join(off))[1], 1)

    def test_library_results(self):
        corridor = {"ito_mckean_f": checks.ITO_MCKEAN_STRIP, "bm_mean": 0.3705,
                    "bm_stderr": 0.0034}
        self.assertEqual(checks.check_corridor_lib(corridor)[1], 0)
        self.assertEqual(checks.check_corridor_lib(dict(corridor, bm_mean=0.35))[1], 1)
        self.assertEqual(checks.check_tree({})[1], 5)


class WorkerCount(unittest.TestCase):
    def test_at_most_nproc_workers(self):
        self.assertTrue(all(1 <= t <= run.NPROC for t in run.THREADS))
        wdir = run.WORK / "selftest-workers"
        shutil.rmtree(wdir, ignore_errors=True)
        (wdir / "tmp").mkdir(parents=True)
        spec = run.make_spec("survival-mc", 6, wdir)
        token = spec["config"].encode()
        peak, done = [0], threading.Event()

        def watch():
            # pool workers are forked, so they share the CLI's command line
            while not done.is_set():
                n = 0
                for pid in filter(str.isdigit, os.listdir("/proc")):
                    try:
                        with open(f"/proc/{pid}/cmdline", "rb") as fh:
                            n += token in fh.read()
                    except OSError:
                        pass
                peak[0] = max(peak[0], n)
                time.sleep(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            with run.Speed() as speed:
                run.iteration(spec, wdir, 0, False, [], [], speed)
        finally:
            done.set()
            watcher.join(timeout=10)
        self.assertFalse(watcher.is_alive())
        self.assertGreaterEqual(peak[0], min(run.NPROC, 2), "the watcher saw no workers")
        self.assertLessEqual(peak[0] - 1, run.NPROC, "more workers than nproc")


class SelfTime(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("models.inner", lambda: time.sleep(0.02))

        def body():
            inner()
            inner()
            time.sleep(0.01)
        outer = tracer.wrap("cli.outer", body)
        outer()
        path = run.WORK / "selftest-spans.npz"
        run.WORK.mkdir(exist_ok=True)
        tracer.dump(str(path), "none", "selftest")
        sp = run.Spans([path])
        self.assertEqual(sp.calls("models.inner"), 2)
        self.assertEqual(int((sp.pname == sp._ids("cli.outer")).sum()), 2)
        self.assertAlmostEqual(sp.total("cli.outer"),
                               sp.total("models.inner") + float(sp.self[sp.mask("cli.outer")][0]))
        self.assertGreater(float(sp.self[sp.mask("cli.outer")][0]), 0.009)


class SpeedScaling(unittest.TestCase):
    def test_probe_factor_weights_busy_cpus(self):
        speed = run.Speed(cpus=())          # no probe threads
        ref = run.PROBE_REF_S
        # CPU 0 ran the child at half speed; CPU 1 sat idle at full speed
        speed.samples = [(t, 0, 2 * ref, 5) for t in (1.1, 1.2, 1.3)]
        speed.samples += [(t, 1, ref, 0) for t in (1.1, 1.2, 1.3)]
        speed.samples.append((9.0, 0, 10 * ref, 5))          # outside the window
        self.assertAlmostEqual(speed.probe_factor(1.0, 1.4, (0, 1)), 0.5)
        self.assertAlmostEqual(speed.probe_factor(1.0, 1.4, (1,)), 1.0)
        self.assertTrue(run.math.isnan(speed.probe_factor(5.0, 6.0, (0, 1))))

    def test_scaled_times_track_raw_times(self):
        wdir = run.WORK / "selftest-speed"
        shutil.rmtree(wdir, ignore_errors=True)
        (wdir / "tmp").mkdir(parents=True)
        argv = [sys.executable, "-c", "import time; time.sleep(0.3)"]
        with run.Speed() as speed:
            child, factor = speed.timed(argv, wdir, "sleep", run.ONE_CPU)
        self.assertEqual(child.code, 0)
        self.assertGreater(child.wall, 0.3)
        self.assertTrue(0.1 < factor < 10, factor)
        self.assertEqual(speed.factors, [factor])
        self.assertTrue(speed.samples, "the probe threads took no sample")


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package_source(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "survival-mc",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
