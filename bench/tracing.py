"""Span recording around the package's public functions, from outside it.

``install()`` replaces every public module-level function of the traced
layers, plus a few public methods, with a wrapper that records one span:
name, start, end and parent span.  Names bound elsewhere by
``from ... import`` are rebound wherever they are looked up (``cli.solve_tstar``
is the same wrapper as ``analysis.solve_tstar``).  A handful of spans also
record up to three work counts, taken from the call's arguments or result
after the span has ended.  Spans stay in memory in flat arrays and are
written once, by ``Tracer.dump``, when the workload has finished.

Tracing must not change results: wrappers pass arguments and results
through untouched, and a counter that cannot be read is recorded as NaN.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

# stats and errors are too small to be worth a span
LAYERS = ("cli", "analysis", "transform", "rng", "models", "simulate",
          "oracle", "mogulskii", "spine")
METHODS = (("rng", "StreamPool", "rekey"),
           ("mogulskii", "CorridorSpec", "from_functions"),
           ("oracle", "LatticeLaw", "from_law"))
_NUDGE = 1e-9   # the oracle's barrier nudge, for the computed window sizes


def _bound(sig, args, kwargs) -> dict:
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _path_dp_counts(sig, args, kwargs, result, seen):
    """(levels, states) of exact_path_survival, states computed from the windows."""
    a = _bound(sig, args, kwargs)
    n, ll = int(a["n"]), a["ll"]
    if a.get("v_slope") is not None:
        prof = a["profile"]
        c = (prof.psi_tstar - a["v_slope"]) / prof.t_star
    else:
        c = float(a["u_line"])
    if n <= 0:
        return 0, 0, 0
    j = np.arange(n, dtype=np.int64)
    lo = np.maximum(np.ceil(c * j - _NUDGE).astype(np.int64), j * min(ll.step_values))
    lo[0] = 0
    hi = j * max(ll.step_values)
    return n, int(np.maximum(hi - lo + 1, 0).sum()), 0


def _corridor_dp_counts(sig, args, kwargs, result, seen):
    """(levels, states, 1 if an earlier call had the same steps and bounds)."""
    a = _bound(sig, args, kwargs)
    lower = np.ascontiguousarray(a["lower"], dtype=np.int64)
    upper = np.ascontiguousarray(a["upper"], dtype=np.int64)
    h = hashlib.sha1()
    for x in (a["step_values"], a["step_probs"]):
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    h.update(lower.tobytes())
    h.update(upper.tobytes())
    key = h.digest()
    repeat = key in seen
    seen.add(key)
    return lower.size, int(np.maximum(upper - lower + 1, 0).sum()), int(repeat)


def _args(*names):
    """Counts read from named arguments (a product when names are joined by '*')."""
    def hook(sig, args, kwargs, result, seen):
        a = _bound(sig, args, kwargs)
        return tuple(math.prod(int(a[k]) for k in name.split("*")) for name in names)
    return hook


# span name -> hook(sig, args, kwargs, result, seen) -> up to three counts
COUNTERS = {
    "models.sample_broods": lambda s, a, k, r, _: (len(r[0]), len(r[1])),
    "simulate.run_killed_brw": lambda s, a, k, r, _: (sum(r[1][1:]), max(r[1])),
    "simulate.estimate_rho": lambda s, a, k, r, _: (r.replicates, r.cap_hits),
    "simulate.simulate_G": lambda s, a, k, r, _: (len(r), int(np.count_nonzero(r))),
    "spine.tree_many_to_one_lhs": _args("replicates"),
    "spine.spine_many_to_one_rhs": _args("replicates", "replicates*n"),
    "mogulskii.brownian_corridor_mc": _args("paths*steps"),
    "oracle.exact_path_survival": _path_dp_counts,
    "oracle.exact_corridor_walk": _corridor_dp_counts,
}


class Tracer:
    """In-memory span table for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = (array("d"), array("d"), array("d"))
        self._stack = [-1]
        self._seen: set = set()

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter
        stack, ids, starts, ends, parents = (self._stack, self.name_id, self.start,
                                             self.end, self.parent)
        ca, cb, cc = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(math.nan)
            ca.append(0.0)
            cb.append(0.0)
            cc.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    vals = hook(sig, args, kwargs, result, self._seen)
                except Exception:  # a counter must never break the traced call
                    vals = (math.nan,) * 3
                for col, v in zip((ca, cb, cc), vals):
                    col[idx] = float(v)
            return result

        traced.__bench_traced__ = True
        return traced

    def dump(self, path: str, workload: str, run_id: str) -> None:
        """Write the span table.

        Workload and run id are stored once per file: every span in it
        shares them."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 count_a=np.frombuffer(self.counts[0], dtype=np.float64),
                 count_b=np.frombuffer(self.counts[1], dtype=np.float64),
                 count_c=np.frombuffer(self.counts[2], dtype=np.float64),
                 workload=np.array(workload), run_id=np.array(run_id))


def _rebind(original, replacement) -> None:
    """Point every kbrw module attribute that holds ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kbrw" or mod_name.startswith("kbrw.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install() -> Tracer:
    """Import the traced layers and wrap their public functions."""
    import importlib
    tracer = Tracer()
    for layer in LAYERS:
        mod = importlib.import_module(f"kbrw.{layer}")
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or getattr(obj, "__bench_traced__", False)):
                continue
            _rebind(obj, tracer.wrap(f"{layer}.{name}", obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"kbrw.{layer}"), cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:     # renamed or removed by a later change: nothing to time
            continue
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}",
                                                       raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", raw))
    return tracer
