"""Small-deviation corridor asymptotics and their finite-n experiments.

Three pieces: the limiting corridor constant
``-(pi^2 sigma^2 / 2) * integral dt / (g2(t) - g1(t))^2``, exact for the
stored piecewise-linear corridor; the eigenfunction series for the
probability that a Brownian motion stays in a strip and ends in a window;
and triangular-array experiments that push corridor probabilities toward
the limit constant: exact by the integer-walk DP for families on a lattice
frame, otherwise sampled one level at a time over chunks of paths.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from . import models, oracle
from .models import BOUNDARY_TOL, DiscreteFinite
from .spine import SpineLaw
from .stats import chunked_mean, closed_cdf, replicate_chunks

SERIES_TOL = 1e-14      # series truncation for the strip probability
N_SAMPLES = 1024        # times at which from_functions samples a boundary
# paths per random stream in the two Monte Carlo estimators; changing either
# changes which stream a path reads, and so every estimate
_BM_CHUNK = 20_000
_MC_CHUNK = 65_536


@dataclass(frozen=True)
class CorridorSpec:
    """Continuous corridor (g1, g2) on [0,1] plus the diffusion scale.

    Both boundaries are stored at the times ``ts`` and are linear between
    them.  The CLI stores a configured corridor at the union of its
    boundaries' breakpoints, so the stored polyline is the configured one;
    ``from_functions`` samples callables at N_SAMPLES equally spaced times,
    where continuity is all the limit statement needs and an affine
    boundary is its own interpolant.
    """

    ts: tuple[float, ...]
    g1_samples: tuple[float, ...]
    g2_samples: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        g1 = np.asarray(self.g1_samples)
        g2 = np.asarray(self.g2_samples)
        if not (g1[0] < 0.0 < g2[0]):
            raise ValueError("need g1(0) < 0 < g2(0)")
        with np.errstate(over="ignore"):
            w = g2 - g1
        if not np.all(w > 0.0):
            raise ValueError("corridor pinches: g2 - g1 must stay positive")
        if not np.all(np.isfinite(w)):
            raise ValueError("corridor too wide: g2 - g1 overflows a double")

    @classmethod
    def from_functions(cls, g1, g2, sigma: float) -> "CorridorSpec":
        ts = np.linspace(0.0, 1.0, N_SAMPLES)
        return cls(tuple(ts), tuple(float(g1(t)) for t in ts),
                   tuple(float(g2(t)) for t in ts), float(sigma))

    def g1(self, t):
        return np.interp(t, self.ts, self.g1_samples)

    def g2(self, t):
        return np.interp(t, self.ts, self.g2_samples)


def corridor_constant(spec: CorridorSpec) -> float:
    """The (negative) limit of (a_n^2/n) log P{corridor event}.

    The stored width is linear between samples, and a segment of length dt
    whose width runs from w0 to w1 contributes exactly dt/(w0*w1) to
    integral dt / width^2.
    """
    w = np.subtract(spec.g2_samples, spec.g1_samples)
    # w0*w1 overflows only where dt/(w0*w1) is below the least normal double
    with np.errstate(over="ignore"):
        integral = math.fsum(np.diff(spec.ts) / (w[:-1] * w[1:]))
    return -0.5 * math.pi ** 2 * spec.sigma ** 2 * integral


def _check_strip(a: float, b: float, c: float, d: float) -> None:
    """Refuse a strip (a, b) that misses 0 or an end window [c, d] outside it
    or empty; NaN fails every comparison."""
    if not a < 0.0 < b:
        raise ValueError("need a < 0 < b")
    if not (a <= c <= d <= b):
        raise ValueError("need a <= c <= d <= b")


def ito_mckean_f(a: float, b: float, c: float, d: float) -> float:
    """P{a <= W_t <= b for t <= 1 and c <= W_1 <= d} for standard BM.

    Eigenfunction series over the strip, summed until the term envelope
    2/(n pi) * exp(-n^2 pi^2 / (2 L^2)) * 2 falls below 1e-14; the inner
    integral of each sine mode is taken in closed form.
    """
    _check_strip(a, b, c, d)
    L = b - a
    total = 0.0
    n = 1
    while True:
        decay = math.exp(-n * n * math.pi ** 2 / (2.0 * L * L))
        envelope = 4.0 / (n * math.pi) * decay
        total += (2.0 / (n * math.pi) * decay
                  * math.sin(n * math.pi * abs(a) / L)
                  * (math.cos(n * math.pi * (c - a) / L) - math.cos(n * math.pi * (d - a) / L)))
        if envelope < SERIES_TOL:
            return total
        n += 1
        if n > 10 ** 6:
            raise ArithmeticError("strip series failed to converge")


def brownian_corridor_mc(a: float, b: float, c: float, d: float,
                         paths: int = 1_000_000, steps: int = 10_000,
                         seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for the strip probability, with bridge correction.

    Pure discrete monitoring misses excursions between grid points and
    overstates the staying probability by O(sqrt(dt)) -- more than 3 sigma
    at any serious path budget -- so each step multiplies the survival
    weight by the exact Brownian-bridge non-crossing probability of each
    boundary.  The residual bias (one-step double crossings) is O(e^{-2L^2/dt}).
    No bias shows at 10 or 40 steps: twelve seeds of 200k paths each gave
    pooled z-scores of -0.5 and +1.1 against ``ito_mckean_f``, so the
    default 10^4 steps buy no accuracy over about 20.

    The factor 1 - exp(-2 g0 g1 / dt) is computed only on live paths near a
    boundary; every path still draws its normal at every step, so the
    estimate is the full product's bit for bit.  A dead path (w = 0) stays
    at 0 under any factor in [0, 1].  A path is far when both computed distances
    b - x and x - a are at least s = sqrt(20 dt) (1 + 1e-3) at both ends of
    the step, and then both its factors are exactly 1.0: the computed s
    carries at most four roundings and the computed e = ((-2 g0) g1) / dt
    two more, each of relative size at most 2**-53, so
    e <= -40 (1 + 1e-3)**2 (1 - 2**-49) < -40, or e = -inf on overflow.
    So exp(e) < 2**-54, half the spacing of doubles below 1, and 1 - exp(e)
    rounds to 1.0; no bound on |a| or |b| enters.  Dead paths leave the live
    arrays once they are more than 1/8 of them, and a chunk whose paths are
    all dead stops drawing: no later draw of its stream would be read.
    """
    _check_strip(a, b, c, d)
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"need an integer steps >= 1, got {steps!r}")
    dt = 1.0 / steps
    sdt = math.sqrt(dt)
    far = math.sqrt(20.0 * dt) * (1.0 + 1e-3)

    def draw(rng, k):
        z = np.empty(k)
        # the chunk index, position and weight of each live path, and its
        # distance to the nearer boundary; x1, gap1 and tmp are scratch
        live, x, w = np.arange(k), np.zeros(k), np.ones(k)
        gap = np.minimum(b - x, x - a)
        x1, gap1, tmp = np.empty(k), np.empty(k), np.empty(k)
        dead = 0    # entries of w that are 0 but not yet dropped
        for _ in range(steps):
            rng.standard_normal(out=z)
            np.multiply(z[live] if live.size < k else z, sdt, out=x1)
            x1 += x
            np.subtract(b, x1, out=gap1)
            np.subtract(x1, a, out=tmp)
            np.minimum(gap1, tmp, out=gap1)
            np.minimum(gap, gap1, out=tmp)
            near = (tmp < far).nonzero()[0]
            near = near[w[near] > 0.0]
            if near.size:
                x0n, x1n = x[near], x1[near]
                # 1 - exp(-2 g0 g1 / dt): the bridge's chance to miss each boundary
                e = -2.0 * np.maximum(np.array((b - x0n, x0n - a)), 0.0)
                e *= np.maximum(np.array((b - x1n, x1n - a)), 0.0)
                e /= dt
                p = 1.0 - np.exp(e)
                wn = w[near] * (p[0] * p[1])
                w[near] = wn
                dead += near.size - np.count_nonzero(wn)
                if dead == w.size:
                    return np.zeros(k)
                if 8 * dead > w.size:
                    # compact in place: the chunk's arrays never grow
                    keep = np.flatnonzero(w)
                    for v in (live, x1, w, gap1):
                        v[:keep.size] = v[keep]
                    live, x, x1, w, gap, gap1, tmp = (
                        v[:keep.size] for v in (live, x, x1, w, gap, gap1, tmp))
                    dead = 0
            x, x1, gap, gap1 = x1, x, gap1, gap
        out = np.zeros(k)
        out[live] = w * ((c <= x) & (x <= d))
        return out

    return chunked_mean(seed, paths, _BM_CHUNK, draw)


# ---------------------------------------------------------------------------
# triangular-array experiments

def r_n(n: int) -> int:
    """Child-count cutoff floor(exp(n^(1/4))) used by the conditioned family."""
    return int(math.floor(math.exp(n ** 0.25)))


@dataclass(frozen=True)
class ArraySpec:
    """A per-n family of i.i.d. steps for the triangular corridor limit.

    Finite families hold one atom table (s, nu, p): step s, with the child
    count nu attached to it, has probability p.  With ``condition_nu`` the
    step at size n is conditioned on nu <= r_n.  Each step adds an
    independent N(0, noise^2) part, as a Gaussian spine does.  The family's
    ``frame`` is its steps' own ``models.lattice_frame`` (c, h), h > 0: every
    step is c + h k with k an integer, so S_i = i c + h K_i for an integer
    walk K and the corridor probability is exact.  Steps on no frame, and
    every family with noise, are sampled.

    ``lattice`` families must have a frame and are never conditioned.
    ``spine`` families take the tilted step of a centered law; on product
    laws the count is independent of the step, so conditioning only
    truncates a vanishing tail.
    """

    atoms: tuple[np.ndarray, np.ndarray, np.ndarray]
    _: KW_ONLY
    condition_nu: bool = False
    noise: float = 0.0

    @cached_property
    def frame(self) -> tuple[float, float] | None:
        return None if self.noise > 0 else models.lattice_frame(self.atoms[0])

    @classmethod
    def lattice(cls, atoms) -> "ArraySpec":
        step = DiscreteFinite(tuple(atoms))
        arr = cls((step.values, np.zeros(len(step.atoms), dtype=np.int64), step.probs))
        if arr.frame is None:
            raise ValueError("lattice family needs step values on a lattice a + h Z")
        return arr

    @classmethod
    def lazy_walk(cls) -> "ArraySpec":
        return cls.lattice(((-1, 1 / 3), (0, 1 / 3), (1, 1 / 3)))

    @classmethod
    def from_spine(cls, sp: SpineLaw, condition_nu: bool = True) -> "ArraySpec":
        return cls((sp.s_values, sp.nu_values, sp.probs),
                   condition_nu=condition_nu, noise=sp.noise)

    def a_n(self, n: int) -> float:
        return float(np.cbrt(n))

    def step_pmf_at(self, n: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(values, probs, nu_tail) of X_1^{(n)}; values are sorted walk increments."""
        s, nu, p = self.atoms
        tail = 0.0
        if self.condition_nu:
            keep = nu <= r_n(n)
            if not keep.any():
                raise ValueError(f"conditioning on nu <= {r_n(n)} removes all mass at n={n}")
            tail = float(p[~keep].sum())
            p = p[keep] / p[keep].sum()
            s = s[keep]
        values, inverse = np.unique(s, return_inverse=True)
        probs = np.zeros(values.size)
        np.add.at(probs, inverse, p)
        return values, probs, tail

    def witnesses_at(self, n: int) -> dict:
        """Closed-form mean, scaled mean, variance and removed nu-tail mass at size n."""
        values, probs, tail = self.step_pmf_at(n)
        mean = float(np.dot(probs, values))
        var = float(np.dot(probs, (values - mean) ** 2)) + self.noise ** 2
        a = self.a_n(n)
        return {"mean": mean, "mean_over_an_per_n": mean * n / a,
                "var": var, "nu_tail": tail}


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    a_n: float
    prob: float
    scaled_log_prob: float
    target: float
    gap: float
    method: str
    witnesses: dict
    endpoint_prob: float | None = None
    endpoint_scaled: float | None = None


def default_endpoint_b(spec: CorridorSpec) -> float:
    """Mid-range endpoint window height; any positive value is admissible."""
    return (float(spec.g2(1.0)) - float(spec.g1(1.0))) / 4.0


def _corridor_prob(arr: ArraySpec, spec: CorridorSpec, n: int,
                   endpoint_b: float | None, replicates: int, seed: int):
    """(prob, endpoint_prob) of the corridor at size n.

    On the frame (c, h), S_i in [lo, hi] iff K_i = (S_i - i c)/h lies between
    (lo - i c)/h and (hi - i c)/h; the integer bounds are chosen inward
    (ceil lower, floor upper) with a BOUNDARY_TOL snap so exact lattice hits
    stay inclusive, the endpoint window [edge, hi_n] maps the same way, and
    the integer-walk DP is exact.  Without a frame ``replicates`` paths are
    sampled level by level, _MC_CHUNK per stream, keeping each path's partial
    sum and whether it has stayed inside, hits within BOUNDARY_TOL included.
    """
    a = arr.a_n(n)
    i = np.arange(1, n + 1)
    lo, hi = a * spec.g1(i / n), a * spec.g2(i / n)
    edge = None if endpoint_b is None else a * (float(spec.g2(1.0)) - endpoint_b)
    values, probs, _ = arr.step_pmf_at(n)
    if (frame := arr.frame) is not None:
        c, h = frame

        def bounds(lo, hi, i):
            k = (np.ceil((lo - i * c) / h - BOUNDARY_TOL),
                 np.floor((hi - i * c) / h + BOUNDARY_TOL))
            if not all(np.all(np.abs(b) < 2.0 ** 63) for b in k):
                raise ValueError(f"the corridor at n={n} has lattice bounds "
                                 "beyond the int64 range")
            return tuple(b.astype(np.int64) for b in k)

        endpoint = None if edge is None else tuple(map(int, bounds(edge, hi[-1], n)))
        return oracle.exact_corridor_walk(np.rint((values - c) / h).astype(np.int64), probs,
                                          *bounds(lo, hi, i), endpoint=endpoint)
    cdf = closed_cdf(probs)
    hits = end_hits = 0
    for _, k, rng in replicate_chunks(seed, replicates, _MC_CHUNK):
        s, ok = np.zeros(k), np.ones(k, dtype=bool)
        for j in range(n):
            s += models._draw_atoms(cdf, values, arr.noise, [k], [rng])[1]
            ok &= (s >= lo[j] - BOUNDARY_TOL) & (s <= hi[j] + BOUNDARY_TOL)
        hits += int(ok.sum())
        if edge is not None:
            end_hits += int((ok & (s >= edge - BOUNDARY_TOL)).sum())
    return hits / replicates, None if edge is None else end_hits / replicates


def triangular_experiment(arr: ArraySpec, spec: CorridorSpec, n_list,
                          endpoint_b: float | None = None,
                          mc_replicates: int = 1_000_000,
                          seed: int = 0) -> list[ExperimentRow]:
    """Finite-n corridor probabilities against the limiting constant.

    Families on a frame (every ``lattice`` family, and a spine exactly when
    its own steps are) are evaluated exactly by the corridor DP; otherwise
    the probability is sampled with ``mc_replicates`` paths.
    Each row reports (a_n^2/n) log P next to the corridor constant and the
    closed-form witnesses of ``ArraySpec.witnesses_at`` (vanishing scaled
    mean, variance convergence); a scaled mean outside its regime only
    warns, the experiment still runs.
    """
    target = corridor_constant(spec)
    rows = []
    for n in sorted(n_list):
        wit = arr.witnesses_at(n)
        if abs(wit["mean_over_an_per_n"]) > 1.0:
            warnings.warn(f"array mean at n={n} is not small against a_n/n "
                          f"(witness {wit['mean_over_an_per_n']:.3g}); "
                          "the corridor limit may not apply", stacklevel=2)
        p, pe = _corridor_prob(arr, spec, n, endpoint_b, mc_replicates, seed)
        method = "mc" if arr.frame is None else "dp"
        a = arr.a_n(n)
        scaled = (a * a / n) * math.log(p) if p > 0.0 else -math.inf
        scaled_e = None
        if pe is not None:
            scaled_e = (a * a / n) * math.log(pe) if pe > 0.0 else -math.inf
        rows.append(ExperimentRow(n=n, a_n=a, prob=p, scaled_log_prob=scaled,
                                  target=target, gap=abs(scaled - target),
                                  method=method, witnesses=wit,
                                  endpoint_prob=pe, endpoint_scaled=scaled_e))
    return rows


__all__ = [
    "CorridorSpec", "corridor_constant", "ito_mckean_f", "brownian_corridor_mc",
    "ArraySpec", "ExperimentRow", "triangular_experiment", "default_endpoint_b",
    "r_n", "SERIES_TOL",
]
