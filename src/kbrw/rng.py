"""Counter-based random streams.

Every stochastic routine draws from a Philox stream whose 128-bit key is
(seed, index).  What the index counts depends on the routine:

* the killed-walk loops (``estimate_rho``, ``estimate_M_kappa``,
  ``simulate_G`` and the random-topology tree route of the many-to-one
  check) give replicate i the stream (seed, i);
* the vectorised routines (the fixed-topology tree route, spine sampling
  and both corridor Monte Carlo estimators) draw a whole chunk of
  replicates from the stream (seed, chunk index), through
  ``stats.chunked_mean``; each keeps its chunk size as a module constant,
  because that size decides which stream a replicate reads;
* the CLI gives CSV row r the seed ``derive_seed(config seed, r)``.

Streams therefore do not depend on scheduling: the same (seed, index)
yields the same draws whether work runs serially, in another order, or
across processes.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """Fresh generator for one (seed, index) pair."""
    key = ((int(index) & _MASK64) << 64) | (int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for a child experiment (e.g. one CSV row)."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


class StreamPool:
    """Reusable generator that can be rekeyed per replicate.

    Produces bit-identical output to ``replicate_stream(seed, index)`` while
    avoiding the ~20us Philox construction cost in hot replicate loops.
    Not safe to share across threads; each worker owns one.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)

    def rekey(self, index: int) -> np.random.Generator:
        st = self._bitgen.state
        st["state"]["key"][0] = self._seed
        st["state"]["key"][1] = int(index) & _MASK64
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4  # discard buffered words from the previous key
        st["has_uint32"] = 0  # and the spare half-word of a 32-bit draw
        st["uinteger"] = 0
        self._bitgen.state = st
        return self.generator
