"""Counter-based random streams.

Every stochastic routine draws from a Philox stream whose 128-bit key is
(seed, index), and the index counts chunks: a routine splits its
replicates into chunks of a size fixed per routine (a module constant, not
an option, because it decides which stream a replicate reads), and chunk c
reads the stream (seed, c) through ``stats.replicate_chunks``.  A chunk
is the unit of streams; the population routines advance a group of
chunks with shared array operations (``stats.replicate_groups``), but each
chunk still draws only from its own stream, so neither the group size nor
the memory budget that splits groups changes a draw.  The CLI gives CSV
row r the seed ``derive_seed(config seed, r)``.

Streams therefore do not depend on scheduling: the same (seed, index)
yields the same draws whether work runs serially, in another order, or
across processes.

The key is the two 64-bit words (seed mod 2**64, index mod 2**64), low word
first: the integer key (index << 64) | seed.  It reaches ``Philox`` as a
seed sequence whose state is those two words, so building a stream draws
no entropy from the operating system.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence type that hands ``Philox`` a fixed key.

    Built at the first stream, so that importing the package does not import
    ``numpy.random`` (about 10 ms), which the exact routes never use.
    """
    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: tuple[int, int]):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is two uint64 words, not {n_words} {dtype}")
            return np.array(self.words, dtype=np.uint64)

    return KeySequence


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """Fresh generator for one (seed, index) pair."""
    key = _key_sequence()((int(seed) & _MASK64, int(index) & _MASK64))
    return np.random.Generator(np.random.Philox(key))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for a child experiment (e.g. one CSV row)."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
