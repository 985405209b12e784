import numpy as np
import pytest

from kbrw.rng import replicate_stream
from kbrw.stats import chunked_mean


def test_chunked_mean_reads_one_stream_per_chunk():
    values = np.concatenate([replicate_stream(9, c).random(k) for c, k in enumerate((4, 4, 2))])
    mean, se = chunked_mean(9, 10, 4, lambda rng, k: rng.random(k))
    assert abs(mean - values.mean()) < 1e-15
    assert abs(se - values.std(ddof=1) / np.sqrt(values.size)) < 1e-12


TOP = (1 << 64) - 1


@pytest.mark.parametrize("seed, index", [(0, 0), (3, 5), (TOP, TOP), (1 << 63, 7),
                                         (7, 1 << 63), (-1, -2), (TOP + 5, 1 << 64)])
def test_stream_is_philox_keyed_by_seed_and_index(seed, index):
    key = ((index & TOP) << 64) | (seed & TOP)
    rng, twin = replicate_stream(seed, index), np.random.Generator(np.random.Philox(key=key))
    assert (rng.random(64) == twin.random(64)).all()
    assert (rng.standard_normal(64) == twin.standard_normal(64)).all()
    assert (rng.integers(0, 1 << 40, 64) == twin.integers(0, 1 << 40, 64)).all()
    # the key words, low word first
    assert rng.bit_generator.state["state"]["key"].tolist() == [seed & TOP, index & TOP]
