import numpy as np

from kbrw.rng import StreamPool, replicate_stream
from kbrw.stats import chunked_mean, mean_and_stderr


def test_rekey_matches_fresh_stream_after_32bit_draw():
    # an odd number of 32-bit draws leaves a spare half-word in the bit
    # generator; rekeying must drop it like the buffered 64-bit words
    pool = StreamPool(5)
    pool.rekey(2).integers(0, 2 ** 32, size=1, dtype=np.uint32)
    got = pool.rekey(3).integers(0, 2 ** 32, size=4, dtype=np.uint32)
    want = replicate_stream(5, 3).integers(0, 2 ** 32, size=4, dtype=np.uint32)
    assert got.tolist() == want.tolist()


def test_rekey_matches_fresh_stream_after_doubles():
    pool = StreamPool(11)
    pool.rekey(0).random(3)
    assert pool.rekey(7).random(5).tolist() == replicate_stream(11, 7).random(5).tolist()


def test_chunked_mean_reads_one_stream_per_chunk():
    values = np.concatenate([replicate_stream(9, c).random(k) for c, k in enumerate((4, 4, 2))])
    mean, se = chunked_mean(9, 10, 4, lambda rng, k: rng.random(k))
    ref_mean, ref_se = mean_and_stderr(values)
    assert abs(mean - ref_mean) < 1e-15
    assert abs(se - ref_se) < 1e-12
