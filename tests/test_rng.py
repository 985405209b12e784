import numpy as np

from kbrw.rng import replicate_stream
from kbrw.stats import chunked_mean, mean_and_stderr


def test_chunked_mean_reads_one_stream_per_chunk():
    values = np.concatenate([replicate_stream(9, c).random(k) for c, k in enumerate((4, 4, 2))])
    mean, se = chunked_mean(9, 10, 4, lambda rng, k: rng.random(k))
    ref_mean, ref_se = mean_and_stderr(values)
    assert abs(mean - ref_mean) < 1e-15
    assert abs(se - ref_se) < 1e-12
