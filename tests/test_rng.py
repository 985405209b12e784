import numpy as np

from kbrw.rng import replicate_stream
from kbrw.stats import chunked_mean


def test_chunked_mean_reads_one_stream_per_chunk():
    values = np.concatenate([replicate_stream(9, c).random(k) for c, k in enumerate((4, 4, 2))])
    mean, se = chunked_mean(9, 10, 4, lambda rng, k: rng.random(k))
    assert abs(mean - values.mean()) < 1e-15
    assert abs(se - values.std(ddof=1) / np.sqrt(values.size)) < 1e-12
