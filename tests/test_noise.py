"""Counter-based stream addressing: same address, same word, no matter how asked."""

import numpy as np
import pytest

from sdelab import NoiseStream
from sdelab.noise import PATH_BLOCK_PI_A, PATH_BLOCK_PI_B, PATH_BLOCK_PRIMARY


def test_per_step_matches_block_read():
    s = NoiseStream(1234, path_index=3)
    block = s.gaussian_block(0, 50, 2)
    rows = np.stack([s.gaussians(k, 2) for k in range(50)])
    np.testing.assert_array_equal(block, rows)


def test_block_reads_are_offset_invariant():
    s = NoiseStream(99, 0)
    whole = s.gaussian_block(0, 64, 3)
    lo = s.gaussian_block(0, 20, 3)
    hi = s.gaussian_block(20, 44, 3)
    np.testing.assert_array_equal(whole, np.vstack([lo, hi]))


def test_raw_words_chunking_is_exact():
    s = NoiseStream(7, 1)
    whole = s.raw_words(0, 0, 37)
    parts = np.concatenate([s.raw_words(0, 0, 5), s.raw_words(0, 5, 13), s.raw_words(0, 18, 19)])
    np.testing.assert_array_equal(whole, parts)
    # unaligned starts hit the same absolute addresses
    np.testing.assert_array_equal(s.raw_words(0, 3, 10), whole[3:13])


def test_purposes_are_disjoint_channels():
    s = NoiseStream(42, 0)
    g = s.uniforms(NoiseStream.PURPOSE_GAUSS, 0, 100)
    e = s.epoch_uniforms(0, 100)
    m = s.mark_uniforms(0, 100)
    assert not np.array_equal(g, e)
    assert not np.array_equal(g, m)
    assert not np.array_equal(e, m)


def test_same_key_reproduces_different_key_differs():
    a = NoiseStream(5, 2).gaussian_block(0, 16, 1)
    b = NoiseStream(5, 2).gaussian_block(0, 16, 1)
    c = NoiseStream(5, 3).gaussian_block(0, 16, 1)
    d = NoiseStream(6, 2).gaussian_block(0, 16, 1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_path_blocks_are_far_apart():
    assert PATH_BLOCK_PRIMARY == 0
    assert PATH_BLOCK_PI_A == 1 << 20
    assert PATH_BLOCK_PI_B == 1 << 21
    # room for a seven-figure ensemble in each block without overlap
    assert PATH_BLOCK_PI_B - PATH_BLOCK_PI_A >= 10**6


def test_negative_path_index_rejected():
    with pytest.raises(ValueError):
        NoiseStream(0, -1)


def test_uniforms_live_in_open_interval():
    u = NoiseStream(3, 0).uniforms(0, 0, 10**5)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_increments_of_distinct_paths_are_uncorrelated():
    # ensemble paths i != j use disjoint substreams; over N = 1e5 draws the
    # empirical correlation must be 0 within 4/sqrt(N)
    n = 10**5
    x = NoiseStream(2024, 0).gaussian_block(0, n, 1).ravel()
    y = NoiseStream(2024, 1).gaussian_block(0, n, 1).ravel()
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_gaussians_have_standard_moments():
    n = 10**5
    z = NoiseStream(77, 0).gaussian_block(0, n, 1).ravel()
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    # var(sample var) ~ 2/n for normals
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
