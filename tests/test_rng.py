"""Key and draw kernel tests: published pins, scalar/vector agreement, moments.

Single-stream draws come from the test-side reference ``oracle_scalar``,
which mixes on Python ints and builds its own Box-Muller pairs; the
engine's block draws must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_scalar import mix64_inverse, normals, uniform, uniforms

from sensesim import rng
from sensesim.rng import (
    GOLDEN,
    MASK64,
    bits_to_uniform,
    fold,
    fold_in,
    fold_range,
    mix64,
    mix64_array,
    normal_block,
    uniform_block,
)

# First five outputs of the reference SplitMix64 generator seeded at 0,
# plus the first output seeded at 1 (published test vectors).  With the
# increment folded into mix64, output i of state k is mix64(k + i*GOLDEN).
_SEQ_FROM_0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def _one(block, key, count, **kwargs):
    """Row 0 of an engine block draw for the single key ``key``."""
    return block(np.array([key], dtype=np.uint64), count, **kwargs)[0]


def test_mix64_reproduces_published_sequence():
    for i, want in enumerate(_SEQ_FROM_0):
        assert mix64((i * GOLDEN) & MASK64) == want
    assert mix64(1) == 0x910A2DEC89025CC1


def test_mix64_stays_in_64_bits():
    for z in (0, 1, MASK64, MASK64 - 1, GOLDEN, 2**63):
        out = mix64(z)
        assert 0 <= out <= MASK64


@given(z=st.integers(min_value=0, max_value=MASK64))
def test_mix64_inverse_round_trips(z):
    assert mix64_inverse(mix64(z)) == z
    assert mix64(mix64_inverse(z)) == z


def test_mix64_array_matches_scalar():
    zs = np.array(
        [0, 1, 2, GOLDEN, MASK64, MASK64 - 1, 2**63, 12345678901234567890],
        dtype=np.uint64,
    )
    out = mix64_array(zs)
    assert out.dtype == np.uint64
    for z, got in zip(zs.tolist(), out.tolist()):
        assert got == mix64(z)


def test_bits_to_uniform_endpoints_and_range():
    # (2^53 - 1) + 0.5 rounds to 2^53, so the top 2^11 words give exactly 1.0
    u = bits_to_uniform(np.array([0, MASK64, 2**64 - 2**11, 2**64 - 2**12], dtype=np.uint64))
    assert u[0] == 2.0**-54
    assert u[1] == 1.0 and u[2] == 1.0
    assert u[3] < 1.0
    big = bits_to_uniform(mix64_array(np.arange(100_000, dtype=np.uint64)))
    assert big.min() > 0.0
    assert big.max() < 1.0


def test_a_uniform_of_one_gives_a_zero_normal_pair(monkeypatch):
    # Box-Muller's radius sqrt(-2 ln 1) is sqrt(-0.0) = -0.0: both normals
    # of the pair are +-0.0 whatever the angle, never NaN.
    def uniforms_of_one(keys, count, start=0, *, out=None, work=None):
        u = np.ones((keys.size, count))
        u[:, 1::2] = np.linspace(0.0, 1.0, count // 2)
        return u

    monkeypatch.setattr(rng, "uniform_block", uniforms_of_one)
    z = normal_block(np.arange(3, dtype=np.uint64), 8)
    assert not np.isnan(z).any()
    assert np.all(z == 0.0)


def test_fold_range_and_fold_in_match_scalar_fold():
    key = 0xDEADBEEFCAFEF00D
    idx = np.array([0, 1, 7, 65535, 2**40], dtype=np.uint64)
    vec = fold_range(key, idx)
    for i, got in zip(idx.tolist(), vec.tolist()):
        assert got == fold(key, i)
    keys = np.array([0, 1, key], dtype=np.uint64)
    folded = fold_in(keys, 3)
    for k, got in zip(keys.tolist(), folded.tolist()):
        assert got == fold(k, 3)


def test_uniform_block_start_offset():
    keys = np.array([mix64(9), mix64(10)], dtype=np.uint64)
    full = uniform_block(keys, 20)
    tail = uniform_block(keys, 12, start=8)
    assert np.array_equal(full[:, 8:], tail)


def test_stream_scalar_uniform_matches_vector():
    key = mix64(424242)
    vec = _one(uniform_block, key, 64)
    for i in range(64):
        assert uniform(key, i) == vec[i]


def test_stream_child_path_composition():
    root = mix64(7)
    assert fold(root, 1, 2) == fold(fold(root, 1), 2)
    assert fold(root, 1, 2) != fold(root, 2, 1)
    assert fold(root, 1) != root
    assert fold(root) == root


def test_fold_range_gives_each_trial_key_of_a_domain():
    idx = np.array([0, 1, 2, 1000, 2**33], dtype=np.uint64)
    for seed, domain in ((0, 1), (7, 2), (MASK64, 1)):
        keys = fold_range(fold(mix64(seed), domain), idx)
        for i, t in enumerate(idx.tolist()):
            assert int(keys[i]) == fold(mix64(seed), domain, t)


def test_distinct_children_give_distinct_draws():
    root = mix64(0)
    a = uniforms(fold(root, 1, 0), 8)
    b = uniforms(fold(root, 1, 1), 8)
    c = uniforms(fold(root, 2, 0), 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_same_seed_reproduces_different_seed_differs():
    a = _one(normal_block, mix64(5), 100)
    b = _one(normal_block, mix64(5), 100)
    c = _one(normal_block, mix64(6), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normals_odd_count_is_prefix_of_even():
    key = mix64(11)
    assert np.array_equal(_one(normal_block, key, 7), _one(normal_block, key, 8)[:7])
    assert _one(normal_block, key, 1).shape == (1,)


def test_normal_block_matches_stream_normals():
    trials = [fold(mix64(3), 1, t) for t in range(300)]
    keys = np.array(trials, dtype=np.uint64)
    for count in (1, 2, 9, 11):  # odd counts drop the last normal of a pair
        block = normal_block(keys, count)
        assert np.array_equal(block, [normals(k, count) for k in trials]), count
    for count in (1, 2, 9, 11):  # uniforms at any start, too
        block = uniform_block(keys, count, 5)
        assert np.array_equal(block, [uniforms(k, count, 5) for k in trials]), count


def _buffer_layouts(streams, cols):
    """(out, work) pairs for a (streams, cols) draw: C-ordered, and ragged
    sample-major slices of larger buffers, as the engine passes them."""
    yield np.empty((streams, cols)), np.empty((streams, cols), dtype=np.uint64)
    big = np.full((cols + 3, streams + 5), np.nan)
    big_work = np.zeros((cols + 3, streams + 5), dtype=np.uint64)
    yield big[:cols, :streams].T, big_work[:cols, :streams].T


def test_draws_into_buffers_equal_fresh_draws():
    keys = np.array([mix64(s) for s in range(37)], dtype=np.uint64)
    for count in (1, 2, 3, 10, 11):
        fresh = uniform_block(keys, count, start=5)
        for out, work in _buffer_layouts(keys.size, count):
            got = uniform_block(keys, count, start=5, out=out, work=work)
            assert np.shares_memory(got, out)
            assert np.array_equal(got, fresh)
        fresh = normal_block(keys, count)
        for out, work in _buffer_layouts(keys.size, count + count % 2):
            got = normal_block(keys, count, out=out, work=work)
            assert got.shape == fresh.shape and np.shares_memory(got, out)
            assert np.array_equal(got, fresh)
    z = mix64_array(keys)
    in_place = keys.copy()
    assert mix64_array(in_place, out=in_place, work=np.empty_like(keys)) is in_place
    assert np.array_equal(in_place, z)
    u = np.empty(z.size)
    assert bits_to_uniform(z.copy(), out=u) is u
    assert np.array_equal(u, bits_to_uniform(z))


def test_uniform_moments():
    u = _one(uniform_block, mix64(99), 200_000)
    n = u.size
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * (1.0 / 12.0) / np.sqrt(n) * 3.0


def test_normal_moments():
    z = _one(normal_block, mix64(123), 200_000)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    inside = np.mean(np.abs(z) < 1.959963984540054)
    assert abs(inside - 0.95) < 4.0 * np.sqrt(0.95 * 0.05 / n)


def test_validation_errors():
    with pytest.raises(ValueError):
        normal_block(np.array([mix64(0)], dtype=np.uint64), 0)


@given(
    key=st.integers(min_value=0, max_value=MASK64),
    index=st.integers(min_value=0, max_value=2**20),
)
@settings(deadline=None)
def test_scalar_vector_uniform_agree_everywhere(key, index):
    assert uniform(key, index) == _one(uniform_block, key, 1, start=index)[0]


@given(
    key=st.integers(min_value=0, max_value=MASK64),
    component=st.integers(min_value=0, max_value=MASK64),
)
@settings(deadline=None)
def test_fold_scalar_vector_agree_everywhere(key, component):
    vec = fold_range(key, np.array([component], dtype=np.uint64))
    assert int(vec[0]) == fold(key, component)
