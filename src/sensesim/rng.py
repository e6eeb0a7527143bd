"""Counter-based random streams for reproducible simulation.

Every random quantity in this package is a pure function of a 64-bit
stream key and a draw counter, so any slice of any stream can be
regenerated independently, in any order, on any worker, with
bit-identical results.  There is no hidden generator state to advance
or to share between threads.

The mixing function is the SplitMix64 finalizer (Steele, Lea and Flood,
"Fast splittable pseudorandom number generators", 2014), with the golden
ratio increment folded in so that ``mix64(k + i*GOLDEN)`` for i = 0, 1,
2, ... reproduces the SplitMix64 output sequence started at state k.

Key layout
----------
Keys are plain 64-bit Python integers.

* ``mix64(seed)`` is the root key of a run.
* ``fold(key, c0, c1, ...)`` derives a child key by folding the integer
  path components into the key in turn, one ``mix64`` round each:
  trial t of a run draws from ``fold(mix64(seed), 1, t)``.  Distinct
  paths give statistically independent keys.
* The i-th uniform of a key is ``tofloat(mix64(key + i*GOLDEN))``;
  uniforms lie in (0, 1]: never 0, so logarithms stay finite, and a
  uniform of 1.0 gives a Box-Muller radius of -0.0, never NaN.
* Normal variates come from Box-Muller pairs: uniforms (u[2j], u[2j+1])
  produce normals (z[2j], z[2j+1]).  A request for an odd count draws
  the full last pair and discards the trailing normal, so the mapping
  from counter positions to values never depends on the request size.

Key derivation (``mix64``, ``fold``) runs on Python integers (numpy
warns on scalar uint64 overflow); draws run on uint64 arrays, which
wrap silently.  The scalar and array paths are bit-identical, and the
tests compare them: ``fold`` against ``fold_range`` and ``fold_in``, and
single uniforms mixed on Python integers (``tests/oracle_scalar.py``)
and their Box-Muller pairs against ``uniform_block`` and
``normal_block``.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the SplitMix64 increment
# No normal_block value exceeds this in magnitude: the least uniform is
# 2^-54, so the Box-Muller radius is at most sqrt(-2 ln 2^-54) = 8.65216...
NORMAL_MAX = 8.6522

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U64 = np.uint64


def mix64(z: int) -> int:
    """SplitMix64 output function of a 64-bit state, as a Python int."""
    z = (z + GOLDEN) & MASK64
    z ^= z >> 30
    z = (z * _M1) & MASK64
    z ^= z >> 27
    z = (z * _M2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray, *, out=None, work=None) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array, into ``out`` (may be
    ``z``) with uint64 scratch ``work``; each is allocated if not given."""
    z = np.add(z, _U64(GOLDEN), out=out)
    work = np.empty_like(z) if work is None else work
    for shift, factor in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, _U64(shift), out=work)
        z ^= work
        if factor is not None:
            z *= _U64(factor)
    return z


def bits_to_uniform(z: np.ndarray, *, out=None) -> np.ndarray:
    """Map mixed 64-bit words to float64 uniforms in (0, 1].

    Top 53 bits plus 0.5, times 2^-53: the least is 2^-54; the top 2^11
    words give 1.0, as (2^53 - 1) + 0.5 rounds to 2^53.  With a float64
    ``out`` the uniforms go there and ``z`` is shifted in place, as scratch.
    """
    z = np.right_shift(z, _U64(11), out=None if out is None else z)
    return np.multiply(np.add(z, 0.5, out=out), 2.0**-53, out=out)


def fold(key: int, *path: int) -> int:
    """Child key of ``key`` at the integer ``path``, one component folded
    in at a time; an empty path gives ``key`` itself."""
    for component in path:
        key = mix64(key ^ mix64(component & MASK64))
    return key


def fold_range(key: int, indices: np.ndarray) -> np.ndarray:
    """Child keys of one parent for many indices at once (uint64 array)."""
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64_array(_U64(key) ^ mix64_array(idx))


def fold_in(keys: np.ndarray, component: int) -> np.ndarray:
    """Apply the same path component to many parent keys at once."""
    return mix64_array(keys ^ _U64(mix64(component & MASK64)))


def uniform_block(keys: np.ndarray, count: int, start: int = 0, *, out=None, work=None):
    """Uniforms for many streams at once.

    Returns shape ``(len(keys), count)``; row r holds draws
    ``start .. start+count-1`` of the stream keyed by ``keys[r]``.  The
    draw runs in ``out`` (float64) and ``work`` (uint64 scratch), with at
    least ``count`` columns, and returns ``out[:, :count]``.  Each is
    allocated sample-major if not given (a transposed C-ordered
    ``(count, len(keys))`` array: one contiguous row per draw position).
    """
    work = np.empty((count, keys.size), np.uint64).T if work is None else work[:, :count]
    out = np.empty((count, keys.size)).T if out is None else out[:, :count]
    ctr = np.arange(start, start + count, dtype=np.uint64) * _U64(GOLDEN)
    np.add(keys[:, None], ctr, out=work)
    mix64_array(work, out=work, work=out.view(np.uint64))
    return bits_to_uniform(work, out=out)


def normal_block(keys: np.ndarray, count: int, *, out=None, work=None) -> np.ndarray:
    """Standard normals for many streams at once, shape ``(len(keys), count)``.

    Box-Muller on consecutive uniform pairs; consumes ``2*ceil(count/2)``
    uniforms per stream starting at counter 0.  ``out`` and ``work`` are
    as in :func:`uniform_block` with that many columns: Box-Muller
    overwrites the uniforms in ``out``, and ``out[:, :count]`` returns.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pairs = (count + 1) // 2
    work = np.empty((2 * pairs, keys.size), np.uint64).T if work is None else work
    u = uniform_block(keys, 2 * pairs, out=out, work=work)
    r, theta = u[:, 0::2], u[:, 1::2]
    np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
    theta *= 2.0 * np.pi
    cos = np.cos(theta, out=work.view(np.float64)[:, :pairs])
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return u[:, :count]

