"""Per-trial scalar reference for the vectorized engine (test side only).

The generator is counter-based: every draw is a pure function of a
64-bit key and a draw counter, so one trial's frame can be regenerated
on its own, outside any block.  These plain functions do that, one
trial at a time, from the trial's integer key.  Each reads the same role
keys as the engine -- ``fold(key, SIGNAL_ROLE)`` for the signal,
``fold(key, FADING_ROLE)`` for the envelope gain and
``fold(key, NOISE_ROLE)`` for the noise -- so the loop

    for t in range(sc.trials):
        trial = fold(mix64(sc.seed), TRIAL_DOMAIN, t)     # TRIAL_DOMAIN = 1
        y, _ = received_frame(sc.signal, sc.channel, snr_db, sc.n_samples, trial)
        hit = statistic(y, spec) >= lam

reproduces ``sensesim.montecarlo``'s statistics and counts at ``snr_db``
bit for bit (``snr_db=None`` is the noise-only frame), and ``frame(model, n,
int(keys[r]))`` is row r of ``model.block(keys, n)``.  The draws are
built here as well, not taken from the engine's block functions: each
uniform is mixed on Python ints, and the normals pair them by Box-Muller.
``mix64_inverse`` runs the mixing backwards, so a test can choose the
key behind a given draw.
"""

from __future__ import annotations

import math

import numpy as np

from sensesim.rng import GOLDEN, MASK64, fold, mix64
from sensesim.signal_channel import (
    AWGN,
    FADING_ROLE,
    NOISE_ROLE,
    SIGNAL_ROLE,
    Bpsk,
    GaussianIid,
    Sinusoid,
    snr_to_linear,
)


def _unxorshift(z: int, shift: int) -> int:
    """The x with ``x ^ (x >> shift) == z``: each pass fixes ``shift`` more
    of its top bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def mix64_inverse(z: int) -> int:
    """The state whose :func:`~sensesim.rng.mix64` is ``z``: the xorshifts
    undone and the odd multipliers' inverses mod 2^64 applied, in reverse."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return (_unxorshift(z, 30) - GOLDEN) & MASK64


def uniform(key: int, index: int) -> float:
    """The ``index``-th uniform of ``key``, mixed on Python ints: the top
    53 bits plus 0.5, times 2^-53, in (0, 1]."""
    z = mix64((key + index * GOLDEN) & MASK64)
    return ((z >> 11) + 0.5) * 2.0**-53


def uniforms(key: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform draws ``start .. start+count-1`` of ``key``."""
    return np.array([uniform(key, i) for i in range(start, start + count)])


def normals(key: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of ``key``: Box-Muller on
    uniform pairs (u[2j], u[2j+1]) gives (z[2j], z[2j+1]), and an odd
    count drops the last normal of its pair."""
    u = uniforms(key, count + count % 2)
    # numpy transforms, not math.*, as in fading_gain
    radius = np.sqrt(np.log(u[0::2]) * -2.0)
    angle = u[1::2] * (2.0 * np.pi)
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def frame(model, n: int, trial: int) -> np.ndarray:
    """One primary-user frame, drawn from ``fold(trial, SIGNAL_ROLE)``.

    One uniform per sample for Bpsk, one normal per sample for
    GaussianIid, none for the deterministic Sinusoid.
    """
    sig = fold(trial, SIGNAL_ROLE)
    if isinstance(model, Bpsk):
        return np.where(uniforms(sig, n) < 0.5, -1.0, 1.0)
    if isinstance(model, Sinusoid):
        k = np.arange(n, dtype=np.float64)
        return math.sqrt(2.0) * np.cos(
            2.0 * np.pi * model.cycles_per_frame * k / n
        )
    if isinstance(model, GaussianIid):
        return normals(sig, n)
    raise ValueError(f"no scalar reference for signal model {model!r}")


def fading_gain(channel, trial: int) -> float:
    """One envelope gain: 1 on AWGN, h = sqrt(-ln u) on Rayleigh."""
    if channel.kind == AWGN:
        return 1.0
    u = uniform(fold(trial, FADING_ROLE), 0)
    # numpy transforms, not math.*, so scalar draws match vectorized
    # blocks bit for bit even where libm and numpy differ in the last ulp
    return float(np.sqrt(-np.log(u)))


def received_frame(model, channel, snr_db, n: int, trial: int) -> tuple[np.ndarray, float]:
    """``(y, h)`` with ``y[k] = h * sqrt(gamma) * x[k] + w[k]``, w unit noise.

    ``snr_db=None`` is the noise-only frame: ``y = w`` and ``h = 0``, and
    neither the signal nor the fading key is read, so the noise
    lines up exactly with the signal-present frame of the same trial.
    """
    w = normals(fold(trial, NOISE_ROLE), n)
    if snr_db is None:
        return w, 0.0
    h = fading_gain(channel, trial)
    amp = h * math.sqrt(snr_to_linear(snr_db))
    return amp * frame(model, n, trial) + w, h
