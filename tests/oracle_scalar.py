"""Per-trial scalar reference for the vectorized engine (test side only).

The generator is counter-based: every draw is a pure function of a
64-bit stream key and a draw counter, so one trial's frame can be
regenerated on its own, outside any block.  These plain functions do
that, one trial at a time, from the trial's ``Stream``.  Each reads the
same role sub-streams as the engine -- ``child(SIGNAL_ROLE)`` for the
signal, ``child(FADING_ROLE)`` for the envelope gain and
``child(NOISE_ROLE)`` for the noise -- so the loop

    root = Stream.from_seed(sc.seed)
    for t in range(sc.trials):
        trial = root.child(TRIAL_DOMAIN, t)
        y, _ = received_frame(sc.signal, sc.channel, snr_db, sc.n_samples, trial)
        hit = statistic(y, spec) >= lam

reproduces ``sensesim.montecarlo``'s statistics and counts at ``snr_db``
bit for bit (``snr_db=None`` is the noise-only frame), and ``frame(model, n,
Stream(key))`` is row ``key`` of ``model.block(keys, n)``.  The draws are
built here as well, not taken from the engine's block functions: each
uniform is mixed on Python ints, and the normals pair them by Box-Muller.
"""

from __future__ import annotations

import math

import numpy as np

from sensesim.rng import GOLDEN, MASK64, mix64
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


def uniform(stream, index: int) -> float:
    """The ``index``-th uniform of ``stream``, mixed on Python ints: the
    top 53 bits plus 0.5, times 2^-53, in (0, 1]."""
    z = mix64((stream.key + index * GOLDEN) & MASK64)
    return ((z >> 11) + 0.5) * 2.0**-53


def uniforms(stream, count: int, start: int = 0) -> np.ndarray:
    """Uniform draws ``start .. start+count-1`` of ``stream``."""
    return np.array([uniform(stream, i) for i in range(start, start + count)])


def normals(stream, count: int) -> np.ndarray:
    """The first ``count`` standard normals of ``stream``: Box-Muller on
    uniform pairs (u[2j], u[2j+1]) gives (z[2j], z[2j+1]), and an odd
    count drops the last normal of its pair."""
    u = uniforms(stream, count + count % 2)
    # numpy transforms, not math.*, as in fading_gain
    radius = np.sqrt(np.log(u[0::2]) * -2.0)
    angle = u[1::2] * (2.0 * np.pi)
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def frame(model, n: int, trial) -> np.ndarray:
    """One primary-user frame, drawn from ``trial.child(SIGNAL_ROLE)``.

    One uniform per sample for Bpsk, one normal per sample for
    GaussianIid, none for the deterministic Sinusoid.
    """
    sig = trial.child(SIGNAL_ROLE)
    if isinstance(model, Bpsk):
        return np.where(uniforms(sig, n) < 0.5, -1.0, 1.0) * math.sqrt(model.power)
    if isinstance(model, Sinusoid):
        k = np.arange(n, dtype=np.float64)
        return math.sqrt(2.0 * model.power) * np.cos(
            2.0 * np.pi * model.cycles_per_frame * k / n
        )
    if isinstance(model, GaussianIid):
        return normals(sig, n) * math.sqrt(model.power)
    raise ValueError(f"no scalar reference for signal model {model!r}")


def fading_gain(channel, trial) -> float:
    """One envelope gain: 1 on AWGN, h = sqrt(-ln u) on Rayleigh."""
    if channel.kind == AWGN:
        return 1.0
    u = uniform(trial.child(FADING_ROLE), 0)
    # numpy transforms, not math.*, so scalar draws match vectorized
    # blocks bit for bit even where libm and numpy differ in the last ulp
    return float(np.sqrt(-np.log(u)))


def received_frame(model, channel, snr_db, n: int, trial) -> tuple[np.ndarray, float]:
    """``(y, h)`` with ``y[k] = h * sqrt(gamma) * x[k] + w[k]``, w unit noise.

    ``snr_db=None`` is the noise-only frame: ``y = w`` and ``h = 0``, and
    neither the signal nor the fading sub-stream is read, so the noise
    lines up exactly with the signal-present frame of the same trial.
    """
    w = normals(trial.child(NOISE_ROLE), n)
    if snr_db is None:
        return w, 0.0
    h = fading_gain(channel, trial)
    amp = h * math.sqrt(snr_to_linear(snr_db))
    return amp * frame(model, n, trial) + w, h
