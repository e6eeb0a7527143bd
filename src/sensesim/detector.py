"""The p-th-power detection statistic and the threshold decision.

The conventional energy detector squares the received samples (p=2);
the proposed variant cubes them (p=3).  The statistic is

    T = sum_k |y[k]|^p           (optionally divided by sigma^p)

Note the absolute value: the signed cube of zero-mean samples sums to
roughly zero under both hypotheses and cannot discriminate anything, so
the cubing detector is defined on magnitudes.  At p=2 the absolute value
is a no-op and T is the usual energy statistic; normalized by sigma^2 it
is chi-square with n degrees of freedom under pure noise, which is what
the closed-form oracles in :mod:`sensesim.analytic` assume.

Decisions compare T against a threshold lambda; a tie T == lambda decides
H1.  Ties have probability zero for continuous statistics but the rule
is fixed anyway so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

H0 = "H0"
H1 = "H1"


@dataclass(frozen=True)
class DetectorSpec:
    """Exponent p (2 = conventional, 3 = proposed) and normalization flag."""

    p: int = 2
    normalized: bool = True

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"detector exponent p must be an integer >= 1, got {self.p!r}")


@dataclass(frozen=True)
class Decision:
    hypothesis: str
    threshold: float

    def __post_init__(self):
        if self.hypothesis not in (H0, H1):
            raise ValueError(f"hypothesis must be {H0!r} or {H1!r}, got {self.hypothesis!r}")


def statistic(y, spec: DetectorSpec, sigma: float = 1.0) -> float:
    """T = sum |y[k]|^p, divided by sigma^p when ``spec.normalized``.

    ``y`` is any 1-D array-like; ``sigma`` is the noise amplitude
    (square root of the channel noise variance).
    """
    a = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("statistic requires finite samples")
    t = float(np.sum(np.abs(a) ** spec.p))
    if spec.normalized:
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        t /= sigma**spec.p
    return t


def statistic_rows(y: np.ndarray, spec: DetectorSpec, sigma: float = 1.0) -> np.ndarray:
    """Row-wise :func:`statistic` over a (trials, n) block, overwriting ``y``.

    Element r equals ``statistic(y[r], spec, sigma)`` bit for bit; the
    Monte Carlo engine relies on that equivalence.  ``y`` (writable
    float64) becomes |y|^p and may then be the accumulator: score a copy
    to keep it.  If ``y`` is sample-major (a transposed C-ordered (n,
    trials) array, as the engine stores short frames) the sums run in
    numpy's pairwise order as additions of long contiguous rows;
    otherwise ``np.sum`` runs along each frame.
    """
    if spec.normalized and not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    np.abs(y, out=y)
    y **= spec.p
    t = _pairwise_sum(y.T).copy() if y.strides[0] < y.strides[1] else np.sum(y, axis=1)
    if spec.normalized:
        t /= sigma**spec.p
    return t


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum a (m, trials) array down axis 0 into ``a[0]``, equal to
    ``np.sum(a[:, t])`` bit for bit: numpy's pairwise order is a running
    sum below 8 terms, eight partial sums up to 128 combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the tail, and two halves
    split at a multiple of 8 above."""
    m = a.shape[0]
    if m > 128:
        half = m // 2 - (m // 2) % 8
        _pairwise_sum(a[:half])
        a[0] += _pairwise_sum(a[half:])
        return a[0]
    tail = 1
    if m >= 8:
        tail = m - m % 8
        for i in range(8, tail, 8):
            a[:8] += a[i : i + 8]
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            a[i] += a[j]
    for i in range(tail, m):
        a[0] += a[i]
    return a[0]


def decide(t: float, threshold: float) -> Decision:
    """H1 iff ``t >= threshold`` (ties decide H1)."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"statistic must be finite and >= 0, got {t!r}")
    return Decision(H1 if t >= threshold else H0, threshold)
