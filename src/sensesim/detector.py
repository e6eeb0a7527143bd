"""The p-th-power detection statistic and the threshold decision.

The conventional energy detector squares the received samples (p=2);
the proposed variant cubes them (p=3).  The statistic is

    T = sum_k |y[k]|^p

Note the absolute value: the signed cube of zero-mean samples sums to
roughly zero under both hypotheses and cannot discriminate anything, so
the cubing detector is defined on magnitudes.  At p=2 the absolute value
is a no-op and T is the usual energy statistic.  The noise has unit
variance (:mod:`sensesim.signal_channel`), so T is already normalized:
at p=2 it is chi-square with n degrees of freedom under pure noise,
which is what the closed-form oracles in :mod:`sensesim.analytic`
assume.  A noise scale sigma would multiply T and every calibrated
threshold by sigma^p alike, so it could not move a rate.

Decisions compare T against a threshold lambda; a tie T == lambda decides
H1.  Ties have probability zero for continuous statistics but the rule
is fixed anyway so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class DetectorSpec:
    """Exponent p (2 = conventional, 3 = proposed)."""

    p: int = 2

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"detector exponent p must be an integer >= 1, got {self.p!r}")


def statistic(y, spec: DetectorSpec) -> float:
    """T = sum |y[k]|^p of any 1-D array-like ``y``."""
    a = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("statistic requires finite samples")
    return float(np.sum(np.abs(a) ** spec.p))


def statistic_rows(y: np.ndarray, spec: DetectorSpec) -> np.ndarray:
    """Row-wise :func:`statistic` over a (trials, n) block, overwriting ``y``.

    Element r equals ``statistic(y[r], spec)`` bit for bit; the
    Monte Carlo engine relies on that equivalence.  ``y`` (writable
    float64) becomes |y|^p and may then be the accumulator: score a copy
    to keep it.  If ``y`` is sample-major (a transposed C-ordered (n,
    trials) array, as the engine stores short frames) and n <= 128, the
    sums run in numpy's pairwise order as additions of long contiguous
    rows; longer sample-major frames go to ``np.sum`` as a C-ordered copy,
    and any other layout goes to ``np.sum`` as it is.
    """
    if spec.p != 2:  # y**2 equals |y|**2 bit for bit
        np.abs(y, out=y)
    y **= spec.p
    if y.strides[0] >= y.strides[1]:
        return np.sum(y, axis=1)
    if y.shape[1] > 128:  # numpy's pairwise block: it halves longer sums
        return np.sum(np.ascontiguousarray(y), axis=1)
    return _pairwise_sum(y.T).copy()


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum an (m, trials) array, m <= 128, down axis 0 into ``a[0]``,
    equal to ``np.sum(a[:, t])`` bit for bit: numpy's pairwise order is a
    running sum below 8 terms, and up to 128 eight partial sums combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the tail."""
    m = a.shape[0]
    tail = 1
    if m >= 8:
        tail = m - m % 8
        for i in range(8, tail, 8):
            a[:8] += a[i : i + 8]
        for step in (1, 2, 4):  # r0 += r1, r2 += r3, ...; then r0 += r2, r4 += r6; r0 += r4
            a[0:8:2 * step] += a[step:8:2 * step]
    for i in range(tail, m):
        a[0] += a[i]
    return a[0]


def decide(t: float, threshold: float) -> bool:
    """True (decide H1) iff ``t >= threshold``: ties decide H1."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"statistic must be finite and >= 0, got {t!r}")
    return t >= threshold
