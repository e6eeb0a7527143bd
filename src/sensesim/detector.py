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

from .signal_channel import SampleFrame

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

    ``y`` may be a :class:`SampleFrame` or any 1-D array-like; ``sigma``
    is the noise amplitude (square root of the channel noise variance).
    """
    a = y.samples if isinstance(y, SampleFrame) else np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("statistic requires finite samples")
    t = float(np.sum(np.abs(a) ** spec.p))
    if spec.normalized:
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        t /= sigma**spec.p
    return t


def statistic_rows(y: np.ndarray, spec: DetectorSpec, sigma: float = 1.0) -> np.ndarray:
    """Row-wise :func:`statistic` over a (trials, n) block.

    Element r equals ``statistic(y[r], spec, sigma)`` bit for bit; the
    Monte Carlo engine relies on that equivalence.  ``y`` is left
    unchanged, and the only (trials, n) temporary is powered in place.
    """
    a = np.abs(y)
    a **= spec.p
    t = np.sum(a, axis=1)
    if spec.normalized:
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        t /= sigma**spec.p
    return t


def decide(t: float, threshold: float) -> Decision:
    """H1 iff ``t >= threshold`` (ties decide H1)."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"statistic must be finite and >= 0, got {t!r}")
    return Decision(H1 if t >= threshold else H0, threshold)
