"""Trial counts to error probabilities, as arrays.

Three probabilities describe a sensing rule: false alarm
P_FA = P(decide H1 | H0), detection P_D = P(decide H1 | H1), and missed
detection P_MD = P(decide H0 | H1).  The engine counts, out of T trials,
the trials whose statistic meets each threshold, and every rate is a
count ratio: P_FA = fa/T, P_D = det/T, and P_MD is counted as
(T - det)/T, never taken as 1 - P_D.  The acceptance gate checks
det/T + (T - det)/T == 1.0 exactly over fuzzed counts.

Standard errors are per-point binomial: sqrt(r*(1-r)/trials),
elementwise, and a rate outside [0, 1] is refused.
"""

from __future__ import annotations

import numpy as np


def binomial_stderr(rate, trials):
    """sqrt(r*(1-r)/trials), the standard error of each proportion in ``rate``."""
    if np.min(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not np.all((0.0 <= rate) & (rate <= 1.0)):
        raise ValueError(f"rates must lie in [0, 1], got {rate}")
    return np.sqrt(rate * (1.0 - rate) / trials)


def rates_from_counts(counts, trials):
    """``(counts / trials, stderr)``, elementwise: each count out of ``trials``.
    A count below 0 or above ``trials`` is refused."""
    rate = counts / trials
    return rate, binomial_stderr(rate, trials)


def roc_assemble(counts, trials):
    """``(pfa, stderr_pfa, pd, stderr_pd)`` from a sweep's count rows: row 0
    counts H0's false alarms, each further row one SNR's detections."""
    rate, stderr = rates_from_counts(counts, trials)
    return rate[0], stderr[0], rate[1:], stderr[1:]


def _upper_envelope(pfa, pd, stderr_pd):
    """The curve sorted by pfa, each repeated pfa kept at its highest pd."""
    order = np.lexsort((pd, pfa))
    x, y, se = (np.asarray(v, dtype=np.float64)[order] for v in (pfa, pd, stderr_pd))
    last = np.append(x[1:] != x[:-1], True)
    return x[last], y[last], se[last]


def roc_dominates(a, b, pfa_grid):
    """Interpolate two ``(pfa, pd, stderr_pd)`` curves at each grid pfa.

    Returns ``(pd_a, pd_b, delta, stderr)`` arrays, one value per grid
    pfa, with delta = pd_a - pd_b.  Interpolation is linear in (pfa, pd);
    the stderr is the root-sum-square of the two linearly interpolated
    per-curve standard errors (an approximation, adequate for 3-sigma
    screening).
    """
    (xa, ya, sa), (xb, yb, sb) = _upper_envelope(*a), _upper_envelope(*b)
    grid = np.asarray(pfa_grid, dtype=np.float64)
    lo, hi = max(xa[0], xb[0]), min(xa[-1], xb[-1])
    if not np.all((lo <= grid) & (grid <= hi)):
        raise ValueError(f"grid pfa {grid.tolist()} outside curve support [{lo}, {hi}]")
    pd_a, pd_b = np.interp(grid, xa, ya), np.interp(grid, xb, yb)
    return pd_a, pd_b, pd_a - pd_b, np.hypot(np.interp(grid, xa, sa), np.interp(grid, xb, sb))
