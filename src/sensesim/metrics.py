"""Trial outcomes to error probabilities and ROC curves.

Three probabilities describe a sensing rule: false alarm
P_FA = P(decide H1 | H0), detection P_D = P(decide H1 | H1), and missed
detection P_MD = P(decide H0 | H1).  P_D + P_MD = 1 is enforced
structurally: a :class:`RatePoint` stores only one of the pair and
derives the other in the constructor, so the identity holds exactly (in
IEEE double, ``r + (1.0 - r) == 1.0`` for every r in [0, 1]), and
construction with an inconsistent pair is rejected.

Standard errors are per-point binomial: sqrt(r*(1-r)/trials).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_HARD_TOL = 1e-12  # rounding slack on top of the 3-stderr monotonicity band


@dataclass(frozen=True)
class ConfusionCounts:
    """Raw decision counts from a paired H0/H1 experiment."""

    h0_trials: int
    h1_trials: int
    false_alarms: int
    detections: int

    def __post_init__(self):
        for name in ("h0_trials", "h1_trials", "false_alarms", "detections"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if self.false_alarms > self.h0_trials:
            raise ValueError(
                f"false_alarms ({self.false_alarms}) cannot exceed h0_trials ({self.h0_trials})"
            )
        if self.detections > self.h1_trials:
            raise ValueError(
                f"detections ({self.detections}) cannot exceed h1_trials ({self.h1_trials})"
            )


def _check_rate(name: str, r: float) -> None:
    if not (isinstance(r, (int, float)) and 0.0 <= r <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {r!r}")


@dataclass(frozen=True)
class RatePoint:
    """(P_FA, P_D, P_MD) with binomial standard errors.

    Either side may be absent (None) when only one hypothesis was
    measured.  Construct via :meth:`from_pd`, :meth:`from_pmd`,
    :meth:`pfa_only`, or :func:`rates_from_counts`; direct construction
    must satisfy ``pd + pmd == 1.0`` exactly.
    """

    pfa: float | None = None
    pd: float | None = None
    pmd: float | None = None
    stderr_pfa: float | None = None
    stderr_pd: float | None = None

    def __post_init__(self):
        if (self.pd is None) != (self.pmd is None):
            raise ValueError("pd and pmd must be given together (one derived from the other)")
        if self.pfa is not None:
            _check_rate("pfa", self.pfa)
        if self.pd is not None:
            _check_rate("pd", self.pd)
            _check_rate("pmd", self.pmd)
            if self.pd + self.pmd != 1.0:
                raise ValueError(
                    f"pd + pmd must equal 1 exactly, got {self.pd!r} + {self.pmd!r}"
                )
        for name in ("stderr_pfa", "stderr_pd"):
            v = getattr(self, name)
            if v is not None and not (isinstance(v, (int, float)) and v >= 0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")

    @property
    def stderr_pmd(self) -> float | None:
        """Binomial stderr is symmetric in r and 1-r, so pmd shares pd's."""
        return self.stderr_pd

    @classmethod
    def from_pd(cls, pd, stderr_pd=None, pfa=None, stderr_pfa=None) -> "RatePoint":
        """Anchor on detection probability; derive pmd = 1 - pd."""
        _check_rate("pd", pd)
        return cls(pfa=pfa, pd=pd, pmd=1.0 - pd, stderr_pfa=stderr_pfa, stderr_pd=stderr_pd)

    @classmethod
    def from_pmd(cls, pmd, stderr_pd=None, pfa=None, stderr_pfa=None) -> "RatePoint":
        """Anchor on missed detection; derive pd = 1 - pmd."""
        _check_rate("pmd", pmd)
        return cls(pfa=pfa, pd=1.0 - pmd, pmd=pmd, stderr_pfa=stderr_pfa, stderr_pd=stderr_pd)

    @classmethod
    def pfa_only(cls, pfa, stderr_pfa=None) -> "RatePoint":
        return cls(pfa=pfa, stderr_pfa=stderr_pfa)


def binomial_stderr(rate: float, trials: int) -> float:
    """sqrt(r*(1-r)/trials), the per-point standard error of a proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return math.sqrt(rate * (1.0 - rate) / trials)


def rates_from_counts(c: ConfusionCounts) -> RatePoint:
    """Empirical rates from counts; pd is the anchor, pmd = 1 - pd."""
    if c.h0_trials < 1 or c.h1_trials < 1:
        raise ValueError("rates_from_counts needs at least one trial under each hypothesis")
    pfa = c.false_alarms / c.h0_trials
    pd = c.detections / c.h1_trials
    return RatePoint.from_pd(
        pd,
        stderr_pd=binomial_stderr(pd, c.h1_trials),
        pfa=pfa,
        stderr_pfa=binomial_stderr(pfa, c.h0_trials),
    )


@dataclass(frozen=True)
class RocCurve:
    """Threshold-ordered operating points, lambda strictly decreasing."""

    points: tuple[tuple[float, RatePoint], ...]

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.points)

    @property
    def pfa(self) -> np.ndarray:
        return np.array([pt.pfa for _, pt in self.points], dtype=np.float64)

    @property
    def pd(self) -> np.ndarray:
        return np.array([pt.pd for _, pt in self.points], dtype=np.float64)


def roc_assemble(points) -> RocCurve:
    """Order (lambda, RatePoint) pairs into a curve and check monotonicity.

    Thresholds must be distinct; points are sorted by decreasing lambda.
    Along the sorted list pfa and pd should be non-decreasing; violations
    beyond 3 * (stderr_i + stderr_j) raise a warning.
    """
    pts = list(points)
    if not pts:
        raise ValueError("a curve needs at least one point")
    lams = [lam for lam, _ in pts]
    if len(set(lams)) != len(lams):
        raise ValueError("duplicate thresholds in ROC points")
    for lam, pt in pts:
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"thresholds must be finite and >= 0, got {lam!r}")
        if pt.pfa is None or pt.pd is None:
            raise ValueError("ROC points need both pfa and pd measured")
    pts.sort(key=lambda item: -item[0])
    for (_, a), (_, b) in zip(pts, pts[1:]):
        for attr, se_attr in (("pfa", "stderr_pfa"), ("pd", "stderr_pd")):
            lo, hi = getattr(a, attr), getattr(b, attr)
            slack = 3.0 * ((getattr(a, se_attr) or 0.0) + (getattr(b, se_attr) or 0.0))
            if hi < lo - slack - _HARD_TOL:
                warnings.warn(
                    f"empirical curve not monotone in {attr} beyond 3 stderr: "
                    f"{lo!r} then {hi!r}",
                    stacklevel=2,
                )
    return RocCurve(tuple(pts))


@dataclass(frozen=True)
class RocComparison:
    """pd difference between two curves at one pfa grid point."""

    pfa: float
    pd_a: float
    pd_b: float
    delta: float
    stderr: float


def _upper_envelope(curve: RocCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pfa, pd, stderr_pd) sorted by pfa, duplicates collapsed to max pd."""
    best: dict[float, tuple[float, float]] = {}
    for _, pt in curve.points:
        se = pt.stderr_pd or 0.0
        prev = best.get(pt.pfa)
        if prev is None or pt.pd > prev[0]:
            best[pt.pfa] = (pt.pd, se)
    xs = np.array(sorted(best), dtype=np.float64)
    ys = np.array([best[x][0] for x in xs])
    ses = np.array([best[x][1] for x in xs])
    return xs, ys, ses


def roc_dominates(a: RocCurve, b: RocCurve, pfa_grid) -> list[RocComparison]:
    """Interpolate both curves at each grid pfa and report pd_a - pd_b.

    Interpolation is linear in (pfa, pd); reported stderr is the
    root-sum-square of the two linearly interpolated per-curve standard
    errors (an approximation, adequate for 3-sigma screening).
    """
    xa, ya, sa = _upper_envelope(a)
    xb, yb, sb = _upper_envelope(b)
    out = []
    for g in pfa_grid:
        _check_rate("grid pfa", g)
        if not (xa[0] <= g <= xa[-1]) or not (xb[0] <= g <= xb[-1]):
            raise ValueError(
                f"grid pfa {g} outside curve support "
                f"[{max(xa[0], xb[0])}, {min(xa[-1], xb[-1])}]"
            )
        pd_a = float(np.interp(g, xa, ya))
        pd_b = float(np.interp(g, xb, yb))
        se = math.hypot(float(np.interp(g, xa, sa)), float(np.interp(g, xb, sb)))
        out.append(RocComparison(g, pd_a, pd_b, pd_a - pd_b, se))
    return out
