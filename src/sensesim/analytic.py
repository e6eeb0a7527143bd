"""Closed-form oracles for the squaring detector and threshold calibration.

Under pure noise the normalized p=2 statistic sum(y^2)/sigma^2 of n
Gaussian samples is chi-square with n degrees of freedom.  With a known
frame x at linear SNR gamma and fading gain h it is noncentral chi-square
with noncentrality delta = gamma*h^2*sum(x_k^2) (Urkowitz, Proc. IEEE
1967); the P_D routines take gamma times x's mean square.  Averaging
the AWGN detection probability over the Rayleigh gain distribution (h^2
exponential with mean 1, so instantaneous SNR is exponential with mean
gamma_bar) gives the fading-averaged P_D.

The incomplete gamma functions are implemented here rather than taken
from a heavier dependency so that the simulation and its oracle share
nothing but IEEE arithmetic:

* ``chi2_sf(nu, lam) = Q(nu/2, lam/2)``, the regularized upper
  incomplete gamma, via the standard power series for x < a+1 and a
  modified Lentz continued fraction otherwise (Numerical Recipes
  section 6.2), good to about 1e-12 absolute.
* The noncentral survival function is the Poisson mixture
  sum_k Pois(k; delta/2) * Q(nu/2+k, lam/2).  One kernel evaluates it
  for a whole vector of Poisson means.  A ladder of central tails is
  built from one Q(nu/2+k0, lam/2) by the stable upward recurrence
  Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1) until Q rounds to 1
  (k0 > 0 skips steps below 1e-280 when lam >> nu, so the walk is
  O(sqrt(lam))); k0 and the length K depend on (nu, lam) only.  Each
  mean then takes its Poisson weights of k0 <= k < K against the ladder
  as one row sum, plus the mass of k >= K as one P(K, delta/2).  The
  sums are numpy's own reductions, not BLAS products, so the bits do
  not depend on how many threads BLAS runs.
  Nothing is cut off by an absolute mass bound, so a survival value of
  1e-35 keeps its relative accuracy: about 2e-13 against mpmath for
  delta up to 1e3.  Beyond that the weights' exponent
  k*ln(h) - h - lgamma(k+1), h = delta/2, cancels large terms, and the
  relative error grows to 5e-12 at delta = 1e4 and 2e-11 at 1e5 (lam
  near delta).  Weight rows go through the ladder in chunks of at most
  2^20 entries (8 MiB), so memory stays bounded however long the ladder
  grows.  The Rayleigh oracle passes all 128 quadrature nodes as one
  vector.  A Marcum-Q routine would compute the same quantity; the
  mixture needs nothing beyond the incomplete gamma.

No closed form is attempted for the cubing detector: a sum of |Gaussian|^3
terms has no standard distribution, which is the gap the Monte Carlo
engine fills.  Cubing thresholds come from the empirical quantile route
of :func:`calibrate_threshold`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorSpec

_GAMMA_EPS = 1e-16
# Iteration cap of both incomplete gamma routines, plus 32 sqrt(x): near
# a = x the series needs about 8 sqrt(x) terms, the continued fraction fewer.
_GAMMA_ITMAX = 10000
# Inner solve tolerance, absolute and relative to the target; the
# round-trip contract is ten times looser, min(1e-9, 1e-6 * target).
_BISECT_TOL = 1e-10
_BISECT_REL = 1e-7


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


def _gamma_itmax(x: float) -> int:
    return _GAMMA_ITMAX + int(32.0 * math.sqrt(x))


def _gammap_series(a: float, x: float) -> float:
    # Power series for P(a, x); converges fast for x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_gamma_itmax(x)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma series stalled at a={a}, x={x}")


def _gammaq_contfrac(a: float, x: float) -> float:
    # Modified Lentz continued fraction for Q(a, x); converges for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _gamma_itmax(x) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def gammaq(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"shape a must be positive and finite, got {a!r}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"argument x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gammap_series(a, x)
    return _gammaq_contfrac(a, x)


def _check_dof_and_threshold(nu, lam) -> None:
    if not isinstance(nu, (int, np.integer)) or nu < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {nu!r}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")


def chi2_sf(nu: int, lam: float) -> float:
    """P(chi-square with nu dof > lam) = Q(nu/2, lam/2)."""
    _check_dof_and_threshold(nu, lam)
    return gammaq(nu / 2.0, lam / 2.0)


def _qterm(a: float, x: float) -> float:
    # t(a, x) = x^a e^-x / Gamma(a+1), the step in Q(a+1,x) = Q(a,x) + t(a,x).
    if x == 0.0:
        return 0.0
    return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))


def _poisson_tail(k: int, h: float) -> float:
    # P(N >= k) for N ~ Poisson(h), the regularized lower gamma P(k, h).
    # Below the mean the series sums it directly, so a tiny tail keeps
    # its relative accuracy; above it 1 - Q loses nothing.
    if k == 0:
        return 1.0
    if h == 0.0:
        return 0.0
    if h < k + 1.0:
        return _gammap_series(float(k), h)
    return 1.0 - gammaq(float(k), h)


_MIXTURE_BUDGET = 1 << 20  # Poisson weights held at once (8 MiB of float64)
_LADDER_FLOOR = 1e-280  # below the peak, the ladder starts at its first step this large


def _poisson_mixture(a0: float, hs: np.ndarray, x: float) -> np.ndarray:
    """sum_k Pois(k; h) * Q(a0 + k, x) for every Poisson mean h in ``hs``."""
    # The ladder Q(a0+k, x), k0 <= k < K, runs upward until Q rounds to 1
    # (or, past the peak of the steps, stops moving a rounding short of
    # it).  It depends on (a0, x) alone, so every h shares it.  The steps
    # rise up to a ~ x; k0 is bisected as the first whose step reaches
    # _LADDER_FLOOR, so the walk is O(sqrt(x)), and the rungs dropped below
    # it add at most Q(a0+k0, x), about 1e-280 * sqrt(x), to any value.
    k0 = 0
    if a0 < x and _qterm(a0, x) < _LADDER_FLOOR:
        lo, k0 = 0, math.ceil(x - a0)
        while k0 - lo > 1:
            mid = (lo + k0) // 2
            if _qterm(a0 + mid, x) < _LADDER_FLOOR:
                lo = mid
            else:
                k0 = mid
    ladder = []
    q, t, a = gammaq(a0 + k0, x), _qterm(a0 + k0, x), a0 + k0
    while q < 1.0 and (a <= x or q + t > q):
        ladder.append(q)
        q += t
        a += 1.0
        # Re-derive a step that has left the normal range so that no
        # denormal's lost digits carry into the recurrence.
        t = t * x / a if t > 1e-280 else _qterm(a, x)
    ladder = np.array(ladder)
    ks = range(k0, k0 + len(ladder))
    k = np.arange(k0, ks.stop, dtype=float)
    log_k_fact = np.array([math.lgamma(i + 1.0) for i in ks])
    log_h = np.log(np.maximum(hs, np.finfo(float).tiny))
    out = np.array([_poisson_tail(ks.stop, float(h)) for h in hs])
    # Rows of Poisson weights go through the ladder in chunks, so memory
    # stays bounded however long the ladder grows.
    step = max(1, _MIXTURE_BUDGET // max(len(ladder), 1))
    for s in range(0, len(hs), step):
        w = np.multiply.outer(log_h[s:s + step], k)
        w -= hs[s:s + step, None]
        w -= log_k_fact
        np.exp(w, out=w)
        w *= ladder
        out[s:s + step] += w.sum(axis=1)
    return out


def noncentral_chi2_sf(nu: int, delta: float, lam: float) -> float:
    """Survival function of the noncentral chi-square (nu dof, noncentrality delta).

    delta == 0 short-circuits to the central :func:`chi2_sf` exactly.
    """
    _check_dof_and_threshold(nu, lam)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"noncentrality must be finite and >= 0, got {delta!r}")
    if delta == 0.0:
        return chi2_sf(nu, lam)
    pd = float(_poisson_mixture(nu / 2.0, np.array([delta / 2.0]), lam / 2.0)[0])
    return min(max(pd, 0.0), 1.0)


def pfa_analytic(n: int, lam: float) -> float:
    """False-alarm probability of the normalized squaring detector."""
    return chi2_sf(n, lam)


def pd_awgn_analytic(n: int, gamma: float, lam: float) -> float:
    """Detection probability on AWGN at linear SNR gamma (gain h = 1).

    The normalized statistic is noncentral chi-square with n dof and
    noncentrality snr*sum(x_k^2) = n*gamma for a known frame x, where
    the caller passes ``gamma`` = snr * mean(x_k^2).
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    return noncentral_chi2_sf(n, n * gamma, lam)


_LAGUERRE_NODES = 128


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    # Built on first use, not at import, so commands without the
    # Rayleigh oracle do not pay for it.
    return np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)


def pd_rayleigh_analytic(n: int, gamma_bar: float, lam: float) -> float:
    """Rayleigh-averaged detection probability at mean linear SNR gamma_bar.

    Evaluates integral_0^inf pd_awgn(n, gamma_bar*u, lam) e^-u du by
    128-node Gauss-Laguerre quadrature; u = h^2 is exponential(1) under
    the E[h^2] = 1 envelope convention.  All nodes share one ladder of
    central tails, so a call costs one Poisson-mixture evaluation.

    The rule's error is not monotone in SNR.  Measured absolute error at
    n=10, lam=15.99 (P_FA 0.1) against the exact series sum_k
    theta^k/(1+theta)^(k+1) * Q(n/2+k, lam/2), theta = n*gamma_bar/2, on
    a 0.5 dB grid: at most 1.8e-7 up to 10 dB (5.2e-7 at lam for P_FA
    1e-3), but 1.2e-3 near 18 dB, 1.2e-4 at 20 dB, 3.0e-3 near 23.5 dB
    and 8.1e-4 at 30 dB, so a value between the decade points is not
    bounded by the 20 dB figure.  Plain adaptive quadrature over [0, 60]
    misses the dip near u = lam/(n*gamma_bar) at high SNR, just as this
    rule does.
    """
    _check_dof_and_threshold(n, lam)
    if not (math.isfinite(gamma_bar) and gamma_bar > 0):
        raise ValueError(f"gamma_bar must be positive and finite, got {gamma_bar!r}")
    xs, ws = _laguerre_rule()
    total = float((ws * _poisson_mixture(n / 2.0, n * gamma_bar * xs / 2.0, lam / 2.0)).sum())
    if not (math.isfinite(total) and -1e-9 <= total <= 1.0 + 1e-9):
        raise NumericError(f"quadrature produced {total!r} for n={n}, "
                           f"gamma_bar={gamma_bar}, lam={lam}")
    return min(max(total, 0.0), 1.0)


class CalibrationMethod(enum.Enum):
    ANALYTIC = "analytic"
    EMPIRICAL_QUANTILE = "empirical-quantile"


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated threshold with its achieved false-alarm rate.

    ``tolerance`` records the guarantee under which the calibration ran;
    construction fails if ``achieved_pfa`` strays outside it.
    """

    threshold: float
    target_pfa: float
    achieved_pfa: float
    method: CalibrationMethod
    tolerance: float
    mc_trials: int = 0
    stderr_pfa: float = 0.0

    def __post_init__(self):
        if abs(self.achieved_pfa - self.target_pfa) > self.tolerance:
            raise ValueError(
                f"achieved pfa {self.achieved_pfa} misses target {self.target_pfa} "
                f"beyond tolerance {self.tolerance}"
            )


def calibrate_threshold(
    spec,
    n: int,
    target_pfa: float,
    method: CalibrationMethod | None = None,
    *,
    channel=None,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> CalibrationResult:
    """Find lambda such that the detector's P_FA hits ``target_pfa``.

    Without ``method`` the route follows the exponent: analytic for the
    squaring detector (p=2), empirical quantile for every other p.  This
    is the one place that choice is made.

    Analytic: bisection on :func:`pfa_analytic`; available only for the
    p=2 detector, whose H0 law is known.  The normalized threshold is
    rescaled by sigma^p for an unnormalized spec.

    EmpiricalQuantile: lambda is the (1 - target) linear-interpolation
    quantile of ``trials`` >= 1e5 seeded pure-noise statistics, drawn
    from the calibration domain of the seed's stream (disjoint from
    evaluation trials); works for every p.  ``channel`` defaults to AWGN
    with unit noise variance.  The sorted draw of the latest (spec, n,
    trials, channel, seed) is kept, so a grid of targets costs one draw,
    made on ``workers`` threads (the same draw for any worker count).
    A target no larger than its own tolerance at ``trials`` (3 binomial
    stderr, at least 2/trials) raises ``ValueError`` naming the trials
    it needs: at 1e5 trials that refuses 1e-5 and accepts 1e-4.
    """
    if not isinstance(spec, DetectorSpec):
        raise ValueError(f"spec must be a DetectorSpec, got {spec!r}")
    if not (isinstance(target_pfa, (int, float)) and 0.0 < target_pfa < 1.0):
        raise ValueError(f"target_pfa must lie strictly inside (0, 1), got {target_pfa!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if method is None:
        method = (
            CalibrationMethod.ANALYTIC if spec.p == 2 else CalibrationMethod.EMPIRICAL_QUANTILE
        )

    if method is CalibrationMethod.ANALYTIC:
        if spec.p != 2:
            raise ValueError(
                "analytic calibration is only available for the squaring detector (p=2); "
                "use EMPIRICAL_QUANTILE for other exponents"
            )
        lam = _bisect_chi2_isf(n, target_pfa)
        achieved = pfa_analytic(n, lam)
        if not spec.normalized:
            if channel is None:
                raise ValueError("unnormalized calibration needs the channel for sigma")
            lam *= channel.noise_variance  # sigma^2 = sigma^p at p=2
        return CalibrationResult(
            threshold=lam,
            target_pfa=target_pfa,
            achieved_pfa=achieved,
            method=method,
            tolerance=min(1e-9, 1e-6 * target_pfa),
        )

    if method is CalibrationMethod.EMPIRICAL_QUANTILE:
        if trials < 100_000:
            raise ValueError(f"empirical calibration needs >= 1e5 trials, got {trials}")
        if _quantile_tolerance(target_pfa, trials) >= target_pfa:
            needed = math.floor(max(9.0 * (1.0 - target_pfa), 2.0) / target_pfa) + 1
            while _quantile_tolerance(target_pfa, needed) >= target_pfa:
                needed += 1
            raise ValueError(
                f"target_pfa {target_pfa:g} is within its own tolerance at {trials} "
                f"calibration trials; it needs cal_trials >= {needed}"
            )
        stats = _sorted_h0_statistics(spec, n, trials, channel, seed, workers)
        # The quantile depends only on order statistics, so the sorted
        # draw gives the same bits as the raw one.
        lam = float(np.quantile(stats, 1.0 - target_pfa, method="linear"))
        achieved = (trials - int(np.searchsorted(stats, lam, side="left"))) / trials
        return CalibrationResult(
            threshold=lam,
            target_pfa=target_pfa,
            achieved_pfa=achieved,
            method=method,
            tolerance=_quantile_tolerance(achieved, trials),
            mc_trials=trials,
            stderr_pfa=math.sqrt(achieved * (1.0 - achieved) / trials),
        )

    raise ValueError(f"unknown calibration method {method!r}")


def _quantile_tolerance(pfa: float, trials: int) -> float:
    """Empirical calibration tolerance: 3 binomial stderr, at least 2/trials."""
    return max(3.0 * math.sqrt(pfa * (1.0 - pfa) / trials), 2.0 / trials)


# (key, sorted statistics) of the last empirical calibration draw.  One
# entry: a P_FA grid calibrates every target against the same draw, and
# key and array are replaced together so a reader never pairs them wrongly.
_h0_memo: tuple = (None, None)


def _sorted_h0_statistics(spec, n, trials, channel, seed, workers=1) -> np.ndarray:
    """Sorted, read-only calibration-domain H0 statistics, drawn once per
    (spec, n, trials, channel, seed), not workers, while that key is latest."""
    global _h0_memo
    key = (spec, n, trials, channel, seed)
    memo_key, stats = _h0_memo
    if memo_key != key:
        # Engine import is local so this closed-form module stays
        # import-light; the calibration domain keeps these draws
        # disjoint from every evaluation trial of the same seed.
        from .montecarlo import calibration_h0_statistics

        stats = calibration_h0_statistics(spec, n, trials, channel=channel, seed=seed,
                                          workers=workers)
        stats.sort()
        stats.setflags(write=False)
        _h0_memo = (key, stats)
    return stats


def _bisect_chi2_isf(n: int, target: float) -> float:
    """Solve chi2_sf(n, lam) = target by bisection to
    |residual| <= min(1e-10, 1e-7 * target).

    A target the solve cannot resolve to that accuracy is rejected with
    ``ValueError``: one below the normal double range, where the tail
    itself keeps fewer digits, or one whose bracket shrinks to adjacent
    doubles first.
    """
    if target < np.finfo(float).tiny:
        raise ValueError(
            f"target_pfa {target!r} lies below the normal double range, where its "
            f"threshold cannot be resolved to relative accuracy {_BISECT_REL}"
        )
    tol = min(_BISECT_TOL, _BISECT_REL * target)
    lo = 0.0
    hi = max(4.0 * n, 8.0)
    while pfa_analytic(n, hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericError(f"could not bracket threshold for n={n}, target={target}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            raise ValueError(
                f"target_pfa {target!r}: no threshold at n={n} resolves it to "
                f"relative accuracy {_BISECT_REL}"
            )
        f = pfa_analytic(n, mid)
        if abs(f - target) <= tol:
            return mid
        if f > target:
            lo = mid
        else:
            hi = mid
