"""Closed-form oracles for the squaring detector and threshold calibration.

Under pure unit-variance noise the p=2 statistic sum(y^2) of n Gaussian
samples is chi-square with n degrees of freedom.  With a known
frame x at linear SNR gamma and fading gain h it is noncentral chi-square
with noncentrality delta = gamma*h^2*sum(x_k^2) (Urkowitz, Proc. IEEE
1967); the P_D routines take gamma times x's mean square.  Averaging
the AWGN detection probability over the Rayleigh gain distribution (h^2
exponential with mean 1, so instantaneous SNR is exponential with mean
gamma_bar) gives the fading-averaged P_D.

The incomplete gamma functions are implemented here rather than taken
from a heavier dependency so that the simulation and its oracle share
nothing but IEEE arithmetic:

* ``pfa_analytic(n, lam) = Q(n/2, lam/2)``, the central chi-square
  tail and so the squaring detector's P_FA: the regularized upper
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
  1e-35 keeps its relative accuracy.  Every weight and ladder step is
  the exp of its log in Loader's saddle-point form, so no large terms
  cancel: against mpmath the value is within 4e-14 for delta up to 1e3
  and 2e-15 at delta = 1e4 and 1e5 (lam near delta); what is left is
  mostly the prefactor of the ladder's first Q.  Weight rows go through
  the ladder in chunks of at most 2^18 entries (2 MiB per temporary), so
  memory stays bounded however long the ladder grows.  The Rayleigh
  oracle passes all 128 quadrature nodes as one vector.  A Marcum-Q
  routine would compute the same quantity; the mixture needs nothing
  beyond the incomplete gamma.
* The Rayleigh oracle's Gauss-Laguerre rule is a table of float
  literals in this module, printed once from numpy's ``laggauss(128)``;
  no run imports ``laggauss`` or makes a LAPACK call.

No closed form is attempted for the cubing detector: a sum of |Gaussian|^3
terms has no standard distribution, which is the gap the Monte Carlo
engine fills.  :func:`h0_law` and :func:`pd_law` are the one place that
says which closed form applies; without one, calibration draws instead.
"""

from __future__ import annotations

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
    # When the prefactor underflows, Q is the 0.0 the converged fraction
    # would return (h * 0.0); at huge x the fraction may never converge.
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if front == 0.0:
        return 0.0
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
            return h * front
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


def pfa_analytic(n: int, lam: float) -> float:
    """False-alarm probability of the squaring detector: the central
    chi-square tail P(chi-square with n dof > lam) = Q(n/2, lam/2)."""
    _check_dof_and_threshold(n, lam)
    return gammaq(n / 2.0, lam / 2.0)


def _log_poisson(k: np.ndarray):
    """h -> ln(h^k e^-h / Gamma(k+1)) for an ascending 1-D k >= 0, h > 0 a
    scalar or a column; the parts in k alone are computed once.

    Above k = 15 this is Loader's saddle-point form -stirlerr(k) - bd0(k, h)
    - ln(2 pi k)/2 ("Fast and accurate computation of binomial
    probabilities", 2000), which adds no terms that cancel: k ln h - h -
    lgamma(k+1) loses about 1e-11 of the value at h = 5e4.  Up to k = 15
    that plain form keeps about 1e-14, as such a term counts only where h
    is small too.
    """
    m = np.searchsorted(k, 15.0, side="right")
    low, k = k[:m], k[m:]
    lgam = np.array([math.lgamma(v + 1.0) for v in low])
    r = 1.0 / k
    rr = r * r
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - rr / 1188) * rr) * rr) * rr) * r
    front = -stirlerr - 0.5 * np.log(2.0 * math.pi * k)
    log_k = np.log(k)

    def at(h):
        log_h = np.log(np.maximum(h, np.finfo(float).tiny))
        # bd0 = k ln(k/h) + h - k.  Where |v| < 0.1, v = d/(k+h) and
        # d = k - h, it is summed as d (v + (1+v) sum_j v^(2j)/(2j+1)),
        # whose terms do not cancel; nine terms leave under 1e-18 of it.
        # Elsewhere its terms cancel too little to matter.
        d = k - h
        bd0 = k * (log_k - log_h) - d
        v = d / (k + h)
        near = np.abs(v) < 0.1
        dn, v = d[near], v[near]
        v2, series = v * v, 0.0
        for j in range(19, 1, -2):
            series = v2 * (1.0 / j + series)
        bd0[near] = dn * (v + (1.0 + v) * series)
        return np.concatenate((low * log_h - h - lgam, front - bd0), axis=-1)

    return at


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


_MIXTURE_BUDGET = 1 << 18  # Poisson weights at once (2 MiB of float64 per temporary)
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
    q0 = q = gammaq(a0 + k0, x)
    t, a, end = _qterm(a0 + k0, x), a0 + k0, k0
    while q < 1.0 and (a <= x or q + t > q):
        q += t
        a += 1.0
        end += 1
        # Re-derive a step that has left the normal range so that no
        # denormal's lost digits carry into the recurrence.
        t = t * x / a if t > 1e-280 else _qterm(a, x)
    # The walk only locates the ladder's end: its steps share the first one's
    # rounding (1e-12 at lam = 1e4, where t ~ 1e-280), so the rungs add
    # steps taken each on their own, a few ulps off at most.
    k = np.arange(k0, end, dtype=float)
    ladder = np.cumsum(np.concatenate(([q0], np.exp(_log_poisson(a0 + k[:-1])(x)))))[:len(k)]
    out = np.array([_poisson_tail(end, float(h)) for h in hs])
    # Rows of Poisson weights go through the ladder in chunks, so memory
    # stays bounded however long the ladder grows.
    log_weight = _log_poisson(k)
    step = max(1, _MIXTURE_BUDGET // max(len(ladder), 1))
    for s in range(0, len(hs), step):
        w = np.exp(log_weight(hs[s:s + step, None]))
        w *= ladder
        out[s:s + step] += w.sum(axis=1)
    return out


def noncentral_chi2_sf(nu: int, delta: float, lam: float) -> float:
    """Survival function of the noncentral chi-square (nu dof, noncentrality delta).

    delta == 0 short-circuits to the central :func:`pfa_analytic` exactly.
    """
    _check_dof_and_threshold(nu, lam)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"noncentrality must be finite and >= 0, got {delta!r}")
    if delta == 0.0:
        return pfa_analytic(nu, lam)
    pd = float(_poisson_mixture(nu / 2.0, np.array([delta / 2.0]), lam / 2.0)[0])
    return min(max(pd, 0.0), 1.0)


def pd_awgn_analytic(n: int, gamma: float, lam: float) -> float:
    """Detection probability on AWGN at linear SNR gamma (gain h = 1).

    The statistic is noncentral chi-square with n dof and
    noncentrality snr*sum(x_k^2) = n*gamma for a known frame x, where
    the caller passes ``gamma`` = snr * mean(x_k^2).
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    return noncentral_chi2_sf(n, n * gamma, lam)


# The 128-node Gauss-Laguerre rule: sum_i w_i f(x_i) approximates
# integral_0^inf f(u) e^-u du.  Printed with repr, which round-trips, from
# numpy's laggauss(128) (numpy 2.4, OpenBLAS, x86-64), which builds the
# rule by an eigensolve (Golub and Welsch, Math. Comp. 23, 1969): the table
# keeps the oracle free of LAPACK and of how a CPU rounds it, and spares
# each run importing laggauss.
_LAGUERRE_X = np.array([
    0.011251388263676821, 0.05928474126902827, 0.14570796659431634, 0.2705531787586663,
    0.433841407553835, 0.6355976657816192, 0.8758523845465173, 1.1546417019744013,
    1.472007563166736, 1.827997778312348, 2.2226660715619038, 2.6560721298834795,
    3.128281655027921, 3.639366419852407, 4.189404329594049, 4.778479488434879,
    5.406682271600501, 6.07410940319654, 6.7808640399756275, 7.527055861229377,
    8.312801165007768, 9.13822297088039, 10.003451129468218, 10.908622438990886,
    11.85388076909186, 12.83937719222325, 13.865270122892085, 14.931725465091924,
    16.038916768267075, 17.187025392181262, 18.376240681089694, 19.60676014764165,
    20.87878966697137, 22.19254368146784, 23.54824541674892, 24.94612710940349,
    26.386430247105288, 27.86940582174639, 29.395314596284916, 30.964427386052755,
    32.57702535532375, 34.23340033000224, 35.93385512735615, 37.678703903788374,
    39.46827252171577, 41.30289893670709, 43.18293360612038, 45.10873992057723,
    47.08069465971722, 49.099188473791024, 51.16462639277666, 53.27742836484077,
    55.43802982611789, 57.64688230394523, 59.90445405587206, 62.21123074696146,
    64.56771616812122, 66.97443299844156, 69.43192361478343, 71.94075095215437,
    74.50149941873403, 77.11477586977057, 79.78121064496855, 82.50145867443146,
    85.27620065871535, 88.10614432909951, 90.99202579479261, 93.93461098447969,
    96.93469719038194, 99.99311472386427, 103.11072869259398, 106.28844091034544,
    109.52719195177755, 112.8279633659042, 116.19178006355678, 119.61971289593201,
    123.1128814433602, 126.67245703576019, 130.29966602891346, 133.99579336374796,
    137.7621864393394, 141.60025933439303, 145.51149741665958, 149.4974623851777,
    153.55979779656644, 157.7002351339781, 161.92060048597563, 166.22282191276886,
    170.60893758924223, 175.0811048284146, 179.641610105867, 184.2928802258468,
    189.0374947939541, 193.87820019047297, 198.8179252737206, 203.85979908576985,
    209.00717088551087, 214.26363289878802, 219.63304625557817, 225.11957068420904,
    230.72769865820362, 236.46229485017767, 242.3286419497027, 248.33249416235716,
    254.48014004486913, 260.7784767735797, 267.2350985289538, 273.8584024626936,
    280.65771677632347, 287.64345689921936, 294.82731778764776, 302.22251324644947,
    309.84407732661265, 317.7092489549063, 325.8379701211949, 334.2535420676541,
    342.9835062738253, 352.0608535465262, 361.52572639232505, 371.42788921432754,
    381.8304441190611, 392.8156712408081, 404.4947247505151, 417.02490297798903,
    430.64344416659736, 445.743096973928, 463.0800341094463, 484.615543986444,
])
_LAGUERRE_W = np.array([
    0.028551844452651035, 0.06335021178491794, 0.09130838136679392,
    0.10991390041071356, 0.11827417103409593, 0.1170457390003754,
    0.10808998754543912, 0.09394288863896039, 0.07725366879786064,
    0.06032705626564558, 0.044847348247189875, 0.03179694793686763,
    0.021530149453793498, 0.013936951733841641, 0.008631585380200209,
    0.005117777013667797, 0.0029063474364849247, 0.001581432943316221,
    0.0008247389850985627, 0.0004123260885395586, 0.00019764942644251118,
    9.085157887821105e-05, 4.004849278356429e-05, 1.6930762398076547e-05,
    6.8645252911086324e-06, 2.669216598141299e-06, 9.953640102860605e-07,
    3.559435753001789e-07, 1.2205325519483985e-07, 4.012791920934139e-08,
    1.2648114147471852e-08, 3.821489729425416e-09, 1.106641059227006e-09,
    3.071009237096476e-10, 8.165499384151915e-11, 2.0798536327807925e-11,
    5.073953770838298e-12, 1.185314377179243e-12, 2.65092752372804e-13,
    5.6746322157558915e-14, 1.1623738147071065e-14, 2.2777662927016544e-15,
    4.2688319702960985e-16, 7.64928879936084e-17, 1.3101313919834053e-17,
    2.1441452341239985e-18, 3.3519442872077125e-19, 5.003733086457782e-20,
    7.130030641956162e-21, 9.694540740394167e-22, 1.2572847556393827e-22,
    1.554661095562559e-23, 1.832109793252833e-24, 2.0567979781360538e-25,
    2.198666052622652e-26, 2.2369160073235587e-27, 2.164960644633365e-28,
    1.9922276806181622e-29, 1.7421538863248417e-30, 1.4469497861057801e-31,
    1.140751706122702e-32, 8.531805097807407e-34, 6.049701177936868e-35,
    4.064343243263562e-36, 2.585349374987172e-37, 1.5560287625220566e-38,
    8.854625849660504e-40, 4.76045751736322e-41, 2.416078510660532e-42,
    1.1566470503384042e-43, 5.21851061949053e-45, 2.2169743353353805e-46,
    8.860102756610483e-48, 3.327811159200116e-49, 1.1734900430778984e-50,
    3.880967726419846e-52, 1.202426327932674e-53, 3.486023044104519e-55,
    9.445545221593612e-57, 2.3888842745589273e-58, 5.631884750752477e-60,
    1.2359286119117128e-61, 2.5210042023764216e-63, 4.772224621998463e-65,
    8.370019891996175e-67, 1.3578243411199973e-68, 2.0336887271522908e-70,
    2.8068384806944207e-72, 3.562567607060276e-74, 4.149452749292608e-76,
    4.425007965764582e-78, 4.3100842612880155e-80, 3.824661016760052e-82,
    3.083547842598158e-84, 2.252139822170326e-86, 1.4855147406445582e-88,
    8.819635476367266e-91, 4.6964178221246515e-93, 2.234393825454218e-95,
    9.458787038218903e-98, 3.546960831240135e-100, 1.1725321300342731e-102,
    3.399090555639315e-105, 8.591907200622054e-108, 1.8818913973526714e-110,
    3.5473586323060535e-113, 5.711482228284574e-116, 7.78947378804456e-119,
    8.915898699490266e-122, 8.476856358863863e-125, 6.617326935494856e-128,
    4.1862163574141207e-131, 2.1143851689801508e-134, 8.382163501362361e-138,
    2.5572023021995627e-141, 5.8667686421879136e-145, 9.849861030058638e-149,
    1.1713839433416467e-152, 9.483963265562622e-157, 4.977096381122968e-161,
    1.5908985277505267e-165, 2.8563038291183435e-170, 2.5822507196906743e-175,
    1.0073502500506266e-180, 1.344252500443508e-186, 4.182962214035409e-193,
    1.4571653077267546e-200, 8.64059169046095e-210,
])


def pd_rayleigh_analytic(n: int, gamma_bar: float, lam: float) -> float:
    """Rayleigh-averaged detection probability at mean linear SNR gamma_bar.

    Evaluates integral_0^inf pd_awgn(n, gamma_bar*u, lam) e^-u du by
    128-node Gauss-Laguerre quadrature; u = h^2 is exponential(1) under
    the E[h^2] = 1 envelope convention.  All nodes share one ladder of
    central tails, so a call costs one Poisson-mixture evaluation.  The
    nodes and weights are the module's literal table, printed from
    numpy's ``laggauss(128)``, so no LAPACK call runs and the values do
    not depend on the machine's LAPACK build.

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
    hs = n * gamma_bar * _LAGUERRE_X / 2.0
    total = float((_LAGUERRE_W * _poisson_mixture(n / 2.0, hs, lam / 2.0)).sum())
    if not (math.isfinite(total) and -1e-9 <= total <= 1.0 + 1e-9):
        raise NumericError(f"quadrature produced {total!r} for n={n}, "
                           f"gamma_bar={gamma_bar}, lam={lam}")
    return min(max(total, 0.0), 1.0)


def h0_law(p: int, n: int):
    """``(sf, isf)`` of the p-statistic's exact H0 law at n samples
    (P_FA at a threshold, the threshold of a P_FA: chi-square at p=2), or None.
    Both look this module's functions up per call, so wrappers see each call."""
    if p != 2:
        return None
    return (lambda lam: pfa_analytic(n, lam)), (lambda target: _bisect_chi2_isf(n, target))


def pd_law(p: int, n: int, channel, signal):
    """``(name, pd(snr_db, lam))`` of the p-statistic's exact P_D law
    for ``signal`` frames on ``channel``, at SNR times their mean square: at p=2
    "analytic" (noncentral chi-square) on AWGN, "quadrature" (its Rayleigh
    average) on Rayleigh; or None.  Oracles resolve per call, as in h0_law."""
    mean_square = signal.mean_square(n)
    if p != 2 or mean_square is None:  # frames that differ in mean square have none
        return None
    from .signal_channel import AWGN, snr_to_linear  # here, as only the lookup needs them

    if channel.kind == AWGN:
        return "analytic", lambda snr_db, lam: pd_awgn_analytic(
            n, snr_to_linear(snr_db) * mean_square, lam)
    return "quadrature", lambda snr_db, lam: pd_rayleigh_analytic(
        n, snr_to_linear(snr_db) * mean_square, lam)


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated threshold with its achieved false-alarm rate.

    ``tolerance`` records the guarantee under which the calibration ran;
    construction fails if ``achieved_pfa`` strays outside it.  ``mc_trials``,
    the H0 draw's size, is 0 on the analytic route and so names the route."""

    threshold: float
    target_pfa: float
    achieved_pfa: float
    tolerance: float
    mc_trials: int = 0

    def __post_init__(self):
        if abs(self.achieved_pfa - self.target_pfa) > self.tolerance:
            raise ValueError(
                f"achieved pfa {self.achieved_pfa} misses target {self.target_pfa} "
                f"beyond tolerance {self.tolerance}"
            )

    @property
    def method(self) -> str:
        """The route: "analytic" without a draw, "empirical-quantile" with one."""
        return "empirical-quantile" if self.mc_trials else "analytic"


def calibrate_threshold(
    spec,
    n: int,
    targets,
    *,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> list[CalibrationResult]:
    """Find, for each P_FA target, the lambda at which the detector hits it.

    Returns one result per target, in the order given.  The route
    follows :func:`h0_law`, the one place that choice is made: analytic
    where the detector's H0 law is known (the squaring detector, p=2),
    empirical quantile everywhere else.

    Analytic: each lambda is the H0 law's ``isf`` of its target, and
    ``achieved_pfa`` its ``sf`` there.

    Empirical quantile: each lambda is the (1 - target)
    linear-interpolation quantile of ``trials`` >= 1e5 seeded pure-noise
    statistics, drawn from the calibration domain of the seed's stream
    (disjoint from evaluation trials); works for every p.  H0 frames are
    unit noise alone, so no channel enters.  Each call draws once, on
    ``workers`` threads (the same draw for any worker count), and takes
    every target's quantile from that draw; nothing is kept between
    calls.  A target within its own tolerance at ``trials`` (3 binomial
    stderr, at least 2/trials) of 0 or of 1 raises ``ValueError`` naming
    the trials it needs: at 1e5 trials that refuses 1e-5 and 1 - 1e-5
    and accepts 1e-4 and 1 - 1e-4.
    """
    if not isinstance(spec, DetectorSpec):
        raise ValueError(f"spec must be a DetectorSpec, got {spec!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    targets = tuple(targets)
    for target in targets:
        if not (isinstance(target, (int, float)) and 0.0 < target < 1.0):
            raise ValueError(f"target_pfa must lie strictly inside (0, 1), got {target!r}")

    law = h0_law(spec.p, n)
    if law is not None:
        sf, isf = law
        results = []
        for target in targets:
            lam = isf(target)
            results.append(CalibrationResult(
                threshold=lam,
                target_pfa=target,
                achieved_pfa=sf(lam),
                tolerance=min(1e-9, 1e-6 * target),
            ))
        return results

    if trials < 100_000:
        raise ValueError(f"empirical calibration needs >= 1e5 trials, got {trials}")
    for target in targets:
        # distance to the nearer end: 1 - 1e-5 is no easier to resolve than 1e-5
        margin = min(target, 1.0 - target)
        if _quantile_tolerance(margin, trials) >= margin:
            needed = math.floor(max(9.0 * (1.0 - margin), 2.0) / margin) + 1
            while _quantile_tolerance(margin, needed) >= margin:
                needed += 1
            raise ValueError(
                f"target_pfa {target:g} is within its own tolerance at {trials} "
                f"calibration trials; it needs cal_trials >= {needed}"
            )
    # Engine import is local so this closed-form module stays import-light;
    # the calibration domain keeps these draws disjoint from every
    # evaluation trial of the same seed.
    from .montecarlo import calibration_h0_statistics

    stats = calibration_h0_statistics(spec, n, trials, seed=seed, workers=workers)
    # The quantiles are read by index from the sorted draw, which the
    # counts below search as well.
    stats.sort()
    lams = _sorted_quantiles(stats, [1.0 - t for t in targets])
    below = np.searchsorted(stats, lams, side="left")
    results = []
    for target, lam, k in zip(targets, lams, below):
        achieved = (trials - int(k)) / trials
        results.append(CalibrationResult(
            threshold=float(lam),
            target_pfa=target,
            achieved_pfa=achieved,
            tolerance=_quantile_tolerance(achieved, trials),
            mc_trials=trials,
        ))
    return results


def _sorted_quantiles(stats: np.ndarray, probs) -> np.ndarray:
    """numpy's ``quantile(stats, probs, method="linear")`` of an already
    sorted 1-D ``stats``: definition 7 of Hyndman and Fan (1996), two
    order statistics read by index and numpy's own interpolation steps,
    so every value keeps its bits.  numpy's function would import
    ``numpy.ma`` and partition a copy of the draw.
    """
    last = stats.size - 1
    vi = last * np.asarray(probs, dtype=np.float64)
    lo = np.floor(vi)
    g = vi - lo
    lo = lo.astype(np.intp)
    a = stats[lo]
    b = stats[np.minimum(lo + 1, last)]
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


def _quantile_tolerance(pfa: float, trials: int) -> float:
    """Empirical calibration tolerance: 3 binomial stderr, at least 2/trials."""
    return max(3.0 * math.sqrt(pfa * (1.0 - pfa) / trials), 2.0 / trials)


def _bisect_chi2_isf(n: int, target: float) -> float:
    """Solve pfa_analytic(n, lam) = target by bisection to
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
