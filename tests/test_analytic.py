"""Closed-form tail probabilities against independent oracles.

scipy is a test-only dependency here: the production code carries its
own gamma-tail and mixture implementations, and these tests pin them to
scipy's, to quadrature, and to brute-force Monte Carlo.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sensesim
from sensesim import analytic, montecarlo
from sensesim.analytic import (
    CalibrationResult,
    calibrate_threshold,
    gammaq,
    h0_law,
    noncentral_chi2_sf,
    pd_awgn_analytic,
    pd_law,
    pd_rayleigh_analytic,
    pfa_analytic,
)
from sensesim.detector import DetectorSpec
from sensesim.rng import mix64, normal_block
from sensesim.signal_channel import (
    AWGN,
    RAYLEIGH,
    Bpsk,
    ChannelModel,
    GaussianIid,
    Sinusoid,
    snr_to_linear,
)

_LAM_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]


def test_chi2_two_dof_closed_form():
    for lam in np.linspace(0.0, 100.0, 401):
        assert abs(pfa_analytic(2, float(lam)) - math.exp(-lam / 2.0)) <= 1e-12


def test_gammaq_against_scipy():
    worst = 0.0
    for a in (0.5, 1.0, 2.5, 5.0, 12.0, 25.0, 50.0):
        for x in (0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 30.0, 80.0, 200.0):
            worst = max(worst, abs(gammaq(a, x) - scipy.special.gammaincc(a, x)))
    assert worst <= 5e-12


def test_pfa_analytic_against_scipy():
    worst = 0.0
    for nu in (1, 2, 3, 5, 10, 20, 50, 100):
        for lam in _LAM_GRID:
            worst = max(worst, abs(pfa_analytic(nu, lam) - scipy.stats.chi2.sf(lam, nu)))
    assert worst <= 1e-11


def test_noncentral_chi2_sf_against_scipy():
    worst = 0.0
    for nu in (1, 2, 5, 10, 50):
        for delta in (1e-8, 0.1, 1.0, 5.0, 20.0, 100.0, 1e4, 1e5):
            for lam in _LAM_GRID + [500.0, 2000.0]:
                worst = max(
                    worst,
                    abs(
                        noncentral_chi2_sf(nu, delta, lam)
                        - scipy.stats.ncx2.sf(lam, nu, delta)
                    ),
                )
    assert worst <= 1e-10


def _mp_noncentral_sf(nu, delta, lam):
    # The Poisson mixture at 30 digits, from k0 = h - 40 sqrt(h) (or 0),
    # below which the Poisson mass is under e^-800, until past the mean
    # the terms stop mattering: one gammainc for Q(nu/2 + k0, x), then
    # Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1) and the Poisson weight
    # recurrence (a gammainc per term takes about 25 s at delta = 1e5).
    with mpmath.workdps(30):
        h, x = mpmath.mpf(delta) / 2, mpmath.mpf(lam) / 2
        k = max(0, int(h - 40 * mpmath.sqrt(h)))
        a = mpmath.mpf(nu) / 2 + k
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        step = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
        weight = mpmath.exp(k * mpmath.log(h) - h - mpmath.loggamma(k + 1))
        total = mpmath.mpf(0)
        while True:
            term = weight * q
            total += term
            if k > h and term < total * mpmath.mpf("1e-32"):
                return total
            q += step
            a += 1
            step *= x / a
            k += 1
            weight *= h / k


def test_noncentral_chi2_sf_relative_accuracy_against_mpmath():
    # Relative, not absolute: a 1e-35 tail must keep its digits too.
    # (10, 1, 200) is 8.2e-35, where a cut-off on the Poisson mass at
    # 1e-12 used to cost 1e-3 of the value.  At delta = 1e4 and 1e5 the
    # plain weight exponent k ln h - h - lgamma(k+1) cancels terms of
    # order h ln h: it cost 5e-12 at (10, 1e4, 1e4) and 1.75e-11 at
    # (10, 1e5, 1.01e5), where Loader's form keeps a few ulps.
    worst = 0.0
    points = [(10, 1.0, 200.0)] + [
        (nu, delta, lam)
        for nu in (1, 2, 10, 50)
        for delta in (0.1, 1.0, 20.0, 100.0)
        for lam in (1.0, 20.0, 200.0)
    ] + [(10, 1e4, 1e4), (10, 1e4, 1.02e4), (1, 1e4, 9.9e3),
         (10, 1e5, 1e5), (10, 1e5, 1.01e5), (50, 1e5, 1.02e5)]
    for nu, delta, lam in points:
        want = _mp_noncentral_sf(nu, delta, lam)
        if want > mpmath.mpf("1e-300"):
            got = noncentral_chi2_sf(nu, delta, lam)
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-13


def test_incomplete_gamma_cap_grows_with_the_argument():
    # Near a = x the series needs about 8 sqrt(x) terms: at x = 5e7 that
    # is past a fixed cap of 10,000, which raised NumericError here.
    assert gammaq(5e7 + 52585, 5e7) == pytest.approx(
        scipy.special.gammaincc(5e7 + 52585, 5e7), rel=1e-12, abs=0.0
    )
    # The mixture keeps a few ulps here (3e-16 against 30-digit mpmath);
    # scipy's own value is 2.4e-13 off, which bounds the agreement.
    assert noncentral_chi2_sf(10, 1e8, 1e8) == pytest.approx(
        scipy.stats.ncx2.sf(1e8, 10, 1e8), rel=1e-12, abs=0.0
    )


def test_oracle_bits_do_not_depend_on_blas_threads():
    # Fresh processes, since OpenBLAS reads its thread count at load; a
    # BLAS matrix product here moved the last bits between 1 and 2 threads.
    code = ("from sensesim.analytic import noncentral_chi2_sf as f, pd_rayleigh_analytic as r\n"
            "print(repr(f(10, 1e6, 1e6)), repr(f(10, 1e8, 1e8)), repr(r(10, 10.0, 15.99)))")
    src = os.path.dirname(os.path.dirname(sensesim.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                       ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


def test_noncentral_against_monte_carlo():
    # brute-force oracle: (z + mu)^2 sums with total offset delta
    nu, delta, trials = 10, 12.5, 400_000
    z = normal_block(np.array([mix64(314)], dtype=np.uint64), trials * nu)
    z = z.reshape(trials, nu)
    z[:, 0] += math.sqrt(delta)
    t = np.sum(z**2, axis=1)
    for lam in (10.0, 20.0, 30.0):
        mc = float(np.mean(t >= lam))
        se = math.sqrt(mc * (1 - mc) / trials)
        assert abs(noncentral_chi2_sf(nu, delta, lam) - mc) <= 4.0 * se


def test_tail_probability_bounds_and_monotonicity():
    for nu in (2, 10):
        vals = [pfa_analytic(nu, lam) for lam in _LAM_GRID]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert pfa_analytic(10, 0.0) == 1.0
    # detection probability rises with SNR and falls with threshold
    pds = [pd_awgn_analytic(10, g, 16.0) for g in (0.01, 0.1, 1.0, 10.0)]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    pds = [pd_awgn_analytic(10, 1.0, lam) for lam in (5.0, 10.0, 20.0, 40.0)]
    assert all(b < a for a, b in zip(pds, pds[1:]))


def test_pfa_analytic_is_central_tail():
    # one central tail: the zero-offset noncentral tail and the p=2 H0 law
    # return its bits
    for n in (1, 2, 7, 10, 50):
        sf = h0_law(2, n)[0]
        for lam in _LAM_GRID:
            want = pfa_analytic(n, lam)
            assert noncentral_chi2_sf(n, 0.0, lam) == want
            assert sf(lam) == want


def test_pd_awgn_is_noncentral_tail_with_coherent_offset():
    for n in (2, 10):
        for gamma in (0.1, 1.0, 10.0):
            for lam in (5.0, 15.0, 30.0):
                assert pd_awgn_analytic(n, gamma, lam) == noncentral_chi2_sf(
                    n, n * gamma, lam
                )


def test_pd_rayleigh_against_adaptive_quadrature():
    worst = 0.0
    for n in (2, 10):
        for gbar in (0.1, 1.0, 10.0):
            for lam in (2.0, 10.0, 25.0):
                want, err = scipy.integrate.quad(
                    lambda u: pd_awgn_analytic(n, gbar * u, lam) * math.exp(-u),
                    0.0,
                    60.0,
                    epsabs=1e-10,
                    epsrel=1e-10,
                    limit=200,
                )
                assert err < 1e-8
                worst = max(worst, abs(pd_rayleigh_analytic(n, gbar, lam) - want))
    assert worst <= 1e-6


def test_pd_rayleigh_equals_scipy_node_sum():
    # The same 128-node rule summed over scipy's noncentral tail: the
    # shared-ladder kernel must not add error of its own.
    xs, ws = np.polynomial.laguerre.laggauss(128)
    worst = 0.0
    for n in (1, 2, 10, 50):
        for pfa in (1e-4, 1e-2, 0.1, 0.5, 0.9):
            lam = calibrate_threshold(DetectorSpec(p=2), n, [pfa])[0].threshold
            for snr_db in range(-20, 31, 5):
                gbar = 10.0 ** (snr_db / 10.0)
                want = float(ws @ scipy.stats.ncx2.sf(lam, n, n * gbar * xs))
                worst = max(worst, abs(pd_rayleigh_analytic(n, gbar, lam) - want))
    assert worst <= 1e-13


def test_laguerre_table_matches_laggauss():
    # The rule is a table printed from laggauss(128); not compared bitwise,
    # since another CPU may round laggauss's eigensolve differently.
    xs, ws = np.polynomial.laguerre.laggauss(128)
    np.testing.assert_allclose(analytic._LAGUERRE_X, xs, rtol=1e-13, atol=0)
    np.testing.assert_allclose(analytic._LAGUERRE_W, ws, rtol=1e-13, atol=0)


def test_laguerre_table_integrates_monomials():
    # sum_i w_i x_i^k = integral_0^inf u^k e^-u du = k!, exact for k < 256;
    # laggauss(128) itself is within 3.4e-13 up to k = 60
    xs, ws = analytic._LAGUERRE_X, analytic._LAGUERRE_W
    for k in range(61):
        moment = math.fsum(ws * xs**k)
        assert moment == pytest.approx(math.factorial(k), rel=1e-12), k


def _exact_rayleigh_pd(n, gbar, lam):
    # sum_k theta^k/(1+theta)^(k+1) Q(n/2+k, lam/2), theta = n*gbar/2.
    # K runs 20 sigma past lam/2, where Q is 1 to double precision, so the
    # geometric remainder (theta/(1+theta))^K closes the sum exactly.
    theta = n * gbar / 2.0
    k = np.arange(int(lam / 2.0 + 20.0 * math.sqrt(lam / 2.0 + 1.0) + 50.0))
    q = scipy.special.gammaincc(n / 2.0 + k, lam / 2.0)
    r = theta / (1.0 + theta)
    return float(np.sum(r**k * q) / (1.0 + theta) + r ** len(k))


def _digham_rayleigh_pd(n, gbar, lam):
    # Closed form of Digham, Alouini & Simon, IEEE Trans. Commun. 55(1),
    # 2007, for Rayleigh fading and 2u degrees of freedom at mean SNR g;
    # in this code's units u = n/2 and g = n*gbar/2, so n must be even.
    u, g, half = n // 2, n * gbar / 2.0, lam / 2.0
    head = sum(half**k / math.factorial(k) for k in range(u - 1))
    shrunk = sum((half * g / (1.0 + g)) ** k / math.factorial(k) for k in range(u - 1))
    return math.exp(-half) * head + ((1.0 + g) / g) ** (u - 1) * (
        math.exp(-half / (1.0 + g)) - math.exp(-half) * shrunk
    )


def test_pd_rayleigh_digham_closed_form_is_a_second_oracle():
    # An oracle independent of both the series and the 128-node rule.  The
    # rule is only held to it up to 5 dB: at n=20 it is already off by
    # 2.2e-5 at 10 dB and 2.5e-3 at 20 dB (ROADMAP item 4a).
    for n in (2, 4, 10, 20):
        lam = calibrate_threshold(DetectorSpec(p=2), n, [0.1])[0].threshold
        for snr in np.arange(-10.0, 30.01, 0.5):
            gbar = 10.0 ** (snr / 10.0)
            want = _digham_rayleigh_pd(n, gbar, lam)
            assert abs(_exact_rayleigh_pd(n, gbar, lam) - want) <= 1e-11
            if n in (2, 10) and snr <= 5.0:
                assert abs(pd_rayleigh_analytic(n, gbar, lam) - want) <= 1e-12


def test_pd_rayleigh_rule_error_up_to_10_db():
    # The SNR range the roc --svg overlay plots, on a 0.5 dB grid at n=10.
    # At lam for P_FA 0.1 this is the docstring's 1.8e-7; over the
    # overlay's targets the worst is 5.2e-7, at P_FA 1e-3 and 10 dB.
    snrs = np.arange(-20.0, 10.01, 0.5)
    for pfa, bound in ((0.1, 2e-7), (1e-3, 6e-7), (1e-2, 6e-7), (0.5, 6e-7)):
        lam = calibrate_threshold(DetectorSpec(p=2), 10, [pfa])[0].threshold
        worst = max(
            abs(pd_rayleigh_analytic(10, g, lam) - _exact_rayleigh_pd(10, g, lam))
            for g in 10.0 ** (snrs / 10.0)
        )
        assert worst <= bound


def test_pd_rayleigh_memory_stays_bounded(monkeypatch):
    # n = 20000 grows the ladder to about a thousand rungs, and the peak
    # stays small.  With a budget of one weight every node row is its own
    # chunk, which must give the same value.
    lam = calibrate_threshold(DetectorSpec(p=2), 20000, [0.01])[0].threshold
    tracemalloc.start()
    try:
        pd = pd_rayleigh_analytic(20000, 1.0, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < pd < 1.0
    assert peak < 32 * 2**20
    monkeypatch.setattr(analytic, "_MIXTURE_BUDGET", 1)
    assert pd_rayleigh_analytic(20000, 1.0, lam) == pytest.approx(pd, abs=1e-15)


def test_mixture_gammaq_call_counts(monkeypatch):
    # Call counts repeat exactly, so they guard the shared ladder without
    # a wall-clock bound: one Q for the ladder, at most one per node for
    # its Poisson tail (152,347 calls before the ladder was shared).
    calls = []
    real = analytic.gammaq

    def counting(a, x):
        calls.append((a, x))
        return real(a, x)

    monkeypatch.setattr(analytic, "gammaq", counting)
    pd_rayleigh_analytic(10, 10.0, 15.99)
    assert 1 <= len(calls) <= 128 + 2
    calls.clear()
    noncentral_chi2_sf(10, 5.0, 16.0)
    assert 1 <= len(calls) <= 2


def test_ladder_start_keeps_large_thresholds_cheap(monkeypatch):
    # With lam >> n nearly every rung from Q(n/2, lam/2) up is an exact
    # 0.0; the ladder starts where its steps become representable, so the
    # walk is O(sqrt(lam)) (474,966 step re-derivations at lam = 1e6
    # when it started at k = 0).
    calls = []
    real = analytic._qterm
    monkeypatch.setattr(analytic, "_qterm", lambda a, x: calls.append(a) or real(a, x))
    lam = 1e6
    assert 0.0 < pd_rayleigh_analytic(10, 1000.0, lam) < 1e-40
    assert len(calls) <= 40 * math.sqrt(lam / 2)


def test_ladder_start_drops_only_unrepresentable_rungs(monkeypatch):
    # A floor of 0 walks the whole ladder from k = 0; every value the
    # shortened ladder gives that is not itself near underflow agrees.
    cases = [(noncentral_chi2_sf, 10, lam + c * math.sqrt(lam), lam)
             for lam in (1e4, 1e5) for c in (-60.0, -4.0, 0.0, 4.0)]
    cases += [(pd_rayleigh_analytic, 10, g, lam)
              for lam in (1e4, 1e5) for g in (100.0, 1000.0, 1e4)]
    # a full walk at lam = 1e6 takes about a second each
    cases += [(noncentral_chi2_sf, 10, 1e6 - 6e4, 1e6), (pd_rayleigh_analytic, 10, 1000.0, 1e6)]
    fast = [f(n, p, lam) for f, n, p, lam in cases]
    monkeypatch.setattr(analytic, "_LADDER_FLOOR", 0.0)
    full = [f(n, p, lam) for f, n, p, lam in cases]
    checked = [(a, b) for a, b in zip(fast, full) if b >= 1e-250]
    assert len(checked) >= 10
    for a, b in checked:
        assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.xfail(strict=True, reason="the 128-node rule misses the exact value at 20 dB")
def test_pd_rayleigh_high_snr_matches_split_integral():
    # P_D at n=10, 20 dB, lam for P_FA 0.1, integrated by scipy in two
    # pieces split at u=0.05 so the steep rise near lam/(n*gamma_bar) is
    # resolved; the sum is 0.99194876 and agrees with the exact series
    # sum_k theta^k/(1+theta)^(k+1) Q(n/2+k, lam/2) to 1e-15.  An exact
    # Rayleigh route makes this pass, and then the marker must go.
    n, gbar, lam = 10, 100.0, 15.987179172225296

    def integrand(u):
        return scipy.stats.ncx2.sf(lam, n, n * gbar * u) * math.exp(-u)

    want = sum(
        scipy.integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
        for a, b in ((0.0, 0.05), (0.05, math.inf))
    )
    assert want == pytest.approx(0.99194876, abs=1e-8)
    assert pd_rayleigh_analytic(n, gbar, lam) == pytest.approx(want, abs=1e-6)


def test_pd_rayleigh_extremes_and_node_floor():
    assert pd_rayleigh_analytic(10, 1.0, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert pd_rayleigh_analytic(10, 1.0, 500.0) < 1e-6


def test_pd_rayleigh_returns_at_huge_mean_snr():
    # At a=40, x=3.228e16 the continued fraction's delta never rounds to 1;
    # Q is the 0.0 its underflowed prefactor gives.  Both run in a fresh
    # interpreter, so a hang fails.
    code = ("import time\nfrom sensesim.analytic import gammaq, pd_rayleigh_analytic\n"
            "start = time.perf_counter()\npd = pd_rayleigh_analytic(10, 1e14, 20.0)\n"
            "print(pd, time.perf_counter() - start, gammaq(40.0, 3.2283858084060612e16))")
    src = os.path.dirname(os.path.dirname(sensesim.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": path}).stdout
    pd, seconds, q = map(float, out.split())
    assert pd == pytest.approx(1.0, abs=1e-9)
    assert seconds < 1.0
    assert q == 0.0


def test_law_lookups_return_none_where_no_closed_form_applies():
    for n in (1, 10, 100):
        assert h0_law(2, n) is not None
        for p in (1, 3, 4):
            assert h0_law(p, n) is None
        for kind in (AWGN, RAYLEIGH):
            channel = ChannelModel(kind)
            for signal in (Bpsk(), Sinusoid(cycles_per_frame=0.3)):
                assert pd_law(2, n, channel, signal) is not None
                assert pd_law(3, n, channel, signal) is None
            # GaussianIid frames differ in mean square
            assert pd_law(2, n, channel, GaussianIid()) is None
    # the reference names validate prints
    assert [pd_law(2, 10, ChannelModel(kind), Bpsk())[0] for kind in (AWGN, RAYLEIGH)] == [
        "analytic", "quadrature"]


@pytest.mark.parametrize("n", [1, 10, 100])
def test_law_lookups_equal_the_closed_forms(n):
    sf, isf = h0_law(2, n)
    targets = montecarlo.DEFAULT_PFA_TARGETS
    lams = montecarlo.grid_from_pfa_targets(targets, DetectorSpec(p=2), n).values
    assert len(lams) == 26
    assert tuple(isf(t) for t in targets) == lams
    assert [isf(t) for t in targets] == [analytic._bisect_chi2_isf(n, t) for t in targets]
    assert [sf(lam) for lam in lams] == [pfa_analytic(n, lam) for lam in lams]
    for signal in (Bpsk(), Sinusoid(cycles_per_frame=0.3)):
        for kind, oracle in ((AWGN, pd_awgn_analytic), (RAYLEIGH, pd_rayleigh_analytic)):
            _, pd = pd_law(2, n, ChannelModel(kind), signal)
            for snr in (-10.0, 0.0, 10.0, 20.0):
                gamma = snr_to_linear(snr) * signal.mean_square(n)
                assert [pd(snr, lam) for lam in lams] == [oracle(n, gamma, lam) for lam in lams]


def test_calibrate_analytic_roundtrip():
    targets = (0.01, 0.1, 0.5)
    for n in (2, 10, 50):
        cals = calibrate_threshold(DetectorSpec(p=2), n, targets)
        assert [cal.target_pfa for cal in cals] == list(targets)
        for cal, target in zip(cals, targets):
            assert abs(pfa_analytic(n, cal.threshold) - target) <= 1e-9
            assert abs(cal.achieved_pfa - target) <= 1e-9
            assert cal.method == "analytic"


def test_calibrate_analytic_relative_roundtrip():
    # The solve stops at min(1e-10, 1e-7 * target), so a tiny target keeps
    # its relative accuracy instead of passing on an absolute 1e-9.
    for n in (1, 10, 50):
        for cal in calibrate_threshold(DetectorSpec(p=2), n, (1e-6, 1e-11, 1e-300)):
            target = cal.target_pfa
            assert abs(pfa_analytic(n, cal.threshold) - target) <= 1e-7 * target
            assert cal.tolerance == min(1e-9, 1e-6 * target)
    # Below the normal double range no threshold resolves the target.
    for target in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="relative accuracy"):
            calibrate_threshold(DetectorSpec(p=2), 10, [target])


def test_calibrate_known_value():
    # n=2: tail is exp(-lam/2), so the 0.1 threshold is -2 ln 0.1
    [cal] = calibrate_threshold(DetectorSpec(p=2), 2, [0.1])
    assert cal.threshold == pytest.approx(-2.0 * math.log(0.1), rel=1e-8)


def test_calibrate_default_route_follows_exponent():
    [cal] = calibrate_threshold(DetectorSpec(p=2), 10, [0.1])
    assert cal.method == "analytic"
    assert cal.mc_trials == 0
    [cal] = calibrate_threshold(DetectorSpec(p=3), 10, [0.1], trials=100_000, seed=5)
    assert cal.method == "empirical-quantile"
    assert cal.mc_trials == 100_000


def test_calibration_method_follows_mc_trials():
    # the route is read from the draw count, the one record of it
    def result(mc_trials):
        return CalibrationResult(threshold=1.0, target_pfa=0.1, achieved_pfa=0.1,
                                 tolerance=1e-9, mc_trials=mc_trials)

    assert result(0).method == "analytic"
    assert CalibrationResult(1.0, 0.1, 0.1, 1e-9).method == "analytic"
    assert result(100_000).method == "empirical-quantile"


def test_calibrate_argument_validation():
    for targets in ([0.0], [1.0], [0.1, 1.0]):
        with pytest.raises(ValueError):
            calibrate_threshold(DetectorSpec(p=2), 10, targets)
    with pytest.raises(ValueError):
        calibrate_threshold(DetectorSpec(p=2), 0, [0.1])
    with pytest.raises(ValueError):
        calibrate_threshold("p2", 10, [0.1])


def test_calibrate_empirical_hits_target_for_p2():
    # cross-route check: the empirical quantile of the calibration draw
    # should land where the closed form says the tail mass equals the target
    stats = montecarlo.calibration_h0_statistics(DetectorSpec(p=2), 10, 100_000, seed=5)
    for target in (0.05, 0.1, 0.5):
        lam = float(np.quantile(stats, 1.0 - target, method="linear"))
        assert abs(pfa_analytic(10, lam) - target) <= 0.005


def test_calibrate_empirical_p3_orders_with_target():
    lam_01, lam_05 = (
        cal.threshold for cal in calibrate_threshold(DetectorSpec(p=3), 10, [0.1, 0.5], seed=5)
    )
    assert lam_05 < lam_01
    [again] = calibrate_threshold(DetectorSpec(p=3), 10, [0.1], seed=5)
    assert again.threshold == lam_01


@pytest.mark.parametrize("n", [2, 3, 10_001, 100_000])
def test_sorted_quantiles_equal_numpy_linear_bit_for_bit(n):
    rng = np.random.default_rng(n)
    stats = np.sort(rng.standard_normal(n) ** 2)
    last = n - 1
    top = 1.0  # the largest q whose virtual index lies below n - 1
    while last * top >= last:
        top = np.nextafter(top, 0.0)
    probs = np.concatenate([rng.uniform(0.0, 1.0, 29), [0.0, 0.5, top]])
    vi = last * probs
    g = vi - np.floor(vi)
    assert (g < 0.5).any() and (g >= 0.5).any()  # both interpolation branches
    assert last - 1 < vi[-1] < last
    if n == 10_001:
        assert vi[-2] == 5000.0  # an integral virtual index
    got = analytic._sorted_quantiles(stats, probs)
    assert got.tobytes() == np.quantile(stats, probs, method="linear").tobytes()


# (4, 11) is a short frame; (10, 3) is the pmd-cubing benchmark's calibration
@pytest.mark.parametrize("n, seed", [(4, 11), (10, 3)], ids=["n4", "pmd-cubing"])
def test_calibrate_empirical_grid_equals_independent_quantiles(n, seed):
    spec = DetectorSpec(p=3)
    grid = calibrate_threshold(spec, n, montecarlo.DEFAULT_PFA_TARGETS, seed=seed)
    assert [cal.target_pfa for cal in grid] == list(montecarlo.DEFAULT_PFA_TARGETS)
    fresh = montecarlo.calibration_h0_statistics(spec, n, 100_000, seed=seed)
    for cal in grid:
        # the quantiles read from the sorted draw keep numpy's scalar bits
        lam = float(np.quantile(fresh, 1.0 - cal.target_pfa, method="linear"))
        assert cal.threshold == lam
        assert cal.achieved_pfa == float(np.mean(fresh >= lam))
        assert abs(cal.achieved_pfa - cal.target_pfa) <= cal.tolerance


def test_calibration_keeps_no_state_between_calls(monkeypatch):
    real = montecarlo.calibration_h0_statistics
    draws = []

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "calibration_h0_statistics", counting)
    spec, targets = DetectorSpec(p=3), montecarlo.DEFAULT_PFA_TARGETS
    first = calibrate_threshold(spec, 4, targets, seed=3)
    assert len(first) == 26
    assert len(draws) == 1  # every target of a call shares one draw
    assert calibrate_threshold(spec, 4, targets, seed=3) == first
    assert len(draws) == 2  # a second call draws again: nothing is kept
    calibrate_threshold(DetectorSpec(p=2), 4, targets)
    assert len(draws) == 2  # the analytic route never draws


def test_calibrate_checks_every_target_before_drawing(monkeypatch):
    # a bad target anywhere in the list is refused before the one H0 draw,
    # so a long grid never pays for a draw it cannot use
    def no_draw(*args, **kwargs):
        raise AssertionError("calibration drew before checking its targets")

    monkeypatch.setattr(montecarlo, "calibration_h0_statistics", no_draw)
    spec = DetectorSpec(p=3)
    with pytest.raises(ValueError, match="within its own tolerance"):
        calibrate_threshold(spec, 10, [0.1, 0.01, 1e-5], seed=5)
    with pytest.raises(ValueError, match="strictly inside"):
        calibrate_threshold(spec, 10, [0.1, 1.0], seed=5)
    with pytest.raises(ValueError, match=">= 1e5 trials"):
        calibrate_threshold(spec, 10, [0.1], trials=99_999, seed=5)


def test_calibrate_empirical_refuses_targets_near_one_as_near_zero(monkeypatch):
    # the draws below the threshold estimate 1 - target, so a target within
    # its tolerance of 1 is refused as one near 0 is, before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("calibration drew before checking its targets")

    monkeypatch.setattr(montecarlo, "calibration_h0_statistics", no_draw)
    spec = DetectorSpec(p=3)
    for target, needed in ((1e-5, 899991), (1 - 1e-5, 899992), (1 - 1e-6, 8999991)):
        with pytest.raises(ValueError, match=f"needs cal_trials >= {needed}$"):
            calibrate_threshold(spec, 10, [0.5, target], seed=5)


def test_calibrate_empirical_rejects_small_runs():
    with pytest.raises(ValueError):
        calibrate_threshold(DetectorSpec(p=3), 10, [0.1], trials=9999)


def test_calibration_result_enforces_tolerance():
    with pytest.raises(ValueError):
        CalibrationResult(
            threshold=1.0,
            target_pfa=0.1,
            achieved_pfa=0.2,
            tolerance=1e-9,
        )


@given(
    nu=st.integers(min_value=1, max_value=60),
    lams=st.lists(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
)
@settings(deadline=None)
def test_pfa_analytic_always_a_decreasing_probability(nu, lams):
    lams = sorted(lams)
    vals = [pfa_analytic(nu, lam) for lam in lams]
    assert all(0.0 <= v <= 1.0 for v in vals)
    for (la, va), (lb, vb) in zip(zip(lams, vals), zip(lams[1:], vals[1:])):
        if lb > la:
            assert vb <= va + 1e-12
