"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints one PASS line with the measured numbers (visible under
``pytest -s``); the pytest verdict itself is the pass/fail record.  All
runs are seeded, so every check is a deterministic regression pin, not a
statistical coin flip: the 3-sigma bands are honest tolerances computed
from the stated trial counts.
"""

import math
import time

import numpy as np
from oracle_scalar import received_frame
from result_csv import read_result_csv

from sensesim import reference
from sensesim.analytic import (
    calibrate_threshold,
    noncentral_chi2_sf,
    pd_awgn_analytic,
    pd_rayleigh_analytic,
    pfa_analytic,
)
from sensesim.cli import _sign_summary
from sensesim.cli import main as cli_main
from sensesim.detector import DetectorSpec, statistic
from sensesim.metrics import rates_from_counts
from sensesim.montecarlo import (
    TRIAL_DOMAIN,
    Scenario,
    compare_detectors,
    count_detections,
    grid_from_pfa_targets,
    trial_statistics,
)
from sensesim.rng import fold, mix64
from sensesim.signal_channel import (
    AWGN,
    RAYLEIGH,
    Bpsk,
    ChannelModel,
    snr_to_linear,
)

SEED = 1234
P2 = DetectorSpec(p=2)
P3 = DetectorSpec(p=3)
CH_AWGN = ChannelModel(AWGN)
CH_RAY = ChannelModel(RAYLEIGH)
TARGETS = (0.01, 0.1, 0.5)


def _lam(n: int, target: float) -> float:
    return calibrate_threshold(P2, n, [target])[0].threshold


def _sc(channel, trials, n=10, seed=SEED):
    return Scenario(channel=channel, n_samples=n, trials=trials, seed=seed, signal=Bpsk())


def test_acceptance_01_h0_false_alarm_matches_targets():
    trials = 100_000
    worst = 0.0
    for n in (2, 10, 50):
        stats = trial_statistics(_sc(CH_AWGN, trials, n=n), P2)
        for target in TARGETS:
            pfa = float(np.mean(stats >= _lam(n, target)))
            sigma = math.sqrt(target * (1.0 - target) / trials)
            worst = max(worst, abs(pfa - target) / sigma)
            assert abs(pfa - target) <= 3.0 * sigma, (n, target, pfa)
    print(f"PASS 01 h0-false-alarm: worst deviation {worst:.2f} sigma over 9 cells")


def test_acceptance_02_awgn_detection_matches_closed_form():
    trials = 100_000
    n = 10
    lams = [_lam(n, t) for t in TARGETS]
    worst = 0.0
    for snr in (-10.0, 0.0, 10.0):
        stats = trial_statistics(_sc(CH_AWGN, trials), P2, snr)
        gamma = snr_to_linear(snr)
        for lam in lams:
            pd_hat = float(np.mean(stats >= lam))
            pd_ref = pd_awgn_analytic(n, gamma, lam)
            sigma = max(math.sqrt(pd_ref * (1.0 - pd_ref) / trials), 1e-12)
            worst = max(worst, abs(pd_hat - pd_ref) / sigma)
            assert abs(pd_hat - pd_ref) <= 3.0 * sigma, (snr, lam, pd_hat, pd_ref)
    print(f"PASS 02 awgn-detection: worst deviation {worst:.2f} sigma over 9 cells")


def test_acceptance_03_rayleigh_detection_matches_quadrature():
    trials = 1_000_000
    n = 10
    lams = [_lam(n, t) for t in TARGETS]
    start = time.monotonic()
    worst = 0.0
    for snr in (-10.0, 0.0, 10.0):
        stats = trial_statistics(_sc(CH_RAY, trials), P2, snr)
        gbar = snr_to_linear(snr)
        for lam in lams:
            pd_hat = float(np.mean(stats >= lam))
            pd_ref = pd_rayleigh_analytic(n, gbar, lam)
            sigma = max(math.sqrt(pd_ref * (1.0 - pd_ref) / trials), 1e-12)
            worst = max(worst, abs(pd_hat - pd_ref) / sigma)
            assert abs(pd_hat - pd_ref) <= 3.0 * sigma, (snr, lam, pd_hat, pd_ref)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"rayleigh sweep took {elapsed:.1f}s"
    print(
        f"PASS 03 rayleigh-detection: worst deviation {worst:.2f} sigma, "
        f"3x{trials} trials in {elapsed:.1f}s"
    )


def test_acceptance_04_fading_costs_detection_at_5db():
    trials = 100_000
    n, snr = 10, 5.0
    gamma = snr_to_linear(snr)
    lams = [_lam(n, t) for t in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)]
    stats_awgn = trial_statistics(_sc(CH_AWGN, trials), P2, snr)
    stats_ray = trial_statistics(_sc(CH_RAY, trials), P2, snr)
    gap_min = 1.0
    for lam in lams:
        pd_a = pd_awgn_analytic(n, gamma, lam)
        pd_r = pd_rayleigh_analytic(n, gamma, lam)
        assert pd_a > pd_r, (lam, pd_a, pd_r)  # strict analytic ordering
        gap_min = min(gap_min, pd_a - pd_r)
        for stats, pd_ref in ((stats_awgn, pd_a), (stats_ray, pd_r)):
            pd_hat = float(np.mean(stats >= lam))
            sigma = max(math.sqrt(pd_ref * (1.0 - pd_ref) / trials), 1e-12)
            assert abs(pd_hat - pd_ref) <= 3.0 * sigma, (lam, pd_hat, pd_ref)
    print(f"PASS 04 fading-penalty: analytic gap >= {gap_min:.4f}, empirical within 3 sigma")


def test_acceptance_05_pmd_table_trends_and_reference_embedding(tmp_path):
    rc = cli_main([
        "pmd-table", "--trials", "100000", "--snr-db=-10,0,10",
        "--seed", str(SEED), "--out", str(tmp_path),
    ])
    assert rc == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p2_awgn.csv"))
    assert len(rows) == 26
    snr_tags = ("-10dB", "0dB", "10dB")
    pmd = np.array([[float(r[f"pmd_{s}"]) for s in snr_tags] for r in rows])
    se = np.array([[float(r[f"stderr_{s}"]) for s in snr_tags] for r in rows])
    # monotone down each column and along each row, within 3 combined stderr
    assert np.all(pmd[1:, :] <= pmd[:-1, :] + 3.0 * (se[1:, :] + se[:-1, :]))
    assert np.all(pmd[:, 1:] <= pmd[:, :-1] + 3.0 * (se[:, 1:] + se[:, :-1]))
    conv = np.array(reference.PMD_CONVENTIONAL)
    impr = np.array(reference.PMD_IMPROVED)
    for i, row in enumerate(rows):
        for c, s in enumerate(snr_tags):
            assert float(row[f"ref_squaring_{s}"]) == conv[i, c]
            assert float(row[f"ref_cubing_{s}"]) == impr[i, c]
    print("PASS 05 pmd-table: 26x3 trends hold within 3 stderr, reference embedded")


def test_acceptance_06_detector_comparison_controls():
    trials = 100_000
    sc = _sc(CH_AWGN, trials)
    grid_2, grid_3 = (
        grid_from_pfa_targets([0.01, 0.1], spec, sc.n_samples, seed=SEED)
        for spec in (P2, P3)
    )

    both = compare_detectors(sc, [-10.0, None], grid_2, grid_3, P2, P3)
    alone = compare_detectors(sc, [-10.0], grid_2, grid_3, P2, P3)
    # bit-for-bit reproducible, with or without other columns
    assert [m[0].tobytes() for m in both] == [m[0].tobytes() for m in alone]

    _, _, self_delta, self_stderr = compare_detectors(sc, [-10.0], grid_2, grid_2, P2, P2)
    assert self_delta.tolist() == self_stderr.tolist() == [[0.0, 0.0]]

    _, _, (delta, nosignal_delta), (stderr, nosignal_stderr) = both
    assert np.all(np.abs(nosignal_delta) <= 3.0 * nosignal_stderr + 1e-12)

    signs = ["p=3" if d > 0 else ("p=2" if d < 0 else "tie") for d in delta]
    summary = _sign_summary(P2, P3, grid_2.pfa_targets, delta.tolist(), stderr.tolist())
    assert "misses less" in summary or "no measured difference" in summary
    print(
        "PASS 06 comparison-controls: reproducible, self-delta 0, no-signal delta "
        f"within 3 sigma; measured sign at -10 dB: {signs}"
    )


def test_acceptance_07_rate_identity_survives_fuzzing():
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(10_000):
        trials = int(rng.integers(1, 100_000))
        det = int(rng.integers(0, trials + 1))
        pd, _ = rates_from_counts(det, trials)
        pmd, _ = rates_from_counts(trials - det, trials)
        assert pd + pmd == 1.0
        checked += 1
    print(f"PASS 07 rate-identity: det/T + (T - det)/T == 1.0 exactly in {checked} fuzzed cases")


def test_acceptance_08_parallelism_is_byte_invisible(tmp_path):
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        rc = cli_main([
            "roc", "--trials", "40000", "--samples", "512", "--snr-db=0",
            "--seed", str(SEED), "--workers", workers, "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "roc_awgn_0dB.csv").read_bytes())
    assert outs[0] == outs[1]
    print(f"PASS 08 parallelism: workers 1 vs 4 wrote identical {len(outs[0])}-byte CSVs")


def test_acceptance_09_analytic_pins_and_calibration_roundtrip():
    worst_exp = 0.0
    for lam in np.linspace(0.0, 100.0, 1001):
        worst_exp = max(worst_exp, abs(pfa_analytic(2, float(lam)) - math.exp(-float(lam) / 2.0)))
    assert worst_exp <= 1e-12

    worst_deg = 0.0
    for nu in (1, 2, 5, 10, 50):
        for lam in (0.0, 0.5, 2.0, 10.0, 40.0, 90.0):
            worst_deg = max(
                worst_deg, abs(noncentral_chi2_sf(nu, 0.0, lam) - pfa_analytic(nu, lam))
            )
    assert worst_deg <= 1e-12

    worst_cal = 0.0
    for n in (2, 10, 50):
        for cal in calibrate_threshold(P2, n, TARGETS):
            worst_cal = max(worst_cal, abs(pfa_analytic(n, cal.threshold) - cal.target_pfa))
    assert worst_cal <= 1e-9
    print(
        f"PASS 09 analytic-pins: exp-form {worst_exp:.1e}, degenerate {worst_deg:.1e}, "
        f"calibration round-trip {worst_cal:.1e}"
    )


def test_acceptance_10_engine_equals_naive_loop():
    n, trials = 10, 500
    lam = _lam(n, 0.1)
    for channel, snr in ((CH_AWGN, 0.0), (CH_RAY, 0.0), (CH_AWGN, None), (CH_RAY, None)):
        sc = _sc(channel, trials, n=n)
        engine_stats = trial_statistics(sc, P2, snr)
        engine_count = count_detections(sc, P2, lam, snr)
        root = mix64(SEED)
        naive_count = 0
        for t in range(trials):
            trial = fold(root, TRIAL_DOMAIN, t)
            y, _ = received_frame(Bpsk(), channel, snr, n, trial)
            stat = statistic(y, P2)
            assert stat == engine_stats[t], (channel.kind, snr, t)
            naive_count += stat >= lam
        assert naive_count == engine_count
    print("PASS 10 naive-loop: 500-trial scalar recipe reproduces engine stats and counts exactly")
