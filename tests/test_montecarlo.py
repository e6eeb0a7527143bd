"""Engine tests: exact scalar equivalence, determinism, CRN structure."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracle_scalar import frame, received_frame

from sensesim import cli, montecarlo, rng, signal_channel
from sensesim.analytic import calibrate_threshold
from sensesim.detector import DetectorSpec, statistic
from sensesim.metrics import binomial_stderr
from sensesim.montecarlo import (
    CALIBRATION_DOMAIN,
    TRIAL_DOMAIN,
    DEFAULT_PFA_TARGETS,
    Scenario,
    ThresholdGrid,
    calibration_h0_statistics,
    compare_detectors,
    count_detections,
    default_threshold_grid,
    estimate_pfa,
    estimate_pmd,
    grid_from_pfa_targets,
    pmd_table,
    roc_sweep,
    trial_statistics,
    trial_statistics_pair,
)
from sensesim.rng import fold, mix64
from sensesim.signal_channel import (
    AWGN,
    RAYLEIGH,
    Bpsk,
    ChannelModel,
    GaussianIid,
    Sinusoid,
)

P2 = DetectorSpec(p=2)
P3 = DetectorSpec(p=3)
CH_AWGN = ChannelModel(AWGN)
CH_RAY = ChannelModel(RAYLEIGH)


def _sc(channel=CH_AWGN, n=10, trials=2000, seed=7, signal=Bpsk()):
    return Scenario(channel=channel, n_samples=n, trials=trials, seed=seed, signal=signal)


def _compare(sc, snr, targets, spec_a=P2, spec_b=P3, workers=1):
    """(pmd_a, pmd_b, delta, stderr_delta), one value per target, of
    compare_detectors at one SNR (None: H0) on both detectors' grids,
    calibrated on sc's seed."""
    grid_a, grid_b = (
        grid_from_pfa_targets(targets, spec, sc.n_samples, seed=sc.seed, workers=workers)
        for spec in (spec_a, spec_b)
    )
    measured = compare_detectors(sc, [snr], grid_a, grid_b, spec_a, spec_b, workers=workers)
    return tuple(m[0] for m in measured)


def _naive_statistics(sc: Scenario, spec: DetectorSpec, snr_db=None) -> np.ndarray:
    """The per-trial reference loop of ``oracle_scalar``, one trial at a time."""
    root = mix64(sc.seed)
    out = np.empty(sc.trials)
    for t in range(sc.trials):
        trial = fold(root, TRIAL_DOMAIN, t)
        y, _ = received_frame(sc.signal, sc.channel, snr_db, sc.n_samples, trial)
        out[t] = statistic(y, spec)
    return out


@pytest.mark.parametrize("snr_db", [float("nan"), 3083.0, -4000.0])
@pytest.mark.parametrize("entry", ["roc_sweep", "pmd_table", "compare_detectors",
                                   "trial_statistics"])
def test_engine_entries_refuse_an_snr_without_a_positive_finite_power(monkeypatch, entry,
                                                                      snr_db):
    # NaN is not finite; 10^(3083/10) overflows to inf and 10^(-4000/10)
    # rounds to 0.  Each is refused before any block is drawn.
    def no_draw(*args, **kwargs):
        raise AssertionError("the engine drew before checking its SNRs")

    monkeypatch.setattr(montecarlo, "_stats_block", no_draw)
    grid = ThresholdGrid((30.0, 10.0), pfa_targets=(0.01, 0.1))
    call = {
        "roc_sweep": lambda snrs: roc_sweep(_sc(), snrs, P2, grid),
        "pmd_table": lambda snrs: pmd_table(_sc(), snrs, P2, grid),
        "compare_detectors": lambda snrs: compare_detectors(_sc(), snrs, grid, grid, P2, P3),
        "trial_statistics": lambda snrs: trial_statistics(_sc(), P2, *snrs),
    }[entry]
    with pytest.raises(ValueError, match="snr_db"):
        call([snr_db])


class _Drew(Exception):
    """Raised by a patched ``normal_block``: the engine began to draw."""


@pytest.fixture
def no_normals(monkeypatch):
    def drew(*args, **kwargs):
        raise _Drew

    for module in (rng, signal_channel):
        monkeypatch.setattr(module, "normal_block", drew)


P400 = DetectorSpec(p=400)  # unit noise can overflow it at n=10 from p=328

# The configs of test_cli's overflow refusals, as engine calls: (channel,
# SNR, spec, whether the noise alone is refused).  The "validate" row is
# its Rayleigh sweep; compare's p=3 statistic overflows on its signal.
_UNREPRESENTABLE = {
    "roc": (AWGN, 10.0, P400, True),
    "compare": (RAYLEIGH, 3000.0, P3, False),
    "pmd-table": (RAYLEIGH, 10.0, P400, True),
    "snr": (AWGN, 3000.0, P3, False),
    "validate": (RAYLEIGH, 3070.0, P2, False),
}


@pytest.mark.parametrize("config", list(_UNREPRESENTABLE))
def test_engine_entries_refuse_an_unrepresentable_statistic_before_drawing(no_normals,
                                                                           config):
    kind, snr, spec, noise_alone = _UNREPRESENTABLE[config]
    sc = _sc(channel=ChannelModel(kind), trials=100)
    grid = ThresholdGrid((30.0, 10.0), pfa_targets=(0.01, 0.1))
    with_snr = [
        lambda: roc_sweep(sc, [snr], spec, grid),
        lambda: pmd_table(sc, [snr], spec, grid),
        lambda: compare_detectors(sc, [snr], grid, grid, P2, spec),  # the second spec
        lambda: trial_statistics(sc, spec, snr),
        lambda: trial_statistics_pair(sc, P2, spec, snr),
        lambda: count_detections(sc, spec, 10.0, snr),
        lambda: estimate_pmd(sc, spec, 10.0, snr),
    ]
    noise_only = [
        lambda: trial_statistics(sc, spec),
        lambda: estimate_pfa(sc, spec, 10.0),
        lambda: calibration_h0_statistics(spec, 10, 100),
    ]
    for call in with_snr + (noise_only if noise_alone else []):
        with pytest.raises(ValueError, match="can overflow the p="):
            call()
    # a noise-only statistic that fits is drawn: only the signal overflows
    for call in [] if noise_alone else noise_only:
        with pytest.raises(_Drew):
            call()


def test_the_overflow_refusal_names_the_largest_snr_and_the_signal():
    sc = _sc(channel=CH_RAY, signal=GaussianIid())
    grid = ThresholdGrid((30.0,))
    with pytest.raises(ValueError) as exc:
        roc_sweep(sc, [3000.0, 0.0], P3, grid)
    assert str(exc.value) == ("the signal at snr_db 3000.0 "
                              "can overflow the p=3 statistic of 10 samples")
    noise_only = Scenario(ChannelModel(), 10, 100, 0)
    with pytest.raises(ValueError) as exc:
        trial_statistics(noise_only, P400)
    assert str(exc.value) == "unit noise can overflow the p=400 statistic of 10 samples"
    # n 8.6522^p is below the largest double up to p=327
    with pytest.raises(ValueError, match="the p=328 statistic"):
        trial_statistics(noise_only, DetectorSpec(p=328))
    assert np.isfinite(trial_statistics(noise_only, DetectorSpec(p=327))).all()


@pytest.mark.parametrize("workers", [0, -3])
def test_engine_refuses_fewer_than_one_worker(no_normals, workers):
    grid = ThresholdGrid((30.0, 10.0))
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        roc_sweep(_sc(), [0.0], P2, grid, workers=workers)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        calibrate_threshold(P3, 10, [0.1], workers=workers)


def test_a_uniform_of_one_gives_a_rayleigh_gain_of_zero(monkeypatch):
    # The top 2^11 words map to exactly 1.0, so sqrt(-ln u) is sqrt(-0.0):
    # a gain of -0.0, never NaN, which leaves the frame as its noise.
    # (The Bpsk symbols draw their uniforms here too: every x is +1.)
    sc = _sc(channel=CH_RAY, trials=50)
    h0 = trial_statistics(sc, P2)

    def ones(keys, count, start=0, *, out=None, work=None):
        out[:, :count] = 1.0
        return out[:, :count]

    monkeypatch.setattr(signal_channel, "uniform_block", ones)
    assert trial_statistics(sc, P2, 10.0).tobytes() == h0.tobytes()


def test_scenario_validation():
    with pytest.raises(TypeError):  # a scenario is a draw; SNRs go to the engine calls
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0, signal=Bpsk(), snr_db=0.0)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=0, trials=10, seed=0)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=0, seed=0)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=-1)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0, signal="bpsk")
    assert Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0).signal is None


def test_an_snr_needs_a_signal_model():
    h0_only = Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0)
    trial_statistics(h0_only, P2)  # the noise-only column needs no signal
    with pytest.raises(ValueError, match="needs a signal model"):
        trial_statistics(h0_only, P2, 0.0)


def test_threshold_grid_validation():
    with pytest.raises(ValueError):
        ThresholdGrid((1.0, 2.0))  # must decrease
    with pytest.raises(ValueError):
        ThresholdGrid((2.0, 2.0))
    with pytest.raises(ValueError):
        ThresholdGrid(())
    with pytest.raises(ValueError):
        ThresholdGrid((2.0, -1.0))
    with pytest.raises(ValueError):
        ThresholdGrid((2.0, 1.0), pfa_targets=(0.1,))
    assert ThresholdGrid((3.0, 2.0, 1.0)).values == (3.0, 2.0, 1.0)


def test_default_grid_matches_analytic_calibration():
    grid = default_threshold_grid(P2, 10)
    assert len(grid.values) == 26
    assert grid.pfa_targets == DEFAULT_PFA_TARGETS
    for lam, target in zip(grid.values, grid.pfa_targets):
        assert lam == calibrate_threshold(P2, 10, [target])[0].threshold
    assert all(b < a for a, b in zip(grid.values, grid.values[1:]))


def test_grid_from_targets_requires_increasing():
    with pytest.raises(ValueError):
        grid_from_pfa_targets([0.1, 0.1], P2, 10)
    with pytest.raises(ValueError):
        grid_from_pfa_targets([0.2, 0.1], P2, 10)


def test_empirical_grid_for_p3_is_decreasing():
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P3, 10, seed=3)
    assert all(b < a for a, b in zip(grid.values, grid.values[1:]))


def test_trivial_thresholds():
    sc = _sc()
    assert estimate_pfa(sc, P2, 0.0) == (1.0, 0.0)  # ties decide H1
    assert estimate_pfa(sc, P2, 1e12) == (0.0, 0.0)
    assert estimate_pmd(sc, P2, 0.0, 0.0) == (0.0, 0.0)
    assert estimate_pmd(sc, P2, 1e12, 0.0) == (1.0, 0.0)
    with pytest.raises(ValueError):
        count_detections(sc, P2, -1.0)
    with pytest.raises(ValueError):
        count_detections(sc, P2, float("nan"))


def test_rates_are_exact_count_ratios():
    sc = _sc(trials=1000)
    lam = calibrate_threshold(P2, 10, [0.1])[0].threshold
    pfa, stderr_pfa = estimate_pfa(sc, P2, lam)
    assert pfa == count_detections(sc, P2, lam) / 1000
    assert stderr_pfa == binomial_stderr(pfa, 1000)
    det = count_detections(sc, P2, lam, 0.0)
    pmd, stderr_pmd = estimate_pmd(sc, P2, lam, 0.0)
    assert pmd == (1000 - det) / 1000
    assert stderr_pmd == binomial_stderr(pmd, 1000)
    assert det / 1000 + pmd == 1.0


def test_engine_matches_naive_loop_awgn():
    sc = _sc(trials=300, n=5)
    for spec in (P2, P3):
        for snr in (0.0, None):
            assert np.array_equal(
                trial_statistics(sc, spec, snr), _naive_statistics(sc, spec, snr)
            )


def test_engine_matches_naive_loop_rayleigh():
    sc = _sc(channel=CH_RAY, trials=300, n=5, seed=11)
    for spec in (P2, P3):
        assert np.array_equal(trial_statistics(sc, spec, -3.0),
                              _naive_statistics(sc, spec, -3.0))


def test_engine_matches_naive_loop_other_signals():
    for signal in (GaussianIid(), Sinusoid(cycles_per_frame=2.0)):
        sc = _sc(signal=signal, trials=200, n=6, seed=13)
        assert np.array_equal(trial_statistics(sc, P2, 0.0), _naive_statistics(sc, P2, 0.0))


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY], ids=["awgn", "rayleigh"])
def test_a_noise_scale_moves_no_empirically_calibrated_rate(monkeypatch, channel, p):
    # why the engine draws unit noise: a scale sigma on every received
    # sample multiplies each statistic and each empirical threshold by
    # sigma^p, exactly for a power of two, so no P_MD bit moves
    spec, sc = DetectorSpec(p=p), _sc(channel=channel, trials=2000)

    def measured():
        grid = grid_from_pfa_targets([0.01, 0.1, 0.5], spec, sc.n_samples, seed=sc.seed)
        return grid.values, pmd_table(sc, [-3.0, 3.0], spec, grid)

    values, (pmd, stderr) = measured()
    assert 0.0 < pmd.min() and pmd.max() < 1.0
    score = montecarlo.statistic_rows
    for sigma in (2.0, 0.5):
        monkeypatch.setattr(montecarlo, "statistic_rows",
                            lambda y, spec, _sigma=sigma: score(_sigma * y, spec))
        scaled_values, (scaled_pmd, scaled_stderr) = measured()
        assert scaled_values == tuple(v * sigma**p for v in values)
        assert np.array_equal(scaled_pmd, pmd) and np.array_equal(scaled_stderr, stderr)


def test_worker_count_never_changes_values():
    # frame long enough to split the run into several blocks
    sc = _sc(trials=3000, n=2000, seed=23)
    base = trial_statistics(sc, P2, 0.0)
    for workers in (2, 4, 7):
        assert np.array_equal(base, trial_statistics(sc, P2, 0.0, workers=workers))


def test_multi_block_boundaries_match_scalar_recipe():
    sc = _sc(trials=3000, n=2000, seed=23)
    stats = trial_statistics(sc, P2, 0.0)
    root = mix64(sc.seed)
    for t in (0, 2047, 2048, 2999):  # straddle an internal block edge (32-trial blocks)
        trial = fold(root, TRIAL_DOMAIN, t)
        y, _ = received_frame(sc.signal, sc.channel, 0.0, sc.n_samples, trial)
        assert stats[t] == statistic(y, P2)


def test_determinism_and_seed_sensitivity():
    a = trial_statistics(_sc(seed=1), P2, 0.0)
    b = trial_statistics(_sc(seed=1), P2, 0.0)
    c = trial_statistics(_sc(seed=2), P2, 0.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_calibration_domain_is_disjoint_from_trials():
    cal = calibration_h0_statistics(P2, 10, 2000, seed=7)
    trial = trial_statistics(_sc(trials=2000), P2)
    assert cal.shape == trial.shape
    assert not np.array_equal(cal, trial)
    # and the calibration stream is its own naive recipe, domain swapped
    y, _ = received_frame(None, CH_AWGN, None, 10, fold(mix64(7), CALIBRATION_DOMAIN, 137))
    assert cal[137] == statistic(y, P2)


def test_roc_sweep_is_exactly_monotone():
    sc = _sc(trials=20_000)
    grid = default_threshold_grid(P2, 10)
    pfa, stderr_pfa, pd, stderr_pd = roc_sweep(sc, [0.0], P2, grid)
    assert pfa.shape == stderr_pfa.shape == (26,)
    assert pd.shape == stderr_pd.shape == (1, 26)
    assert np.all(np.diff(pfa) >= 0.0)  # shared trials: no wiggle at all
    assert np.all(np.diff(pd) >= 0.0)
    with pytest.raises(ValueError):  # H0 is scored on every call, never named
        roc_sweep(sc, [None], P2, grid)
    with pytest.raises(ValueError):
        roc_sweep(sc, [], P2, grid)


def test_roc_sweep_over_columns_equals_one_call_per_column():
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P2, 10)
    sc, snrs = _sc(channel=CH_RAY, trials=3000), (10.0, -10.0, 0.0)
    pfa, stderr_pfa, pd, stderr_pd = roc_sweep(sc, snrs, P2, grid)
    assert pd.shape == stderr_pd.shape == (len(snrs), 3)
    for row, snr in enumerate(snrs):
        single = roc_sweep(sc, [snr], P2, grid)
        assert [a.tobytes() for a in single] == [
            pfa.tobytes(), stderr_pfa.tobytes(), pd[row:row + 1].tobytes(),
            stderr_pd[row:row + 1].tobytes(),
        ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY])
def test_compare_over_columns_equals_one_call_per_column(workers, channel):
    grid_a, grid_b = (grid_from_pfa_targets([0.01, 0.1, 0.5], spec, 10) for spec in (P2, P3))
    sc, snrs = _sc(channel=channel, trials=3000), (10.0, None, -10.0, 0.0)
    measured = compare_detectors(sc, snrs, grid_a, grid_b, P2, P3, workers=workers)
    singles = [compare_detectors(sc, [snr], grid_a, grid_b, P2, P3, workers=workers)
               for snr in snrs]
    for k, rows in enumerate(measured):
        assert rows.shape == (len(snrs), 3)
        assert rows.tobytes() == np.concatenate([single[k] for single in singles]).tobytes()


def test_pmd_table_structure_and_reference_hookup():
    grid = default_threshold_grid(P2, 10)
    sc, snrs = _sc(trials=20_000, seed=19), (-10.0, 0.0, 10.0)
    pmd, stderr = pmd_table(sc, snrs, P2, grid)
    assert pmd.shape == stderr.shape == (3, 26)  # one row per SNR, one column per threshold
    assert np.all((pmd >= 0.0) & (pmd <= 1.0))
    # the trend along each SNR's thresholds is exact under shared trials
    assert np.all(pmd[:, 1:] <= pmd[:, :-1])
    for c, r in ((0, 0), (1, 12), (2, 25)):
        det = count_detections(sc, P2, grid.values[r], snrs[c])
        assert pmd[c, r] == (sc.trials - det) / sc.trials
        assert stderr[c, r] == binomial_stderr(pmd[c, r], sc.trials)


def test_pmd_table_input_validation():
    grid = default_threshold_grid(P2, 10)
    for snrs in ([], [None], [0.0, None]):
        with pytest.raises(ValueError):
            pmd_table(_sc(), snrs, P2, grid)


def test_pmd_table_takes_the_snrs_in_any_order():
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P2, 10)
    sc = _sc(channel=CH_RAY, trials=3000)
    ascending = pmd_table(sc, (-10.0, 0.0, 10.0), P2, grid)
    for snrs, rows in (((10.0, -10.0, 0.0), [2, 0, 1]), ((0.0, 0.0), [1, 1])):
        for got, want in zip(pmd_table(sc, snrs, P2, grid), ascending):
            assert got.tobytes() == want[rows].tobytes()


def test_compare_same_spec_gives_exact_zero():
    pmd_a, pmd_b, delta, stderr = _compare(_sc(trials=20_000), 0.0, [0.01, 0.1],
                                           spec_a=P2, spec_b=P2)
    assert delta.tolist() == stderr.tolist() == [0.0, 0.0]
    assert pmd_a.tolist() == pmd_b.tolist()


def _compare_reference(sc, snr, grid_a, grid_b, spec_a, spec_b):
    """(pmd_a, pmd_b, delta, stderr_delta) per target from per-trial miss
    masks: the sample variance of the paired miss difference."""
    stats_a, stats_b = trial_statistics_pair(sc, spec_a, spec_b, snr)
    rows = []
    for lam_a, lam_b in zip(grid_a.values, grid_b.values):
        miss_a, miss_b = stats_a < lam_a, stats_b < lam_b
        pmd_a = int(np.count_nonzero(miss_a)) / sc.trials
        pmd_b = int(np.count_nonzero(miss_b)) / sc.trials
        d = miss_a.astype(np.float64) - miss_b.astype(np.float64)
        rows.append((pmd_a, pmd_b, pmd_a - pmd_b, float(np.sqrt(np.var(d) / sc.trials))))
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY])
@pytest.mark.parametrize("n, trials, seed, snr", [
    (10, 20_000, 7, -5.0),
    (1, 7_777, 10, 3.0),
    (37, 3_001, 11, None),
], ids=["n10", "n1", "n37-noise-only"])
def test_compare_counts_equal_the_per_trial_reference(monkeypatch, workers, channel, n, trials,
                                                      seed, snr):
    sc = _sc(channel=channel, n=n, trials=trials, seed=seed)
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 999)  # ragged blocks
    grid_a, grid_b = (grid_from_pfa_targets([0.001, 0.01, 0.05, 0.1, 0.5], spec, sc.n_samples)
                      for spec in (P2, P3))
    measured = compare_detectors(sc, [snr], grid_a, grid_b, P2, P3, workers=workers)
    pmd_a, pmd_b, delta, stderr = (m[0].tolist() for m in measured)
    reference = _compare_reference(sc, snr, grid_a, grid_b, P2, P3)
    assert list(zip(pmd_a, pmd_b, delta)) == [row[:3] for row in reference]
    for got, (*_, want) in zip(stderr, reference):
        assert abs(got - want) <= 1e-15 * want


def test_compare_is_bitwise_reproducible():
    sc = _sc(trials=20_000)
    a = _compare(sc, -10.0, [0.01, 0.1])
    b = _compare(sc, -10.0, [0.01, 0.1])
    assert [m.tobytes() for m in a] == [m.tobytes() for m in b]


def test_compare_no_signal_shows_no_difference():
    pmd_a, pmd_b, delta, stderr = (m[0] for m in _compare(_sc(trials=50_000), None, [0.1]))
    # both detectors run at the same false-alarm budget on pure noise:
    # each misses at about 1 - target, and the paired delta straddles 0
    assert abs(pmd_a - 0.9) <= 0.015
    assert abs(pmd_b - 0.9) <= 0.015
    assert abs(delta) <= 3.0 * stderr + 1e-12


def test_compare_rows_follow_targets():
    sc = _sc(trials=10_000)
    pmd_a, pmd_b, delta, stderr = _compare(sc, 0.0, [0.01, 0.1])
    assert pmd_a.shape == pmd_b.shape == delta.shape == stderr.shape == (2,)
    assert pmd_a[0] >= pmd_a[1] and pmd_b[0] >= pmd_b[1]  # the stricter target misses more
    with pytest.raises(ValueError):
        _compare(sc, 0.0, [0.0])
    # the two grids must be calibrated to the same targets
    grid_a = grid_from_pfa_targets([0.01, 0.1], P2, 10)
    for grid_b in (grid_from_pfa_targets([0.01, 0.2], P3, 10), ThresholdGrid((30.0, 20.0))):
        with pytest.raises(ValueError):
            compare_detectors(sc, [0.0], grid_a, grid_b, P2, P3)
        with pytest.raises(ValueError):
            compare_detectors(sc, [0.0], grid_b, grid_a, P3, P2)
    with pytest.raises(ValueError):
        compare_detectors(sc, [], grid_a, grid_a, P2, P2)


def test_pair_statistics_share_frames():
    sc = _sc(trials=500)
    sa, sb = trial_statistics_pair(sc, P2, P3, 0.0)
    assert np.array_equal(sa, trial_statistics(sc, P2, 0.0))
    assert np.array_equal(sb, trial_statistics(sc, P3, 0.0))


def test_common_noise_pairs_hypotheses():
    # H0 and H1 of one seed share their noise draws trial for trial:
    # subtracting the known signal part of each H1 frame recovers H0 exactly
    sc = _sc(trials=50, n=8, seed=31)
    root = mix64(sc.seed)
    for t in range(sc.trials):
        trial = fold(root, TRIAL_DOMAIN, t)
        x = frame(sc.signal, sc.n_samples, trial)
        y1, h = received_frame(sc.signal, sc.channel, 0.0, sc.n_samples, trial)
        y0, _ = received_frame(sc.signal, sc.channel, None, sc.n_samples, trial)
        assert np.array_equal(y1, h * x + y0)  # amplitude h at 0 dB


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY])
@pytest.mark.parametrize(
    "signal", [Bpsk(), Sinusoid(cycles_per_frame=0.3), GaussianIid()]
)
def test_kernel_counts_equal_per_trial_counts(monkeypatch, workers, channel, signal):
    specs = (P2, P3)
    sc = _sc(channel=channel, n=5, trials=101, seed=29, signal=signal)
    snrs = (None, -5.0, 0.0, 7.0)
    stats = [trial_statistics(sc, spec, snr) for snr in snrs for spec in specs]
    # thresholds equal to trial statistics pin "ties detect" in every column
    ties = np.concatenate([s[[0, 40, 100]] for s in stats])
    lams = tuple(np.unique(np.concatenate([ties, [0.0, 1e9]]))[::-1].tolist())
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 16 * 5)  # six 16-trial blocks, then a ragged 5
    counts = montecarlo._run_blocks(
        sc, snrs, specs, TRIAL_DOMAIN, workers, montecarlo._threshold_counts(lams)
    )
    expected = [[np.count_nonzero(s >= lam) for lam in lams] for s in stats]
    assert counts.tolist() == expected
    # the paired reducer, per column: a's and b's detections and the
    # trials where exactly one detects, at each detector's own tie grid
    grids = [np.unique(np.concatenate([*(s[[0, 40, 100]] for s in stats[i::2]), [0.0, 1e9]]))
             for i in (0, 1)]
    k = min(len(g) for g in grids)
    lams_a, lams_b = (tuple(g[::-1][:k].tolist()) for g in grids)
    reduce = montecarlo._paired_counts(lams_a, lams_b)
    for snr, s_a, s_b in zip(snrs, stats[0::2], stats[1::2]):
        hit_a = s_a[:, None] >= np.array(lams_a)
        hit_b = s_b[:, None] >= np.array(lams_b)
        expected = [np.count_nonzero(h, axis=0).tolist() for h in (hit_a, hit_b, hit_a ^ hit_b)]
        assert montecarlo._run_blocks(sc, (snr,), specs, TRIAL_DOMAIN, workers, reduce) \
            .tolist() == [expected]


@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY])
def test_block_size_and_workers_never_change_results(monkeypatch, channel):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' writes as finely as possible
    try:
        # n=200 is sample-major in 2^16-sample blocks, trial-major in 2^15-sample ones;
        # n=129 is trial-major in 1- and 7-trial blocks and sample-major in larger
        # ones (254 + 46 trials, then 300), where its padded frames, over 128
        # samples, go to np.sum as a copy
        for n, trials in ((10, 500), (129, 300), (200, 500)):
            sc, snrs = _sc(channel=channel, n=n, trials=trials, seed=31), (-3.0, 4.0)
            grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P2, n)
            results = []
            for samples in (n, 7 * n, 1 << 15, 1 << 16):  # 1-trial, 7-trial, larger blocks
                monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", samples)
                for workers in (1, 2, 3):
                    pmd, stderr = pmd_table(sc, snrs, P2, grid, workers=workers)
                    h0 = calibration_h0_statistics(P3, n, trials, seed=31, workers=workers)
                    h1 = trial_statistics(sc, P3, snrs[1], workers=workers)  # p=3, signal on
                    roc = roc_sweep(sc, snrs, P2, grid, workers=workers)
                    results.append(([a.tobytes() for a in roc], pmd.tolist(), stderr.tolist(),
                                    h0.tolist(), h1.tolist()))
            assert all(r == results[0] for r in results[1:]), n
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def caller_cpus():
    """The widest CPU mask the test's thread may have, set on it for the
    test, so that no mask an earlier test left behind hides a leak; None
    without CPU masks.  The thread's own mask is put back afterwards."""
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    set_affinity, own = os.sched_setaffinity, os.sched_getaffinity(0)
    set_affinity(0, range(os.cpu_count()))  # the kernel keeps the allowed ones
    try:
        yield os.sched_getaffinity(0)
    finally:
        set_affinity(0, own)


def _affinity():
    """The calling thread's CPU mask, or None where it cannot be read."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_errors_reach_the_caller(monkeypatch, caller_cpus, workers):
    # 8-trial blocks; the block at trial 24 (worker 0 of 3, worker 1 of 2) fails.
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * 10)
    stats_block = montecarlo._stats_block

    def failing(sc, snrs, specs, lo, *args):
        if lo == 24:
            raise ZeroDivisionError(f"block at {lo}")
        return stats_block(sc, snrs, specs, lo, *args)

    monkeypatch.setattr(montecarlo, "_stats_block", failing)
    grid = ThresholdGrid((30.0, 10.0, 3.0))
    baseline = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="block at 24"):
        roc_sweep(_sc(trials=80, seed=5), [0.0], P2, grid, workers=workers)
    assert threading.active_count() == baseline
    # the calling thread keeps its mask on raise and on return
    assert _affinity() == caller_cpus
    monkeypatch.setattr(montecarlo, "_stats_block", stats_block)
    roc_sweep(_sc(trials=80, seed=5), [0.0], P2, grid, workers=workers)
    assert _affinity() == caller_cpus


@pytest.mark.parametrize("workers", [2, 3])
def test_each_worker_keeps_one_cpu_of_the_callers_mask(monkeypatch, caller_cpus, workers):
    cpus = sorted(caller_cpus or ())
    if len(cpus) < 2:
        pytest.skip("placement needs two CPUs in the caller's mask")
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * 10)  # 8-trial blocks
    stats_block, seen = montecarlo._stats_block, {}

    def recorded(sc, snrs, specs, lo, *args):
        # worker w runs blocks w, w + W, ...
        seen.setdefault(lo // 8 % workers, set()).add(
            (threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return stats_block(sc, snrs, specs, lo, *args)

    monkeypatch.setattr(montecarlo, "_stats_block", recorded)
    roc_sweep(_sc(trials=160, seed=5), [0.0], P2, ThresholdGrid((10.0,)), workers=workers)
    assert _affinity() == caller_cpus
    assert sorted(seen) == list(range(workers))
    placed = []
    for w, runs in sorted(seen.items()):
        (ident, cpu_set), = runs  # one thread, one mask, for all the worker's blocks
        assert (ident == threading.get_ident()) == (w == 0)  # worker 0: the caller
        if w == 0:
            assert cpu_set == caller_cpus  # never placed
        else:
            assert cpu_set == {cpus[w % len(cpus)]}
            placed.append(cpu_set)
    if workers <= len(cpus):
        assert len(set(placed)) == workers - 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_calling_threads_mask_is_never_set(monkeypatch, caller_cpus, workers):
    if caller_cpus is None:
        pytest.skip("no CPU masks on this platform")
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * 10)  # 8-trial blocks
    set_affinity, stats_block, setters = os.sched_setaffinity, montecarlo._stats_block, []

    def spy(pid, cpus):
        setters.append(threading.get_ident())
        set_affinity(pid, cpus)

    def failing(sc, snrs, specs, lo, *args):
        if lo == 24:  # the last of four blocks: worker 0 of 1 or 3, worker 1 of 2
            raise ZeroDivisionError(f"block at {lo}")
        return stats_block(sc, snrs, specs, lo, *args)

    monkeypatch.setattr(os, "sched_setaffinity", spy)
    sc, grid = _sc(trials=32, seed=5), ThresholdGrid((10.0,))
    roc_sweep(sc, [0.0], P2, grid, workers=workers)
    monkeypatch.setattr(montecarlo, "_stats_block", failing)
    with pytest.raises(ZeroDivisionError, match="block at 24"):
        roc_sweep(sc, [0.0], P2, grid, workers=workers)
    assert threading.get_ident() not in setters  # neither on return nor on raise
    # one call per started thread, per run; none at one worker
    assert len(setters) == (2 * (workers - 1) if len(caller_cpus) > 1 else 0)
    assert _affinity() == caller_cpus


def test_a_one_cpu_caller_runs_unplaced_with_the_same_counts(monkeypatch, caller_cpus):
    if caller_cpus is None:
        pytest.skip("no CPU masks on this platform")
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * 10)
    one, calls = {min(caller_cpus)}, []
    sc, grid = _sc(channel=CH_RAY, trials=200, seed=9), ThresholdGrid((20.0, 10.0, 3.0))
    os.sched_setaffinity(0, one)  # the fixture widens it again
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args))
    runs = [pmd_table(sc, [0.0, 5.0], P3, grid, workers=w) for w in (1, 3)]
    h0 = [calibration_h0_statistics(P3, 10, 200, seed=9, workers=w) for w in (1, 3)]
    assert _affinity() == one
    assert calls == []  # one CPU to share: nothing is placed
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    assert np.array_equal(*h0)  # the calibration's draw too


@pytest.mark.parametrize("how", ["refused", "missing"])
def test_workers_run_unplaced_where_placement_fails(monkeypatch, caller_cpus, how):
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * 10)
    sc, grid = _sc(trials=200, seed=9), ThresholdGrid((20.0, 10.0, 3.0))
    expected, calls = pmd_table(sc, [0.0], P3, grid), []
    if how == "refused":

        def refused(*args):
            calls.append(args)
            raise PermissionError("placement refused")

        monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    got = pmd_table(sc, [0.0], P3, grid, workers=3)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert _affinity() == caller_cpus
    if how == "refused" and len(caller_cpus or ()) >= 2:
        assert len(calls) == 2  # the two started threads tried; the caller is never placed


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sweep, block", [("roc_sweep", 8), ("compare_detectors", 64)],
                         ids=["roc_sweep", "compare_detectors"])
def test_worker_memory_does_not_grow_with_block_count(monkeypatch, workers, sweep, block):
    n = 10
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", block * n)
    grid = ThresholdGrid((30.0, 10.0, 3.0), pfa_targets=(0.01, 0.1, 0.5))
    run = {
        "roc_sweep": lambda sc: roc_sweep(sc, [0.0], P2, grid, workers=workers),
        "compare_detectors": lambda sc: compare_detectors(sc, [0.0], grid, grid, P2, P3,
                                                          workers=workers),
    }[sweep]
    # Two workers' blocks overlap wherever the interpreter switches
    # threads, and one worker can run all its blocks before the other
    # starts, so a two-worker peak moved by up to 7 KB between runs of one
    # size.  Running the blocks one at a time, in block order, keeps every
    # worker's buffers live and leaves the peak to what a run keeps.
    stats_block, turn, done = montecarlo._stats_block, threading.Condition(), [0]

    def in_block_order(sc, snrs, specs, lo, *args):
        with turn:
            assert turn.wait_for(lambda: done[0] == lo // block, timeout=60)
            try:
                return stats_block(sc, snrs, specs, lo, *args)
            finally:
                done[0] += 1
                turn.notify_all()

    monkeypatch.setattr(montecarlo, "_stats_block", in_block_order)

    def peak(count):
        sc = _sc(n=n, trials=block * count, seed=5)
        done[0] = 0
        tracemalloc.start()
        try:
            run(sc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(25)  # warm up, so one-time allocations land in neither measurement
    # Peaks of equal runs still differ by up to 0.7 KB with the runs made
    # before them, so the longer run adds 1,000 blocks and may keep 2
    # bytes for each.
    fewer = peak(100)  # first: a leak that outlives a run then inflates only the longer run
    more = 1000
    assert peak(100 + more) - fewer <= 2 * more


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_reuse_their_buffers_without_page_faults(p):
    # Each block used to allocate and free dozens of 512 KiB temporaries,
    # which the allocator handed back to the OS and faulted in again:
    # about 928 minor faults per block.  A worker's buffers are now
    # allocated once per run, so more blocks add almost no faults.
    resource = pytest.importorskip("resource")
    n = 10
    size = montecarlo._BLOCK_SAMPLES // n
    grid = ThresholdGrid((30.0, 20.0, 10.0))
    spec = DetectorSpec(p=p)

    def faults(blocks):
        sc = _sc(channel=CH_RAY, n=n, trials=blocks * size, seed=1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        roc_sweep(sc, (-10.0, 0.0, 10.0), spec, grid)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(10)  # warm up
    assert (faults(40) - faults(10)) / 30 < 8


def test_empirical_calibration_draws_on_the_callers_workers(monkeypatch, capsys, tmp_path):
    seen = []
    draw = montecarlo.calibration_h0_statistics

    def spy(*args, workers=1, **kwargs):
        seen.append(workers)
        return draw(*args, workers=workers, **kwargs)

    monkeypatch.setattr(montecarlo, "calibration_h0_statistics", spy)
    grids, printed = [], []
    for workers in (1, 2, 3):
        grids.append(grid_from_pfa_targets([0.01, 0.1], P3, 10, seed=4, workers=workers).values)
        assert cli.main(["calibrate", "--detector-p", "3", "--pfa-targets", "0.01,0.1",
                         "--seed", "4", "--workers", str(workers)]) == 0
        printed.append(capsys.readouterr().out)
    assert cli.main(["compare", "--trials", "1000", "--snr-db=0", "--seed", "4",
                     "--workers", "2", "--out", str(tmp_path)]) == 0
    assert seen == [1, 1, 2, 2, 3, 3, 2]
    assert grids[0] == grids[1] == grids[2]  # bit-identical thresholds
    assert printed[0] == printed[1] == printed[2]
    assert repr(grids[0][1]) in printed[0]
