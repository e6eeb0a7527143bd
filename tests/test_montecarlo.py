"""Engine tests: exact scalar equivalence, determinism, CRN structure."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from oracle_scalar import frame, received_frame

from sensesim import analytic, cli, montecarlo
from sensesim.analytic import calibrate_threshold
from sensesim.detector import DetectorSpec, statistic
from sensesim.montecarlo import (
    CALIBRATION_DOMAIN,
    TRIAL_DOMAIN,
    ComparisonReport,
    ComparisonRow,
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
from sensesim.rng import Stream
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
CH_AWGN = ChannelModel(AWGN, 1.0)
CH_RAY = ChannelModel(RAYLEIGH, 1.0)


def _h1(channel=CH_AWGN, n=10, trials=2000, seed=7, signal=Bpsk(), snr_db=0.0):
    return Scenario(
        channel=channel, n_samples=n, trials=trials, seed=seed,
        signal=signal, snr_db=snr_db,
    )


def _naive_statistics(sc: Scenario, spec: DetectorSpec) -> np.ndarray:
    """The per-trial reference loop of ``oracle_scalar``, one trial at a time."""
    root = Stream.from_seed(sc.seed)
    out = np.empty(sc.trials)
    for t in range(sc.trials):
        trial = root.child(TRIAL_DOMAIN, t)
        y, _ = received_frame(sc.signal, sc.channel, sc.snr_db, sc.n_samples, trial)
        out[t] = statistic(y, spec, sc.channel.noise_std)
    return out


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0, snr_db=0.0)  # no signal
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0, signal=Bpsk())  # no SNR
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0,
                 signal=Bpsk(), snr_db=float("inf"))
    with pytest.raises(TypeError):  # noise-only is read from the signal, never set
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0, noise_only=True)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=0, trials=10, seed=0)
    with pytest.raises(ValueError):
        Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=-1)
    h0 = Scenario(channel=CH_AWGN, n_samples=10, trials=10, seed=0)
    assert h0.noise_only and h0.as_noise_only() == h0
    sc = _h1()
    assert not sc.noise_only
    twin = sc.as_noise_only()
    assert twin.noise_only and twin.signal is None and twin.snr_db is None
    assert (twin.seed, twin.trials, twin.n_samples) == (sc.seed, sc.trials, sc.n_samples)


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
        assert lam == calibrate_threshold(P2, 10, target).threshold
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
    sc0 = _h1().as_noise_only()
    assert estimate_pfa(sc0, P2, 0.0).pfa == 1.0  # ties decide H1
    assert estimate_pfa(sc0, P2, 1e12).pfa == 0.0
    sc1 = _h1()
    assert estimate_pmd(sc1, P2, 0.0).pmd == 0.0
    assert estimate_pmd(sc1, P2, 1e12).pmd == 1.0
    with pytest.raises(ValueError):
        count_detections(sc0, P2, -1.0)
    with pytest.raises(ValueError):
        count_detections(sc0, P2, float("nan"))


def test_estimator_hypothesis_guards():
    sc1 = _h1()
    with pytest.raises(ValueError):
        estimate_pfa(sc1, P2, 1.0)
    with pytest.raises(ValueError):
        estimate_pmd(sc1.as_noise_only(), P2, 1.0)


def test_rates_are_exact_count_ratios():
    sc0 = _h1(trials=1000).as_noise_only()
    lam = calibrate_threshold(P2, 10, 0.1).threshold
    pt = estimate_pfa(sc0, P2, lam)
    assert pt.pfa == count_detections(sc0, P2, lam) / 1000
    sc1 = _h1(trials=1000)
    pm = estimate_pmd(sc1, P2, lam)
    assert pm.pmd == (1000 - count_detections(sc1, P2, lam)) / 1000
    assert pm.pd + pm.pmd == 1.0


def test_engine_matches_naive_loop_awgn():
    for spec in (P2, P3):
        for sc in (_h1(trials=300, n=5), _h1(trials=300, n=5).as_noise_only()):
            assert np.array_equal(
                trial_statistics(sc, spec), _naive_statistics(sc, spec)
            )


def test_engine_matches_naive_loop_rayleigh():
    sc = _h1(channel=CH_RAY, trials=300, n=5, seed=11, snr_db=-3.0)
    for spec in (P2, P3):
        assert np.array_equal(trial_statistics(sc, spec), _naive_statistics(sc, spec))


def test_engine_matches_naive_loop_other_signals():
    for signal in (GaussianIid(power=2.0), Sinusoid(power=1.0, cycles_per_frame=2.0)):
        sc = _h1(signal=signal, trials=200, n=6, seed=13)
        assert np.array_equal(trial_statistics(sc, P2), _naive_statistics(sc, P2))


def test_engine_matches_naive_loop_unnormalized_noise_power():
    sc = _h1(channel=ChannelModel(AWGN, 2.5), trials=200, n=4, seed=17)
    spec = DetectorSpec(p=2, normalized=False)
    assert np.array_equal(trial_statistics(sc, spec), _naive_statistics(sc, spec))


def test_worker_count_never_changes_values():
    # frame long enough to split the run into several blocks
    sc = _h1(trials=3000, n=2000, seed=23)
    base = trial_statistics(sc, P2)
    for workers in (2, 4, 7):
        assert np.array_equal(base, trial_statistics(sc, P2, workers=workers))


def test_multi_block_boundaries_match_scalar_recipe():
    sc = _h1(trials=3000, n=2000, seed=23)
    stats = trial_statistics(sc, P2)
    root = Stream.from_seed(sc.seed)
    for t in (0, 2047, 2048, 2999):  # straddle an internal block edge (32-trial blocks)
        trial = root.child(TRIAL_DOMAIN, t)
        y, _ = received_frame(sc.signal, sc.channel, sc.snr_db, sc.n_samples, trial)
        assert stats[t] == statistic(y, P2, sc.channel.noise_std)


def test_determinism_and_seed_sensitivity():
    a = trial_statistics(_h1(seed=1), P2)
    b = trial_statistics(_h1(seed=1), P2)
    c = trial_statistics(_h1(seed=2), P2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_calibration_domain_is_disjoint_from_trials():
    cal = calibration_h0_statistics(P2, 10, 2000, seed=7)
    sc0 = _h1(trials=2000).as_noise_only()
    trial = trial_statistics(sc0, P2)
    assert cal.shape == trial.shape
    assert not np.array_equal(cal, trial)
    # and the calibration stream is its own naive recipe, domain swapped
    root = Stream.from_seed(7)
    t = 137
    rng = root.child(CALIBRATION_DOMAIN, t)
    y, _ = received_frame(None, CH_AWGN, None, 10, rng)
    assert cal[t] == statistic(y, P2, 1.0)


def test_roc_sweep_is_exactly_monotone():
    sc1 = _h1(trials=20_000)
    grid = default_threshold_grid(P2, 10)
    (curve,) = roc_sweep([sc1], P2, grid)
    assert len(curve.points) == 26
    assert np.all(np.diff(curve.pfa) >= 0.0)  # shared trials: no wiggle at all
    assert np.all(np.diff(curve.pd) >= 0.0)
    with pytest.raises(ValueError):
        roc_sweep([sc1.as_noise_only()], P2, grid)
    # several H1 columns differ in snr_db only
    with pytest.raises(ValueError):
        roc_sweep([sc1, _h1(trials=20_000, signal=GaussianIid())], P2, grid)
    with pytest.raises(ValueError):
        roc_sweep([], P2, grid)


def test_run_blocks_needs_one_shared_draw():
    # every column is drawn from the first one's seed, trials, frame
    # length, channel and signal: H0 must be the exact noise-only twin
    # and all signal columns must carry the same model
    sc1 = _h1(trials=200)
    h0 = sc1.as_noise_only()
    mismatched = (_h1(trials=200, seed=8), _h1(trials=100), _h1(trials=200, n=12),
                  _h1(trials=200, channel=CH_RAY))
    for columns in (
        *((h0, other) for other in mismatched),
        *((sc1, other) for other in mismatched),
        (h0, sc1, _h1(trials=200, signal=GaussianIid())),
    ):
        with pytest.raises(ValueError):
            montecarlo._run_blocks(columns, (P2,), TRIAL_DOMAIN, 1)
    montecarlo._run_blocks((h0, sc1, _h1(trials=200, snr_db=5.0)), (P2,), TRIAL_DOMAIN, 1)


def test_roc_sweep_over_columns_equals_one_call_per_column():
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P2, 10)
    columns = [_h1(channel=CH_RAY, trials=3000, snr_db=s) for s in (10.0, -10.0, 0.0)]
    curves = roc_sweep(columns, P2, grid)
    assert curves == [roc_sweep([sc], P2, grid)[0] for sc in columns]


def test_pmd_table_structure_and_reference_hookup():
    grid = default_threshold_grid(P2, 10)
    columns = [_h1(trials=20_000, snr_db=s, seed=19) for s in (-10.0, 0.0, 10.0)]
    table = pmd_table(columns, P2, grid)
    assert table.values.shape == (26, 3)
    assert not table.values.flags.writeable
    # down-column trend is exact under shared trials
    assert np.all(table.values[1:, :] <= table.values[:-1, :])


def test_pmd_table_input_validation():
    grid = default_threshold_grid(P2, 10)
    with pytest.raises(ValueError):
        pmd_table([], P2, grid)
    with pytest.raises(ValueError):
        pmd_table([_h1().as_noise_only()], P2, grid)
    with pytest.raises(ValueError):
        pmd_table([_h1(snr_db=0.0), _h1(snr_db=-10.0)], P2, grid)
    with pytest.raises(ValueError):
        pmd_table([_h1(snr_db=0.0), _h1(snr_db=10.0, n=12)], P2, grid)
    # columns share one draw, so they may differ in snr_db only
    for other in (
        _h1(snr_db=10.0, seed=8),
        _h1(snr_db=10.0, trials=1000),
        _h1(snr_db=10.0, channel=CH_RAY),
        _h1(snr_db=10.0, signal=GaussianIid()),
    ):
        with pytest.raises(ValueError):
            pmd_table([_h1(snr_db=0.0), other], P2, grid)


def test_compare_same_spec_gives_exact_zero():
    sc1 = _h1(trials=20_000)
    report = compare_detectors(sc1, [0.01, 0.1], spec_a=P2, spec_b=P2)
    for row in report.rows:
        assert row.delta == 0.0
        assert row.stderr_delta == 0.0
        assert row.lambda_a == row.lambda_b
        assert row.pmd_a == row.pmd_b
    assert "no measured difference" in report.sign_summary()


def test_compare_verdict_names_the_measured_detector():
    rows = tuple(
        ComparisonRow(target_pfa=0.1, lambda_a=1.0, lambda_b=1.0, pmd_a=0.5,
                      pmd_b=0.5 - d, delta=d, stderr_delta=0.01)
        for d in (0.25, -0.25, 0.0)
    )
    report = ComparisonReport(rows=rows, spec_a=P2, spec_b=DetectorSpec(p=4))
    verdicts = ["p=4 misses less", "p=2 misses less", "no measured difference"]
    assert [report.verdict(row) for row in rows] == verdicts
    for line, verdict in zip(report.sign_summary().split("\n"), verdicts):
        assert line.endswith(f"({verdict})")


def test_compare_is_bitwise_reproducible():
    sc1 = _h1(trials=20_000, snr_db=-10.0)
    a = compare_detectors(sc1, [0.01, 0.1])
    b = compare_detectors(sc1, [0.01, 0.1])
    assert a == b  # frozen dataclasses of floats: bit-for-bit equality


def test_compare_no_signal_shows_no_difference():
    sc0 = _h1(trials=50_000).as_noise_only()
    report = compare_detectors(sc0, [0.1])
    row = report.rows[0]
    # both detectors run at the same false-alarm budget on pure noise:
    # each misses at about 1 - target, and the paired delta straddles 0
    assert abs(row.pmd_a - 0.9) <= 0.015
    assert abs(row.pmd_b - 0.9) <= 0.015
    assert abs(row.delta) <= 3.0 * row.stderr_delta + 1e-12


def test_compare_rows_follow_targets():
    sc1 = _h1(trials=10_000, snr_db=0.0)
    report = compare_detectors(sc1, [0.01, 0.1])
    assert [r.target_pfa for r in report.rows] == [0.01, 0.1]
    r_strict, r_loose = report.rows
    assert r_strict.lambda_a > r_loose.lambda_a
    assert r_strict.lambda_b > r_loose.lambda_b
    assert r_strict.pmd_a >= r_loose.pmd_a
    assert report.sign_summary().count("\n") == 1
    with pytest.raises(ValueError):
        compare_detectors(sc1, [0.0])


def test_pair_statistics_share_frames():
    sc1 = _h1(trials=500)
    sa, sb = trial_statistics_pair(sc1, P2, P3)
    assert np.array_equal(sa, trial_statistics(sc1, P2))
    assert np.array_equal(sb, trial_statistics(sc1, P3))


def test_common_noise_pairs_hypotheses():
    # H0 and H1 of one seed share their noise draws trial for trial:
    # subtracting the known signal part of each H1 frame recovers H0 exactly
    sc1 = _h1(trials=50, n=8, seed=31)
    sc0 = sc1.as_noise_only()
    root = Stream.from_seed(sc1.seed)
    for t in range(sc1.trials):
        trial = root.child(TRIAL_DOMAIN, t)
        x = frame(sc1.signal, sc1.n_samples, trial)
        y1, h = received_frame(sc1.signal, sc1.channel, sc1.snr_db, sc1.n_samples, trial)
        y0, _ = received_frame(sc1.signal, sc1.channel, None, sc1.n_samples, trial)
        amp = h * math.sqrt(1.0 * sc1.channel.noise_variance)
        assert np.array_equal(y1, amp * x + y0)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("channel", [CH_AWGN, ChannelModel(RAYLEIGH, 2.0)])
@pytest.mark.parametrize(
    "signal", [Bpsk(), Sinusoid(power=1.5, cycles_per_frame=1.0), GaussianIid(power=0.5)]
)
def test_kernel_counts_equal_per_trial_counts(monkeypatch, workers, channel, signal):
    specs = (P2, P3)
    columns = [_h1(channel=channel, n=5, trials=101, seed=29, signal=signal, snr_db=s)
               for s in (-5.0, 0.0, 7.0)]
    h0 = columns[0].as_noise_only()
    stats = [trial_statistics(sc, spec) for sc in (h0, *columns) for spec in specs]
    # thresholds equal to trial statistics pin "ties detect" in every column
    ties = np.concatenate([s[[0, 40, 100]] for s in stats])
    lams = tuple(np.unique(np.concatenate([ties, [0.0, 1e9]]))[::-1].tolist())
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 16 * 5)  # six 16-trial blocks, then a ragged 5
    counts = montecarlo._run_blocks(
        (h0, *columns), specs, TRIAL_DOMAIN, workers, lams
    )
    expected = [[np.count_nonzero(s >= lam) for lam in lams] for s in stats]
    assert counts.tolist() == expected


@pytest.mark.parametrize("channel", [CH_AWGN, CH_RAY])
def test_block_size_and_workers_never_change_results(monkeypatch, channel):
    n = 10
    columns = [_h1(channel=channel, n=n, trials=500, seed=31, snr_db=s) for s in (-3.0, 4.0)]
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], P2, n)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' writes as finely as possible
    try:
        for samples in (n, 7 * n, 1 << 16):  # 1-trial, 7-trial and single blocks
            monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", samples)
            for workers in (1, 2, 3):
                table = pmd_table(columns, P2, grid, workers=workers)
                h0 = calibration_h0_statistics(P3, n, 500, channel=channel, seed=31,
                                               workers=workers)
                results.append((roc_sweep(columns, P2, grid, workers=workers),
                                table.values.tolist(), h0.tolist()))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_memory_does_not_grow_with_block_count(monkeypatch, workers):
    n = 10
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 8 * n)  # 8-trial blocks
    grid = ThresholdGrid((30.0, 10.0, 3.0))

    def peak(blocks):
        sc = _h1(n=n, trials=8 * blocks, seed=5)
        tracemalloc.start()
        try:
            roc_sweep([sc], P2, grid, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # warm up, so one-time allocations land in neither measurement
    assert peak(10_000) <= 1.25 * peak(2_500)


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
        columns = [_h1(channel=CH_RAY, n=n, trials=blocks * size, seed=1, snr_db=s)
                   for s in (-10.0, 0.0, 10.0)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        roc_sweep(columns, spec, grid)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(10)  # warm up
    assert (faults(40) - faults(10)) / 30 < 8


def test_empirical_calibration_draws_on_the_callers_workers(monkeypatch, capsys):
    seen = []
    draw = montecarlo.calibration_h0_statistics

    def spy(*args, workers=1, **kwargs):
        seen.append(workers)
        return draw(*args, workers=workers, **kwargs)

    monkeypatch.setattr(montecarlo, "calibration_h0_statistics", spy)
    grids, printed = [], []
    for workers in (1, 2, 3):
        monkeypatch.setattr(analytic, "_h0_memo", (None, None))  # force a fresh draw
        grids.append(grid_from_pfa_targets([0.01, 0.1], P3, 10, seed=4, workers=workers).values)
        monkeypatch.setattr(analytic, "_h0_memo", (None, None))
        assert cli.main(["calibrate", "--detector-p", "3", "--pfa-targets", "0.01,0.1",
                         "--seed", "4", "--workers", str(workers)]) == 0
        printed.append(capsys.readouterr().out)
    monkeypatch.setattr(analytic, "_h0_memo", (None, None))
    compare_detectors(_h1(seed=4), [0.1], workers=2)
    assert seen == [1, 1, 2, 2, 3, 3, 2]
    assert grids[0] == grids[1] == grids[2]  # bit-identical thresholds
    assert printed[0] == printed[1] == printed[2]
    assert repr(grids[0][1]) in printed[0]
