"""Seeded Monte Carlo engine for false-alarm and missed-detection rates.

Reproducibility contract
------------------------
Every estimator here is a pure function of (scenario, detector spec,
thresholds, seed).  Trial t of a run draws from the per-trial key

    Stream.from_seed(scenario.seed).child(TRIAL_DOMAIN, t)

and reads its noise, fading gain and signal from that key's fixed role
sub-streams (:mod:`sensesim.signal_channel`).  Any one trial can thus be
redrawn on its own: the per-trial loop of ``tests/oracle_scalar.py``
reproduces the engine's statistics and counts bit for bit, H0 frames
included.  The engine vectorizes that loop in fixed-size trial blocks;
block boundaries and worker counts cannot change any value, only
wall-clock time.

Empirical-quantile threshold calibration draws from
``child(CALIBRATION_DOMAIN, t)`` instead, so calibration noise is
disjoint from every evaluation trial of the same seed.

Common random numbers
---------------------
Scenarios that differ only in SNR, or in being the noise-only twin,
share every draw trial for trial: noise, fading gain and signal live on
separate role streams of the same per-trial key.  The engine exploits
that directly.  For each trial block it draws the keys, noise, signal
and fading gains once, scores H0 (the noise alone) and then every SNR
column, formed by scale-and-add.  ``roc_sweep`` and ``pmd_table``
reduce each column's block statistics to integer counts against the
whole threshold grid (sort, then ``searchsorted``) and sum the counts
over blocks.  A block holds 2^16 samples, so it stays in L2, and each
worker draws, forms and scores all its blocks in one set of buffers
(sample-major for short frames), so memory is O(workers x block)
however many trials run.  The integer totals are independent of the
worker count, and empirical ROC curves and P_MD columns are exactly
monotone, not just statistically so.  Empirical calibration draws its
H0 statistics once per (spec, n, trials, channel, seed) and takes every
P_FA target's quantile from them.  The detector comparison evaluates
both exponents on the identical received frames and reports a
paired-difference standard error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analytic import calibrate_threshold
from .detector import DetectorSpec, statistic_rows
from .metrics import (
    ConfusionCounts,
    RatePoint,
    RocCurve,
    binomial_stderr,
    rates_from_counts,
    roc_assemble,
)
from .rng import MASK64, Stream, fold_in, fold_range, normal_block, uniform_block
from .signal_channel import (
    AWGN,
    FADING_ROLE,
    NOISE_ROLE,
    RAYLEIGH,
    ChannelModel,
    SignalModel,
    snr_to_linear,
)

TRIAL_DOMAIN = 1
CALIBRATION_DOMAIN = 2

# Samples per vectorized block: 512 KiB per float64 array, so a block
# stays in L2.  Block size affects memory and speed only, never values.
_BLOCK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class Scenario:
    """One experiment: channel, frame length, trials, seed, and a signal
    model at an SNR; without a signal it is the noise-only (H0) case."""

    channel: ChannelModel
    n_samples: int
    trials: int
    seed: int
    signal: SignalModel | None = None
    snr_db: float | None = None

    def __post_init__(self):
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.signal is None:
            if self.snr_db is not None:
                raise ValueError("an SNR needs a signal model; the noise-only case has neither")
        else:
            if not isinstance(self.signal, SignalModel):
                raise ValueError(f"signal must be a SignalModel, got {self.signal!r}")
            if not (isinstance(self.snr_db, (int, float)) and math.isfinite(self.snr_db)):
                raise ValueError(
                    f"snr_db must be finite, got {self.snr_db!r} "
                    "(leave out the signal for the H0 case, not an SNR sentinel)"
                )

    @property
    def noise_only(self) -> bool:
        """True for the H0 case, the scenario without a signal."""
        return self.signal is None

    def as_noise_only(self) -> "Scenario":
        """The H0 twin: same channel, frame length, trials, and seed."""
        return replace(self, signal=None, snr_db=None)


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly decreasing thresholds, optionally carrying the P_FA targets
    they were calibrated to."""

    values: tuple[float, ...]
    pfa_targets: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("a threshold grid needs at least one value")
        for lam in self.values:
            if not (isinstance(lam, float) and math.isfinite(lam) and lam >= 0):
                raise ValueError(f"thresholds must be finite floats >= 0, got {lam!r}")
        if any(b >= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"thresholds must be strictly decreasing, got {self.values}")
        if self.pfa_targets is not None and len(self.pfa_targets) != len(self.values):
            raise ValueError("pfa_targets must pair one-to-one with thresholds")


DEFAULT_PFA_TARGETS = tuple(float(t) for t in np.geomspace(0.001, 0.9, 26))


def grid_from_pfa_targets(
    targets,
    spec: DetectorSpec,
    n: int,
    *,
    channel: ChannelModel | None = None,
    cal_trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ThresholdGrid:
    """Calibrate one threshold per P_FA target (given in increasing order).

    Each target goes through :func:`calibrate_threshold` on its default
    route: analytic for p=2, otherwise the empirical quantile of
    ``cal_trials`` calibration-domain noise statistics on ``workers``.
    """
    targets = [float(t) for t in targets]
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("pfa targets must be strictly increasing")
    lams = tuple(
        calibrate_threshold(
            spec, n, t, channel=channel, trials=cal_trials, seed=seed, workers=workers
        ).threshold
        for t in targets
    )
    return ThresholdGrid(lams, pfa_targets=tuple(targets))


def default_threshold_grid(
    spec: DetectorSpec,
    n: int,
    *,
    channel: ChannelModel | None = None,
    cal_trials: int = 100_000,
    seed: int = 0,
) -> ThresholdGrid:
    """The 26-row default grid: P_FA targets log-spaced from 0.001 to 0.9."""
    return grid_from_pfa_targets(
        DEFAULT_PFA_TARGETS, spec, n, channel=channel, cal_trials=cal_trials, seed=seed
    )


def _stats_block(columns, specs, lo: int, hi: int, domain: int, buffers, lams=None):
    """Statistics of trials [lo, hi), one vector per (column, spec) pair.

    ``columns`` are scenarios that differ only in SNR or in being the
    noise-only twin.  The block's keys, noise, signal and fading gains
    are drawn once into the worker's ``buffers``; each (column, spec)
    pair is formed, as a copy of the noise for H0 and ``amp * x + w``
    otherwise, and scored in the draw scratch, reused as float64.  With
    ``lams`` each statistic vector is reduced to its detection counts,
    element i counting the trials with statistic >= lams[i] (ties detect).
    """
    sc = columns[0]
    n = sc.n_samples
    channel = sc.channel
    sigma = channel.noise_std
    w_buf, x_buf, work, gains = (b[: hi - lo] for b in buffers)
    dom_key = Stream.from_seed(sc.seed).child(domain).key
    keys = fold_range(dom_key, np.arange(lo, hi, dtype=np.uint64))
    w = normal_block(fold_in(keys, NOISE_ROLE), n, out=w_buf, work=work)
    w *= sigma
    signal = next((c.signal for c in columns if not c.noise_only), None)
    if signal is not None:
        x = signal.block(keys, n, out=x_buf, work=work)
        if channel.kind == RAYLEIGH:
            gain, scaled = gains.T
            uniform_block(fold_in(keys, FADING_ROLE), 1, out=gains, work=work)
            np.sqrt(np.negative(np.log(gain, out=gain), out=gain), out=gain)
    y = work.view(np.float64)[:, :n]
    out = []
    for col in columns:
        if not col.noise_only:
            amp = math.sqrt(snr_to_linear(col.snr_db) * channel.noise_variance)
            if channel.kind == RAYLEIGH:
                amp = np.multiply(gain, amp, out=scaled)[:, None]
        for spec in specs:
            if col.noise_only:
                np.copyto(y, w)
            else:
                np.add(np.multiply(amp, x, out=y), w, out=y)
            t = statistic_rows(y, spec, sigma)
            if lams is not None:
                t.sort()
                t = t.size - np.searchsorted(t, lams, side="left")
            out.append(t)
    return out


def _run_blocks(columns, specs, domain: int, workers: int, lams=None):
    """Run :func:`_stats_block` over all trial blocks of ``columns``.

    Every column is drawn from ``columns[0]``'s seed, channel and signal,
    so all columns must have the same noise-only twin and every signal
    column the same model: they may differ in SNR, or in being that twin.

    Without ``lams``: one per-trial statistic array per (column, spec),
    in trial order.  With ``lams``: an int64 array of detection counts,
    one row per (column, spec) and one column per threshold, summed over
    blocks, so the totals are worker-invariant.  Worker w of W runs
    blocks w, w + W, ... in one set of block buffers, so memory is
    O(W x block) at any block count and no block allocates a block.
    """
    sc = columns[0]
    twin = sc.as_noise_only()
    signal = next((c.signal for c in columns if not c.noise_only), None)
    if any(c.as_noise_only() != twin or c.signal not in (None, signal) for c in columns):
        raise ValueError("columns share one draw, so they may differ in snr_db only")
    trials, size = sc.trials, min(sc.trials, max(1, _BLOCK_SAMPLES // sc.n_samples))
    starts = range(0, trials, size)
    workers = max(1, min(workers, len(starts)))
    rows = len(columns) * len(specs)
    outs = None if lams is not None else [np.empty(trials) for _ in range(rows)]

    def run(first):
        counts = np.zeros((rows, len(lams)), dtype=np.int64) if outs is None else None
        # (trials, n) noise, signal and uint64 scratch, n padded to Box-Muller
        # pairs, longer side contiguous; then fading gain and per-SNR scaling.
        pad = sc.n_samples + sc.n_samples % 2
        buffers = [np.empty((pad, size), dt).T if size >= pad else np.empty((size, pad), dt)
                   for dt in (np.float64, np.float64, np.uint64)] + [np.empty((2, size)).T]
        for lo in starts[first::workers]:
            hi = min(lo + size, trials)
            stats = _stats_block(columns, specs, lo, hi, domain, buffers, lams)
            if outs is None:
                counts += stats
            else:
                for out, block_stats in zip(outs, stats):
                    out[lo:hi] = block_stats
        return counts

    if workers == 1:
        parts = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(workers)))
    return outs if outs is not None else sum(parts)


def trial_statistics(
    sc: Scenario, spec: DetectorSpec, *, workers: int = 1
) -> np.ndarray:
    """Detection statistics of every trial, in trial order.

    Identical values for any worker count; element t equals the
    per-trial recomputation described in the module docstring.
    """
    return _run_blocks((sc,), (spec,), TRIAL_DOMAIN, workers)[0]


def trial_statistics_pair(
    sc: Scenario, spec_a: DetectorSpec, spec_b: DetectorSpec, *, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Both detectors' statistics over the identical received frames."""
    stats_a, stats_b = _run_blocks((sc,), (spec_a, spec_b), TRIAL_DOMAIN, workers)
    return stats_a, stats_b


def calibration_h0_statistics(
    spec: DetectorSpec,
    n: int,
    trials: int,
    *,
    channel: ChannelModel | None = None,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Pure-noise statistics from the calibration domain of ``seed``."""
    channel = channel if channel is not None else ChannelModel(AWGN, 1.0)
    sc = Scenario(channel=channel, n_samples=n, trials=trials, seed=seed)
    return _run_blocks((sc,), (spec,), CALIBRATION_DOMAIN, workers)[0]


def count_detections(
    sc: Scenario, spec: DetectorSpec, lam: float, *, workers: int = 1
) -> int:
    """Number of trials whose statistic meets the threshold (ties detect)."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {lam!r}")
    counts = _run_blocks((sc,), (spec,), TRIAL_DOMAIN, workers, lams=(float(lam),))
    return int(counts[0, 0])


def estimate_pfa(
    sc: Scenario, spec: DetectorSpec, lam: float, *, workers: int = 1
) -> RatePoint:
    """Empirical false-alarm probability of a noise-only scenario."""
    if not sc.noise_only:
        raise ValueError("estimate_pfa needs a noise-only scenario; "
                         "use estimate_pmd for signal scenarios")
    fa = count_detections(sc, spec, lam, workers=workers)
    pfa = fa / sc.trials
    return RatePoint.pfa_only(pfa, stderr_pfa=binomial_stderr(pfa, sc.trials))


def estimate_pmd(
    sc: Scenario, spec: DetectorSpec, lam: float, *, workers: int = 1
) -> RatePoint:
    """Empirical missed-detection probability of a signal scenario.

    pmd is the measured fraction; pd = 1 - pmd is derived from it.
    """
    if sc.noise_only:
        raise ValueError("estimate_pmd needs a signal scenario; "
                         "use estimate_pfa for noise-only scenarios")
    det = count_detections(sc, spec, lam, workers=workers)
    pmd = (sc.trials - det) / sc.trials
    return RatePoint.from_pmd(pmd, stderr_pd=binomial_stderr(pmd, sc.trials))


def roc_sweep(
    columns: Sequence[Scenario],
    spec: DetectorSpec,
    grid: ThresholdGrid,
    *,
    workers: int = 1,
) -> list[RocCurve]:
    """One ROC curve per SNR column, all thresholds sharing trials.

    The columns are signal scenarios that differ in ``snr_db`` only, and
    H0 is their noise-only twin.  One pass draws every trial once and
    scores H0 and each column from it, so the empirical curves are
    exactly monotone.  Curves come back in column order.
    """
    columns = tuple(columns)
    if not columns:
        raise ValueError("roc_sweep needs at least one signal scenario")
    if any(sc.noise_only for sc in columns):
        raise ValueError("roc_sweep columns must be signal scenarios")
    sc_h0 = columns[0].as_noise_only()
    counts = _run_blocks((sc_h0, *columns), (spec,), TRIAL_DOMAIN, workers, grid.values)
    trials = sc_h0.trials
    curves = []
    for detections in counts[1:]:
        points = [
            (lam, rates_from_counts(ConfusionCounts(
                h0_trials=trials, h1_trials=trials,
                false_alarms=int(fa), detections=int(det),
            )))
            for lam, fa, det in zip(grid.values, counts[0], detections)
        ]
        curves.append(roc_assemble(points))
    return curves


@dataclass(frozen=True)
class PmdTable:
    """Missed-detection grid: one row per threshold, one column per SNR.

    Construction validates the two trend invariants at 3 combined
    standard errors: pmd must not increase down any column (thresholds
    fall) nor along any row (SNR rises).
    """

    grid: ThresholdGrid
    snr_list_db: tuple[float, ...]
    values: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        se = np.array(self.stderr, dtype=np.float64)
        rows, cols = len(self.grid.values), len(self.snr_list_db)
        if v.shape != (rows, cols) or se.shape != (rows, cols):
            raise ValueError(
                f"table shape {v.shape} does not match grid x snr ({rows}, {cols})"
            )
        if np.any((v < 0) | (v > 1)):
            raise ValueError("pmd values must lie in [0, 1]")
        slack_col = 3.0 * (se[:-1, :] + se[1:, :])
        if np.any(v[1:, :] > v[:-1, :] + slack_col):
            raise ValueError("pmd increased down a column beyond 3 stderr")
        slack_row = 3.0 * (se[:, :-1] + se[:, 1:])
        if np.any(v[:, 1:] > v[:, :-1] + slack_row):
            raise ValueError("pmd increased with SNR beyond 3 stderr")
        for arr in (v, se):
            arr.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "stderr", se)


def pmd_table(
    columns: Sequence[Scenario],
    spec: DetectorSpec,
    grid: ThresholdGrid,
    *,
    workers: int = 1,
) -> PmdTable:
    """Fill the threshold-by-SNR missed-detection matrix.

    Columns are signal scenarios in strictly increasing SNR order that
    differ in ``snr_db`` only.  One pass draws every trial's noise,
    signal and fading once and scores each column from it, so all
    thresholds and all columns share trials (exactly monotone down the
    grid).
    """
    if not columns:
        raise ValueError("pmd_table needs at least one scenario column")
    if any(sc.noise_only for sc in columns):
        raise ValueError("pmd_table columns must be signal scenarios")
    snrs = [sc.snr_db for sc in columns]
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise ValueError("pmd_table columns must come in strictly increasing SNR order")
    trials = columns[0].trials
    counts = _run_blocks(tuple(columns), (spec,), TRIAL_DOMAIN, workers, grid.values)
    values = np.empty((len(grid.values), len(columns)))
    stderr = np.empty_like(values)
    for c, detections in enumerate(counts):
        for r, det in enumerate(detections):
            pmd = (trials - int(det)) / trials
            values[r, c] = pmd
            stderr[r, c] = binomial_stderr(pmd, trials)
    return PmdTable(
        grid=grid,
        snr_list_db=tuple(float(s) for s in snrs),
        values=values,
        stderr=stderr,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One matched-P_FA comparison of the two detectors."""

    target_pfa: float
    lambda_a: float
    lambda_b: float
    pmd_a: float
    pmd_b: float
    delta: float  # pmd_a - pmd_b; positive means detector b misses less
    stderr_delta: float


@dataclass(frozen=True)
class ComparisonReport:
    """Matched-P_FA detector comparison over identical received frames."""

    rows: tuple[ComparisonRow, ...]
    spec_a: DetectorSpec
    spec_b: DetectorSpec

    def verdict(self, row: ComparisonRow) -> str:
        """The measured sign of one row's delta, in words."""
        if row.delta > 0:
            return f"p={self.spec_b.p} misses less"
        if row.delta < 0:
            return f"p={self.spec_a.p} misses less"
        return "no measured difference"

    def sign_summary(self) -> str:
        """State the measured sign of each delta; no outcome is assumed."""
        return "\n".join(
            f"target pfa {row.target_pfa:g}: "
            f"pmd(p={self.spec_a.p}) - pmd(p={self.spec_b.p}) = "
            f"{row.delta:+.6f} +/- {row.stderr_delta:.6f} ({self.verdict(row)})"
            for row in self.rows
        )


def compare_detectors(
    sc: Scenario,
    pfa_targets,
    spec_a: DetectorSpec = DetectorSpec(p=2),
    spec_b: DetectorSpec = DetectorSpec(p=3),
    *,
    cal_trials: int = 100_000,
    workers: int = 1,
) -> ComparisonReport:
    """Calibrate both detectors to each target P_FA and compare their P_MD.

    Each threshold comes from :func:`calibrate_threshold` on its default
    route (analytic for p=2, empirical quantile otherwise), anchored to
    ``sc``'s channel and seed.  Both detectors then score the identical
    received frames of ``sc``, and each row reports the paired
    difference delta = pmd_a - pmd_b with its paired standard error.
    The sign of delta is measured, never assumed.

    ``sc`` may itself be noise-only: that is the degenerate no-signal
    check, where both detectors should miss at rate 1 - target.
    """
    targets = [float(t) for t in pfa_targets]
    for t in targets:
        if not 0.0 < t < 1.0:
            raise ValueError(f"pfa targets must lie strictly inside (0, 1), got {t!r}")

    def calibrate(spec: DetectorSpec, target: float) -> float:
        return calibrate_threshold(spec, sc.n_samples, target, channel=sc.channel,
                                   trials=cal_trials, seed=sc.seed,
                                   workers=workers).threshold

    stats_a, stats_b = trial_statistics_pair(sc, spec_a, spec_b, workers=workers)
    trials = sc.trials
    rows = []
    for t in targets:
        lam_a = calibrate(spec_a, t)
        lam_b = calibrate(spec_b, t)
        miss_a = stats_a < lam_a
        miss_b = stats_b < lam_b
        pmd_a = int(np.count_nonzero(miss_a)) / trials
        pmd_b = int(np.count_nonzero(miss_b)) / trials
        d = miss_a.astype(np.float64) - miss_b.astype(np.float64)
        stderr_delta = float(np.sqrt(np.var(d) / trials))
        rows.append(
            ComparisonRow(
                target_pfa=t,
                lambda_a=lam_a,
                lambda_b=lam_b,
                pmd_a=pmd_a,
                pmd_b=pmd_b,
                delta=pmd_a - pmd_b,
                stderr_delta=stderr_delta,
            )
        )
    return ComparisonReport(rows=tuple(rows), spec_a=spec_a, spec_b=spec_b)
