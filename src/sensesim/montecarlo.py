"""Seeded Monte Carlo engine for false-alarm and missed-detection rates.

Reproducibility contract
------------------------
Every estimator here is a pure function of (scenario, detector spec,
thresholds, seed).  Trial t of a run draws from the per-trial key

    fold(mix64(scenario.seed), TRIAL_DOMAIN, t)     # TRIAL_DOMAIN = 1

and reads its noise, fading gain and signal from that key's fixed role
sub-streams (:mod:`sensesim.signal_channel`).  Any one trial can thus be
redrawn on its own: the per-trial loop of ``tests/oracle_scalar.py``
reproduces the engine's statistics and counts bit for bit, H0 frames
included.  The engine vectorizes that loop in fixed-size trial blocks;
block boundaries, worker counts and the CPU each worker thread is held
on cannot change any value, only wall-clock time.  Noise has unit
variance, so every statistic is the normalized one, and signal frames
are unit-power, so an SNR column's amplitude is sqrt(gamma) alone.
Before any draw, a call refuses a statistic that can overflow, a bad
SNR and fewer than one worker, each with ``ValueError``.

Empirical-quantile threshold calibration draws from
``fold(mix64(seed), CALIBRATION_DOMAIN, t)`` instead, so calibration
noise is disjoint from every evaluation trial of the same seed.

Common random numbers
---------------------
A :class:`Scenario` is one draw: noise, fading gain and signal live on
separate role streams of the same per-trial key, so H0 and every SNR
formed from the scenario share them trial for trial.  Each engine call
therefore takes one scenario and the SNRs to form from it.  For each
trial block it folds the keys once, has the channel draw the noise and
fading gains and the signal model the signal, and scores H0 (the noise
alone) and then every SNR column, formed by scale-and-add.  A block
holds 2^15 samples, 256 KiB per float64 array, so it stays in L2, and
each worker draws, forms and scores all its blocks in one set of
buffers (sample-major for short frames).  Each block's statistics are
reduced to integer counts, summed over blocks: against the whole
threshold grid (sort, then ``searchsorted``) in ``roc_sweep``,
``pmd_table`` and ``count_detections``; per column and target, as each
detector's detections and the discordant trials, in the paired
detector comparison.
So memory is O(workers x block) however many trials run, the totals do
not depend on the worker count, and empirical ROC curves and P_MD
columns are exactly monotone.  Only empirical calibration keeps
per-trial statistics: one H0 draw per call, from which it takes every
P_FA target's quantile.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import CAL_TRIALS, calibrate_threshold
from .detector import DetectorSpec, statistic_rows
from .metrics import rates_from_counts, roc_assemble
from .rng import MASK64, fold, fold_range, mix64
from .signal_channel import ChannelModel, SignalModel, snr_to_linear

TRIAL_DOMAIN = 1
CALIBRATION_DOMAIN = 2

# Samples per vectorized block: 256 KiB per float64 array, so a block
# stays in L2.  Block size affects memory and speed only, never values.
_BLOCK_SAMPLES = 1 << 15


@dataclass(frozen=True)
class Scenario:
    """One draw: channel, frame length, trials, seed and the signal model
    that SNR columns scale.  Engine calls take the SNRs to form from it;
    without a signal only the noise-only (H0) column can be formed."""

    channel: ChannelModel
    n_samples: int
    trials: int
    seed: int
    signal: SignalModel | None = None

    def __post_init__(self):
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.signal is not None and not isinstance(self.signal, SignalModel):
            raise ValueError(f"signal must be a SignalModel, got {self.signal!r}")


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
    cal_trials: int = CAL_TRIALS,
    seed: int = 0,
    workers: int = 1,
) -> ThresholdGrid:
    """Calibrate one threshold per P_FA target (given in increasing order).

    One :func:`calibrate_threshold` call covers the targets: analytic for
    p=2 and at n=1, otherwise the empirical quantiles of one draw of
    ``cal_trials`` calibration-domain noise statistics on ``workers``.  Two
    targets that calibrate to one threshold are refused, each named.
    """
    targets = tuple(float(t) for t in targets)
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("pfa targets must be strictly increasing")
    cals = calibrate_threshold(spec, n, targets, trials=cal_trials, seed=seed, workers=workers)
    lams = tuple(cal.threshold for cal in cals)
    for a, b, lam_a, lam_b in zip(targets, targets[1:], lams, lams[1:]):
        if lam_a == lam_b:
            raise ValueError(f"pfa targets {a!r} and {b!r} calibrate to one threshold {lam_a!r}")
    return ThresholdGrid(lams, pfa_targets=targets)


def default_threshold_grid(
    spec: DetectorSpec,
    n: int,
    *,
    cal_trials: int = CAL_TRIALS,
    seed: int = 0,
) -> ThresholdGrid:
    """The 26-row default grid: P_FA targets log-spaced from 0.001 to 0.9."""
    return grid_from_pfa_targets(DEFAULT_PFA_TARGETS, spec, n, cal_trials=cal_trials, seed=seed)


def _threshold_counts(lams):
    """Reducer of each statistic vector to one count row: element i counts
    the trials with statistic >= lams[i] (ties detect).  Sorts in place."""
    lams = np.asarray(lams)

    def reduce(stats):
        for t in stats:
            t.sort()
        return np.array([t.size - np.searchsorted(t, lams, side="left") for t in stats])

    return reduce


def _paired_counts(lams_a, lams_b):
    """Reducer of each column's (a, b) statistic vectors to three count rows
    over the pairs (lams_a[i], lams_b[i]): trials a detects, b detects, only one detects."""
    lams_a, lams_b = np.asarray(lams_a), np.asarray(lams_b)

    def reduce(stats):
        rows = []
        for t_a, t_b in zip(stats[0::2], stats[1::2]):
            hit_a, hit_b = t_a[:, None] >= lams_a, t_b[:, None] >= lams_b
            rows.append([np.count_nonzero(h, axis=0) for h in (hit_a, hit_b, hit_a ^ hit_b)])
        return np.array(rows)

    return reduce


def _stats_block(sc, amps, specs, lo: int, hi: int, dom_key: int, buffers, reduce=None):
    """Statistics of trials [lo, hi), one vector per (SNR column, spec) pair.

    ``amps`` holds each SNR column's signal amplitude sqrt(gamma), or
    ``None`` for H0, and ``dom_key`` the run's domain key: trial t draws
    from ``fold(dom_key, t)``.  The block's keys are folded once;
    ``sc.channel`` draws its noise and gains and ``sc.signal`` its signal
    into the worker's ``buffers``; each (column, spec) pair is formed, as
    a copy of the noise for H0 and ``h * amp * x + w`` otherwise, and
    scored in the draw scratch, reused as float64.  With ``reduce`` the
    block returns ``reduce(vectors)``, an int64 count array, in place of
    the statistic vectors.
    """
    n = sc.n_samples
    channel = sc.channel
    w_buf, x_buf, work, gains = (b[: hi - lo] for b in buffers)
    keys = fold_range(dom_key, np.arange(lo, hi, dtype=np.uint64))
    w = channel.noise(keys, n, out=w_buf, work=work)
    if any(amp is not None for amp in amps):
        x = sc.signal.block(keys, n, out=x_buf, work=work)
        h = channel.gains(keys, out=gains, work=work)
    y = work.view(np.float64)[:, :n]
    out = []
    for amp in amps:
        if amp is not None and h is not None:
            amp = np.multiply(h, amp, out=gains[:, 1])[:, None]
        for spec in specs:
            if amp is None:
                np.copyto(y, w)
            else:
                np.add(np.multiply(amp, x, out=y), w, out=y)
            out.append(statistic_rows(y, spec))
    return out if reduce is None else reduce(out)


def check_overflow(sc: Scenario, snrs, specs) -> None:
    """Refuse, with ``ValueError``, a bad SNR, an SNR without a signal
    model, and a spec whose statistic of ``sc`` at ``snrs`` (``None``:
    H0) can overflow.  No |y| exceeds the channel's peak at the largest
    SNR, so no statistic exceeds n peak^p; the noise alone is checked
    first, so a refusal names the term that overflows on its own."""
    channel, n = sc.channel, sc.n_samples
    terms = [(channel.peak(), "unit noise")]
    signal_snrs = [snr for snr in snrs if snr is not None]
    if signal_snrs:
        gamma = max(snr_to_linear(snr) for snr in signal_snrs)
        if sc.signal is None:
            raise ValueError("an SNR needs a signal model; the scenario has none")
        terms.append((channel.peak(sc.signal, gamma), f"the signal at snr_db {max(signal_snrs)!r}"))
    for peak, what in terms:
        for spec in specs:
            if not peak < (sys.float_info.max / n) ** (1.0 / spec.p):
                raise ValueError(f"{what} can overflow the p={spec.p} statistic of {n} samples")


def _run_blocks(sc, snrs, specs, domain: int, workers: int, reduce=None):
    """Run :func:`_stats_block` over all trial blocks of ``sc``.

    ``snrs`` are the columns formed from the scenario's one draw, in dB;
    ``None`` is the noise-only (H0) column.  Before any draw, the call is
    refused for fewer than one worker and by :func:`check_overflow`; then
    the run's domain key and each column's amplitude are derived once.

    Without ``reduce``: one per-trial statistic array per (SNR, spec),
    in trial order.  With ``reduce``: the sum over all blocks of
    ``reduce``'s int64 count arrays, each reducing one block's statistic
    vectors (one per (SNR, spec)), so the totals are worker-invariant
    and nothing is kept per trial.  Worker w of W runs blocks w, w + W,
    ... in one set of block buffers, so memory is O(W x block) at any
    block count and no block allocates a block.  Worker 0 runs on the
    calling thread, the others on their own threads; once all are
    joined, the first failed worker's exception is raised here.

    With two or more CPUs in the calling thread's affinity mask, each
    thread the engine starts holds itself on CPU ``cpus[w % len(cpus)]``
    of that mask; left to the scheduler, the threads share one CPU.  The
    calling thread's mask is never set, so nothing needs restoring: with
    worker 1 held, the scheduler no longer pulls the caller onto its CPU
    (measured).  Without ``os.sched_setaffinity``, or where it raises
    ``OSError``, a thread runs unplaced.
    """
    snrs = tuple(snrs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    check_overflow(sc, snrs, specs)
    n, trials = sc.n_samples, sc.trials
    dom_key = fold(mix64(sc.seed), domain)
    amps = [None if snr is None else math.sqrt(snr_to_linear(snr)) for snr in snrs]
    size = min(trials, max(1, _BLOCK_SAMPLES // n))
    starts = range(0, trials, size)
    workers = min(workers, len(starts))
    outs = None if reduce else [np.empty(trials) for _ in range(len(snrs) * len(specs))]

    def run(first):
        counts = 0
        # (trials, n) noise, signal and uint64 scratch, n padded to Box-Muller
        # pairs, longer side contiguous; then fading gain and per-SNR scaling.
        pad = n + n % 2
        buffers = [np.empty((pad, size), dt).T if size >= pad else np.empty((size, pad), dt)
                   for dt in (np.float64, np.float64, np.uint64)] + [np.empty((2, size)).T]
        for lo in starts[first::workers]:
            hi = min(lo + size, trials)
            stats = _stats_block(sc, amps, specs, lo, hi, dom_key, buffers, reduce)
            if outs is None:
                counts += stats
            else:
                for out, block_stats in zip(outs, stats):
                    out[lo:hi] = block_stats
        return counts

    parts = [0] * workers  # each worker's counts, or its exception
    placed = workers > 1 and hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if placed else []

    def work(w):
        try:
            if len(cpus) > 1:
                try:
                    os.sched_setaffinity(0, (cpus[w % len(cpus)],))
                except OSError:
                    pass
            parts[w] = run(w)
        except BaseException as exc:  # raised by the caller once every worker is joined
            parts[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        parts[0] = run(0)
    finally:
        for thread in threads:
            thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    return outs if outs is not None else sum(parts)


def trial_statistics(
    sc: Scenario, spec: DetectorSpec, snr_db: float | None = None, *, workers: int = 1
) -> np.ndarray:
    """Detection statistics of every trial at ``snr_db`` (``None``: H0),
    in trial order.

    Identical values for any worker count; element t equals the
    per-trial recomputation described in the module docstring.
    """
    return _run_blocks(sc, (snr_db,), (spec,), TRIAL_DOMAIN, workers)[0]


def trial_statistics_pair(
    sc: Scenario, spec_a: DetectorSpec, spec_b: DetectorSpec, snr_db: float | None = None,
    *, workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Both detectors' statistics over the identical received frames.

    No package code calls it; it stays for the tests and the bench tracer's hook."""
    return tuple(_run_blocks(sc, (snr_db,), (spec_a, spec_b), TRIAL_DOMAIN, workers))


def calibration_h0_statistics(
    spec: DetectorSpec,
    n: int,
    trials: int,
    *,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Pure-noise statistics from the calibration domain of ``seed``; noise
    is drawn alike on every channel kind, so none is asked for."""
    sc = Scenario(channel=ChannelModel(), n_samples=n, trials=trials, seed=seed)
    return _run_blocks(sc, (None,), (spec,), CALIBRATION_DOMAIN, workers)[0]


def count_detections(
    sc: Scenario, spec: DetectorSpec, lam: float, snr_db: float | None = None,
    *, workers: int = 1,
) -> int:
    """Number of trials at ``snr_db`` (``None``: H0) whose statistic meets
    the threshold (ties detect).

    No package code calls it; it stays for the tests and the bench tracer's hook."""
    reduce = _threshold_counts(ThresholdGrid((float(lam),)).values)  # refuses a bad lam
    return int(_run_blocks(sc, (snr_db,), (spec,), TRIAL_DOMAIN, workers, reduce)[0, 0])


def estimate_pfa(
    sc: Scenario, spec: DetectorSpec, lam: float, *, workers: int = 1
) -> tuple[float, float]:
    """Empirical false-alarm probability of the H0 column of ``sc`` and
    its binomial standard error.

    No package code calls it; it stays for the tests and the bench tracer's hook."""
    return rates_from_counts(count_detections(sc, spec, lam, workers=workers), sc.trials)


def estimate_pmd(
    sc: Scenario, spec: DetectorSpec, lam: float, snr_db: float, *, workers: int = 1
) -> tuple[float, float]:
    """Empirical missed-detection probability of ``sc``'s signal at
    ``snr_db``, counted as (T - det) / T, and its binomial standard error.

    No package code calls it; it stays for the tests and the bench tracer's hook."""
    det = count_detections(sc, spec, lam, snr_db, workers=workers)
    return rates_from_counts(sc.trials - det, sc.trials)


def _signal_snrs(snrs, caller: str) -> tuple[float, ...]:
    """``snrs`` as a tuple, refusing an empty list and H0's ``None``."""
    snrs = tuple(snrs)
    if not snrs or None in snrs:
        raise ValueError(f"{caller} needs at least one SNR and scores H0 itself")
    return snrs


def roc_sweep(
    sc: Scenario,
    snrs: Sequence[float],
    spec: DetectorSpec,
    grid: ThresholdGrid,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Empirical ROC curves at every SNR, all thresholds sharing trials.

    Returns ``(pfa, stderr_pfa, pd, stderr_pd)``: the false-alarm rates
    of the one H0 column and their binomial standard errors, each of
    shape (thresholds,), and the detection rates and theirs, each of
    shape (SNRs, thresholds), rows in ``snrs`` order; columns follow the
    grid.  One pass draws every trial of ``sc`` once and scores H0 and
    each SNR from it, so every curve is exactly monotone.
    """
    snrs = _signal_snrs(snrs, "roc_sweep")
    reduce = _threshold_counts(grid.values)
    counts = _run_blocks(sc, (None, *snrs), (spec,), TRIAL_DOMAIN, workers, reduce)
    return roc_assemble(counts, sc.trials)


def pmd_table(
    sc: Scenario,
    snrs: Sequence[float],
    spec: DetectorSpec,
    grid: ThresholdGrid,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Missed-detection rates and their binomial standard errors, each a
    float array of shape (SNRs, thresholds), rows in ``snrs`` order.

    One pass draws every trial's noise, signal and fading once and scores
    each SNR from it, so all thresholds and all SNRs share trials and
    each row is exactly monotone along the grid.
    """
    snrs = _signal_snrs(snrs, "pmd_table")
    reduce = _threshold_counts(grid.values)
    counts = _run_blocks(sc, snrs, (spec,), TRIAL_DOMAIN, workers, reduce)
    return rates_from_counts(sc.trials - counts, sc.trials)


def compare_detectors(
    sc: Scenario,
    snrs: Sequence[float | None],
    grid_a: ThresholdGrid,
    grid_b: ThresholdGrid,
    spec_a: DetectorSpec,
    spec_b: DetectorSpec,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compare the two detectors' P_MD at each matched target P_FA, per SNR.

    ``grid_a`` and ``grid_b`` hold the thresholds of ``spec_a`` and
    ``spec_b`` calibrated to the same ``pfa_targets``, as
    :func:`grid_from_pfa_targets` builds them.  One pass draws every
    trial of ``sc`` once and scores both detectors on each SNR's
    identical received frames.  Returns ``(pmd_a, pmd_b, delta,
    stderr_delta)``, each a float array of shape (SNRs, targets), rows in
    ``snrs`` order: delta = pmd_a - pmd_b with its paired standard error.
    The sign of delta is measured, never assumed.

    An SNR of ``None`` is the noise-only column: that is the degenerate
    no-signal check, where both detectors should miss at rate 1 - target.
    """
    snrs = tuple(snrs)
    if not snrs:
        raise ValueError("compare_detectors needs at least one SNR")
    if grid_a.pfa_targets is None or grid_a.pfa_targets != grid_b.pfa_targets:
        raise ValueError("both threshold grids must carry the same pfa_targets")
    counts = _run_blocks(sc, snrs, (spec_a, spec_b), TRIAL_DOMAIN, workers,
                         _paired_counts(grid_a.values, grid_b.values))
    trials = sc.trials
    # McNemar: the per-trial miss difference is +-1 on the discordant trials
    # and 0 elsewhere, so T^3 stderr^2 = D T - (det_b - det_a)^2, kept in
    # Python integers (int64 to float64 rounds D T above 2^53).
    cells = [
        [((trials - det_a) / trials, (trials - det_b) / trials,
          math.sqrt((discordant * trials - (det_b - det_a) ** 2) / trials**3))
         for det_a, det_b, discordant in zip(*column_counts)]
        for column_counts in counts.tolist()
    ]
    pmd_a, pmd_b, stderr = np.moveaxis(np.array(cells), -1, 0)
    return pmd_a, pmd_b, pmd_a - pmd_b, stderr
