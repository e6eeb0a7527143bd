"""Count ratios, binomial standard errors, and ROC assembly/comparison on arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensesim import reference
from sensesim.metrics import (
    binomial_stderr,
    rates_from_counts,
    roc_assemble,
    roc_dominates,
)
from sensesim.montecarlo import ThresholdGrid


def test_rates_from_counts_worked_example():
    (pfa, pd), (stderr_pfa, _) = rates_from_counts(np.array([100, 31]), 1000)
    pmd, _ = rates_from_counts(1000 - 31, 1000)
    assert pfa == 0.1
    assert pd == 0.031
    assert pmd == 0.969
    assert pd + pmd == 1.0
    assert stderr_pfa == pytest.approx(binomial_stderr(0.1, 1000))


def test_rate_point_anchoring():
    # counts anchored on the paper's first conventional P_MD, 0.9690
    pmd, stderr_pmd = rates_from_counts(9690, 10_000)
    pd, stderr_pd = rates_from_counts(10_000 - 9690, 10_000)
    assert pmd == reference.PMD_CONVENTIONAL[0][0]
    assert pd == 0.031
    assert pd + pmd == 1.0
    assert stderr_pmd == pytest.approx(stderr_pd, rel=1e-15)  # symmetric up to rounding
    # a sweep with only the H0 row carries P_FA and no P_D
    pfa, _, pd_rows, _ = roc_assemble(np.array([[50]]), 1000)
    assert pfa.tolist() == [0.05]
    assert pd_rows.shape == (0, 1)


def test_rate_point_validation():
    for rate in (-0.1, 1.5, np.nan, np.array([0.2, 1.0 + 1e-12])):
        with pytest.raises(ValueError):
            binomial_stderr(rate, 100)


def test_confusion_counts_validation():
    with pytest.raises(ValueError):
        rates_from_counts(11, 10)  # more false alarms than trials
    with pytest.raises(ValueError):
        rates_from_counts(np.array([0, -1]), 10)
    with pytest.raises(ZeroDivisionError):
        rates_from_counts(5, 0)  # T = 0 forms no ratio


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == 0.05
    assert binomial_stderr(0.0, 100) == 0.0
    assert binomial_stderr(1.0, 100) == 0.0
    with pytest.raises(ValueError):
        binomial_stderr(0.5, 0)
    # elementwise over arrays of rates, and of trials
    rates = np.array([[0.5, 0.0], [1.0, 0.031]])
    out = binomial_stderr(rates, 100)
    assert out.shape == (2, 2)
    assert out.tolist() == [[binomial_stderr(float(r), 100) for r in row] for row in rates]
    assert binomial_stderr(np.array([0.5, 0.5]), np.array([100, 25])).tolist() == [0.05, 0.1]
    with pytest.raises(ValueError):
        binomial_stderr(np.array([0.5, 0.5]), np.array([100, 0]))


@given(
    trials=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
)
@settings(deadline=None)
def test_identity_exact_from_counts(trials, data):
    det = data.draw(st.integers(min_value=0, max_value=trials))
    pd, stderr_pd = rates_from_counts(det, trials)
    pmd, stderr_pmd = rates_from_counts(trials - det, trials)
    assert pd + pmd == 1.0
    assert 0.0 <= pd <= 1.0
    assert 0.0 <= pmd <= 1.0
    assert stderr_pd == pytest.approx(stderr_pmd, rel=1e-15)  # symmetric up to rounding


def test_roc_assemble_splits_h0_from_the_snr_rows():
    counts = np.array([[1, 10, 100], [5, 50, 500], [7, 70, 700]])
    pfa, stderr_pfa, pd, stderr_pd = roc_assemble(counts, 1000)
    assert pfa.tolist() == [0.001, 0.01, 0.1]
    assert pd.tolist() == [[0.005, 0.05, 0.5], [0.007, 0.07, 0.7]]
    assert stderr_pfa.tolist() == [binomial_stderr(r, 1000) for r in (0.001, 0.01, 0.1)]
    assert stderr_pd.shape == (2, 3)
    assert stderr_pd[1, 2] == binomial_stderr(0.7, 1000)


def test_roc_assemble_rejects_duplicates_and_bad_points():
    with pytest.raises(ValueError):
        roc_assemble(np.array([[1, 10], [5, 1001]]), 1000)  # more detections than trials
    with pytest.raises(ValueError):
        roc_assemble(np.array([[-1, 10], [5, 50]]), 1000)
    # duplicate, empty and negative thresholds are refused before any trial is counted
    for values in ((2.0, 2.0), (), (2.0, -1.0)):
        with pytest.raises(ValueError):
            ThresholdGrid(values)


def _curve(pfa, pd, se=0.001):
    """A (pfa, pd, stderr_pd) triple with one stderr for every point."""
    return np.array(pfa), np.array(pd), np.full(len(pd), se)


def test_roc_dominates_linear_interpolation():
    a = _curve([0.1, 0.5], [0.5, 0.9])
    b = _curve([0.1, 0.5], [0.4, 0.8])
    pd_a, pd_b, delta, stderr = roc_dominates(a, b, [0.1, 0.3, 0.5])
    assert delta.tolist() == pytest.approx([0.1, 0.1, 0.1])
    assert pd_a[1] == pytest.approx(0.7)
    assert pd_b[1] == pytest.approx(0.6)
    assert stderr.tolist() == pytest.approx([np.hypot(0.001, 0.001)] * 3)
    with pytest.raises(ValueError):
        roc_dominates(a, b, [0.05])
    with pytest.raises(ValueError):
        roc_dominates(a, b, [1.5])


def test_roc_dominates_collapses_duplicate_pfa_to_upper_envelope():
    a = _curve([0.1, 0.1, 0.5], [0.5, 0.6, 0.9])
    b = _curve([0.1, 0.5], [0.6, 0.9])
    pd_a, _, delta, _ = roc_dominates(a, b, [0.1])
    assert pd_a[0] == 0.6  # kept the higher of the two points at pfa 0.1
    assert delta[0] == 0.0
