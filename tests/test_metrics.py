"""Rates, the exact pd+pmd identity, and ROC assembly/comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensesim.metrics import (
    ConfusionCounts,
    RatePoint,
    RocCurve,
    binomial_stderr,
    rates_from_counts,
    roc_assemble,
    roc_dominates,
)


def test_rates_from_counts_worked_example():
    pt = rates_from_counts(
        ConfusionCounts(h0_trials=1000, h1_trials=1000, false_alarms=100, detections=31)
    )
    assert pt.pfa == 0.1
    assert pt.pd == 0.031
    assert pt.pmd == 0.969
    assert pt.pd + pt.pmd == 1.0
    assert pt.stderr_pfa == pytest.approx(binomial_stderr(0.1, 1000))


def test_rate_point_anchoring():
    a = RatePoint.from_pmd(0.9690)
    assert a.pd == 1.0 - 0.9690
    assert a.pd + a.pmd == 1.0
    b = RatePoint.from_pd(0.0310)
    assert b.pmd == 1.0 - 0.0310
    assert b.pd + b.pmd == 1.0
    c = RatePoint.pfa_only(0.05, stderr_pfa=0.001)
    assert c.pd is None and c.pmd is None
    assert a.stderr_pmd == a.stderr_pd


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint(pd=0.3, pmd=0.69)  # not an exact complement
    with pytest.raises(ValueError):
        RatePoint(pd=0.3)  # one side of the pair missing
    with pytest.raises(ValueError):
        RatePoint(pfa=-0.1)
    with pytest.raises(ValueError):
        RatePoint.from_pd(1.5)
    with pytest.raises(ValueError):
        RatePoint(pfa=0.1, stderr_pfa=-1.0)


def test_confusion_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(h0_trials=10, h1_trials=10, false_alarms=11, detections=0)
    with pytest.raises(ValueError):
        ConfusionCounts(h0_trials=10, h1_trials=10, false_alarms=0, detections=-1)
    with pytest.raises(ValueError):
        rates_from_counts(ConfusionCounts(0, 10, 0, 5))


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == 0.05
    assert binomial_stderr(0.0, 100) == 0.0
    assert binomial_stderr(1.0, 100) == 0.0
    with pytest.raises(ValueError):
        binomial_stderr(0.5, 0)


@given(r=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_identity_exact_for_any_rate(r):
    assert RatePoint.from_pd(r).pd + RatePoint.from_pd(r).pmd == 1.0
    assert RatePoint.from_pmd(r).pd + RatePoint.from_pmd(r).pmd == 1.0


@given(
    h0=st.integers(min_value=1, max_value=10_000),
    h1=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
)
@settings(deadline=None)
def test_identity_exact_from_counts(h0, h1, data):
    fa = data.draw(st.integers(min_value=0, max_value=h0))
    det = data.draw(st.integers(min_value=0, max_value=h1))
    pt = rates_from_counts(ConfusionCounts(h0, h1, fa, det))
    assert pt.pd + pt.pmd == 1.0
    assert 0.0 <= pt.pfa <= 1.0
    assert 0.0 <= pt.pmd <= 1.0


def _point(pfa, pd, se=0.001):
    return RatePoint.from_pd(pd, stderr_pd=se, pfa=pfa, stderr_pfa=se)


def test_roc_assemble_sorts_by_decreasing_threshold():
    pts = [(1.0, _point(0.3, 0.9)), (3.0, _point(0.1, 0.5)), (2.0, _point(0.2, 0.7))]
    curve = roc_assemble(pts)
    assert curve.thresholds == (3.0, 2.0, 1.0)
    assert np.array_equal(curve.pfa, [0.1, 0.2, 0.3])
    assert np.array_equal(curve.pd, [0.5, 0.7, 0.9])


def test_roc_assemble_rejects_duplicates_and_bad_points():
    with pytest.raises(ValueError):
        roc_assemble([(1.0, _point(0.1, 0.5)), (1.0, _point(0.2, 0.6))])
    with pytest.raises(ValueError):
        roc_assemble([])
    with pytest.raises(ValueError):
        roc_assemble([(1.0, RatePoint.pfa_only(0.1))])
    with pytest.raises(ValueError):
        roc_assemble([(-1.0, _point(0.1, 0.5))])


def test_roc_assemble_monotonicity_policies():
    # a clear reversal warns
    bad = [(2.0, _point(0.2, 0.8)), (1.0, _point(0.3, 0.5))]
    with pytest.warns(UserWarning):
        roc_assemble(bad)
    # a reversal within 3 stderr passes silently
    wiggle = [(2.0, _point(0.2, 0.800, se=0.01)), (1.0, _point(0.21, 0.795, se=0.01))]
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        roc_assemble(wiggle)


def test_roc_dominates_linear_interpolation():
    a = roc_assemble([(3.0, _point(0.1, 0.5)), (1.0, _point(0.5, 0.9))])
    b = roc_assemble([(3.0, _point(0.1, 0.4)), (1.0, _point(0.5, 0.8))])
    out = roc_dominates(a, b, [0.1, 0.3, 0.5])
    assert [c.delta for c in out] == pytest.approx([0.1, 0.1, 0.1])
    assert out[1].pd_a == pytest.approx(0.7)
    with pytest.raises(ValueError):
        roc_dominates(a, b, [0.05])
    with pytest.raises(ValueError):
        roc_dominates(a, b, [1.5])


def test_roc_dominates_collapses_duplicate_pfa_to_upper_envelope():
    a = roc_assemble(
        [(3.0, _point(0.1, 0.5)), (2.0, _point(0.1, 0.6)), (1.0, _point(0.5, 0.9))]
    )
    b = roc_assemble([(3.0, _point(0.1, 0.6)), (1.0, _point(0.5, 0.9))])
    out = roc_dominates(a, b, [0.1])
    assert out[0].pd_a == 0.6  # kept the higher of the two points at pfa 0.1
    assert out[0].delta == 0.0


def test_roc_curve_is_immutable():
    curve = roc_assemble([(1.0, _point(0.3, 0.9))])
    assert isinstance(curve, RocCurve)
    with pytest.raises(AttributeError):
        curve.points = ()
