"""Detection statistic and decision rule: worked examples and invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sensesim.detector import DetectorSpec, decide, statistic, statistic_rows
from sensesim.rng import Stream, normal_block

P2 = DetectorSpec(p=2)
P3 = DetectorSpec(p=3)


def test_worked_examples():
    assert statistic([3.0], P2) == 9.0
    assert statistic([3.0], P3) == 27.0
    assert statistic([1.0, 2.0], P2) == 5.0
    assert statistic([1.0, 2.0], P3) == 9.0
    assert statistic([-1.0, 2.0], P3) == 9.0  # magnitudes, not signed cubes
    assert statistic([0.0, 0.0], P2) == 0.0
    assert statistic([2.0, 2.0], P2) == 8.0


def _layouts(y):
    """Copies of a (trials, n) block: C-ordered, with rows apart (as the
    engine pads odd n), and sample-major."""
    yield np.array(y, order="C")
    padded = np.empty((y.shape[0], y.shape[1] + 1))[:, : y.shape[1]]
    padded[...] = y
    yield padded
    yield np.array(y.T, order="C").T


def test_statistic_rows_matches_scalar_bitwise():
    # The sizes cover every branch of numpy's pairwise summation (running
    # sum below 8, eight partial sums up to 128, halving above), in the
    # C-ordered layout, with padded rows, and in the sample-major one,
    # whose replica of that order runs up to 128 and whose longer frames
    # go to np.sum as a C-ordered copy.
    keys = np.array([Stream.from_seed(t).key for t in range(20)], dtype=np.uint64)
    for n in [*range(1, 301), 511, 8191, 8192, 8193, 65537]:
        y = normal_block(keys, n)
        for spec in [DetectorSpec(p) for p in (1, 2, 3)]:
            scalar = np.array([statistic(y[r], spec) for r in range(y.shape[0])])
            for layout in _layouts(y):  # fresh copies: each call overwrites its input
                rows = statistic_rows(layout, spec)
                assert np.array_equal(rows, scalar), (n, spec, layout.strides)


def test_tie_decides_h1():
    assert decide(5.0, 5.0) is True
    assert decide(5.0 - 1e-12, 5.0) is False
    assert decide(0.0, 0.0) is True


def test_decision_validation():
    with pytest.raises(ValueError):
        decide(1.0, -1.0)
    with pytest.raises(ValueError):
        decide(float("nan"), 1.0)
    with pytest.raises(ValueError):
        decide(-1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(p=0)
    with pytest.raises(ValueError):
        DetectorSpec(p=2.0)
    with pytest.raises(ValueError):
        statistic([1.0, float("inf")], P2)


def test_chi_square_moments_under_noise():
    # p=2 statistic of n unit Gaussians ~ chi-square with n dof
    n, trials = 10, 100_000
    keys = np.array(
        [Stream.from_seed(77).child(1, t).key for t in range(trials)], dtype=np.uint64
    )
    stats = statistic_rows(normal_block(keys, n), P2)
    assert abs(stats.mean() - n) < 4.0 * np.sqrt(2.0 * n / trials)
    assert abs(stats.var() - 2.0 * n) < 0.1 * 2.0 * n


_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=16),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@given(y=_arrays, c=st.floats(min_value=0.01, max_value=100.0), p=st.integers(1, 4))
@settings(deadline=None)
def test_homogeneity(y, c, p):
    spec = DetectorSpec(p=p)
    base = statistic(y, spec)
    scaled = statistic(c * y, spec)
    assert scaled == pytest.approx((c**p) * base, rel=1e-12, abs=1e-300)
