"""Bundled reference tables: shape, spot values, and the trends they do
and do not satisfy."""

import numpy as np

from sensesim import reference


def test_shape_and_snr_axis():
    assert reference.REFERENCE_SNR_DB == (-10.0, 0.0, 10.0)
    assert reference.REFERENCE_ROWS == 26
    assert reference.conventional_array().shape == (26, 3)
    assert reference.improved_array().shape == (26, 3)


def test_spot_values():
    assert reference.PMD_CONVENTIONAL[0] == (0.9690, 0.9260, 0.7851)
    assert reference.PMD_CONVENTIONAL[25] == (0.0080, 0.0015, 0.0020)
    assert reference.PMD_IMPROVED[0] == (0.6750, 0.6473, 0.7776)
    assert reference.PMD_IMPROVED[25] == (0.0030, 0.0000, 0.0015)
    assert reference.PMD_CONVENTIONAL[8] == (0.4930, 0.3851, 0.1994)
    assert reference.PMD_IMPROVED[10] == (0.2350, 0.2261, 0.1558)


def test_all_values_are_probabilities():
    for table in (reference.conventional_array(), reference.improved_array()):
        assert np.all(table >= 0.0)
        assert np.all(table <= 1.0)


def test_pmd_falls_down_every_column():
    for table in (reference.conventional_array(), reference.improved_array()):
        assert np.all(table[1:, :] <= table[:-1, :])


def test_reference_is_not_row_monotone_in_snr():
    # the bundled data itself violates the with-SNR trend in places (the
    # improved table's first rows, the conventional table's lower rows),
    # which is why simulated-table invariants are never applied to it
    conv = reference.conventional_array()
    impr = reference.improved_array()
    assert np.any(conv[:, 2] > conv[:, 1])
    assert np.any(impr[:, 2] > impr[:, 1])


def test_accessors_return_fresh_arrays():
    a = reference.conventional_array()
    a[0, 0] = -1.0
    assert reference.conventional_array()[0, 0] == 0.9690
