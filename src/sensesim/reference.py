"""Bundled reference tables of missed-detection probability.

These are published benchmark measurements for the conventional
(squaring) and improved (cubing) detectors: 26 threshold-grid rows by
three SNR columns (-10, 0, +10 dB).  The experimental configuration
behind them (threshold values, sample count, trial count, signal model)
was never stated, so simulated tables are compared against them for
qualitative trends only -- P_MD falling down each column and, broadly,
with SNR -- never for exact values.

The values are embedded verbatim.  Note that they are not themselves
uniformly monotone across SNR (for example the improved table's 10 dB
column starts above its 0 dB column, and the conventional table's lower
rows do the same); only the down-column trend holds throughout.  The
trend invariants enforced on simulated tables therefore do not apply to
this data.
"""

from __future__ import annotations

import numpy as np

REFERENCE_SNR_DB = (-10.0, 0.0, 10.0)
REFERENCE_ROWS = 26

# Rows: threshold-grid index 1..26; columns: SNR -10, 0, +10 dB.
PMD_CONVENTIONAL = (
    (0.9690, 0.9260, 0.7851),
    (0.9170, 0.8162, 0.6851),
    (0.8800, 0.7309, 0.5649),
    (0.8110, 0.6601, 0.4983),
    (0.7300, 0.5994, 0.3827),
    (0.6640, 0.5463, 0.3328),
    (0.6280, 0.4573, 0.2938),
    (0.5950, 0.4194, 0.2616),
    (0.4930, 0.3851, 0.1994),
    (0.3950, 0.3539, 0.1795),
    (0.3290, 0.2991, 0.1615),
    (0.2580, 0.2324, 0.1532),
    (0.2140, 0.1960, 0.1453),
    (0.2070, 0.1647, 0.1304),
    (0.1790, 0.0947, 0.1041),
    (0.1440, 0.0774, 0.0867),
    (0.1210, 0.0561, 0.0760),
    (0.1080, 0.0392, 0.0565),
    (0.0890, 0.0260, 0.0432),
    (0.0780, 0.0190, 0.0329),
    (0.0600, 0.0133, 0.0265),
    (0.0450, 0.0109, 0.0184),
    (0.0380, 0.0068, 0.0142),
    (0.0230, 0.0037, 0.0098),
    (0.0170, 0.0024, 0.0047),
    (0.0080, 0.0015, 0.0020),
)

PMD_IMPROVED = (
    (0.6750, 0.6473, 0.7776),
    (0.6340, 0.6229, 0.7402),
    (0.6210, 0.6107, 0.6734),
    (0.6070, 0.5988, 0.6147),
    (0.5310, 0.5357, 0.5624),
    (0.5180, 0.4799, 0.5120),
    (0.4770, 0.4305, 0.4727),
    (0.4450, 0.3864, 0.3644),
    (0.3620, 0.3118, 0.2926),
    (0.3050, 0.2805, 0.2676),
    (0.2350, 0.2261, 0.1558),
    (0.2200, 0.2030, 0.1444),
    (0.1930, 0.1461, 0.1335),
    (0.1630, 0.1307, 0.1230),
    (0.1560, 0.1041, 0.1033),
    (0.1400, 0.0730, 0.0940),
    (0.1310, 0.0570, 0.0767),
    (0.1050, 0.0328, 0.0527),
    (0.0720, 0.0183, 0.0455),
    (0.0590, 0.0109, 0.0320),
    (0.0330, 0.0090, 0.0257),
    (0.0240, 0.0073, 0.0197),
    (0.0120, 0.0047, 0.0140),
    (0.0090, 0.0009, 0.0085),
    (0.0050, 0.0003, 0.0048),
    (0.0030, 0.0000, 0.0015),
)


def conventional_array() -> np.ndarray:
    """The squaring-detector reference table as a (26, 3) float array."""
    return np.array(PMD_CONVENTIONAL, dtype=np.float64)


def improved_array() -> np.ndarray:
    """The cubing-detector reference table as a (26, 3) float array."""
    return np.array(PMD_IMPROVED, dtype=np.float64)

