"""Deterministic Monte Carlo simulator and analytic toolkit for
energy-detection spectrum sensing.

The package compares the conventional squaring detector (p=2) with an
absolute-cube variant (p=3) over AWGN and Rayleigh flat-fading channels,
calibrates constant-false-alarm-rate thresholds, and cross-validates the
simulation against closed-form chi-square results wherever the squaring
detector admits them.

The root exposes only ``__version__``; import everything else from its
submodule (``sensesim.montecarlo``, ``sensesim.analytic``, ...).
"""

import os as _os

# --workers is the only parallelism: no BLAS thread pool starts with numpy.
# Set here, ahead of every numpy import; an explicit setting still wins.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
