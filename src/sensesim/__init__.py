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

__version__ = "0.1.0"
