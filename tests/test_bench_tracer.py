"""The benchmark's per-layer tracer must still hook every function it names.

``bench/tracer.py`` looks each hooked function up with ``getattr`` and
swaps it by identity in every sensesim module that bound it.  A rename
or deletion in ``src/`` breaks ``bench/run.py --trace 1``; this test
catches that, and a traced run of two tiny commands checks that the
hooks still see every draw and every scored sample.  It imports
``bench/`` and writes nothing there.
"""

import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_by_identity(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from sensesim import analytic
    from sensesim.signal_channel import AWGN, RAYLEIGH, Bpsk, ChannelModel

    original = analytic.pd_rayleigh_analytic
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = analytic.pd_rayleigh_analytic
        assert wrapped is not original
        assert wrapped.__wrapped__ is original
        # the laws resolve the oracles at call time, so the wrappers see
        # each call; a law that held the functions in a table built at
        # import would leave these counts at 0
        for kind in (AWGN, RAYLEIGH):
            _, pd = analytic.pd_law(2, 4, ChannelModel(kind), Bpsk())
            pd(0.0, 5.0)
        names = [s.name for s in tracer.spans]
        assert names.count("analytic.pd_awgn") == 1
        assert names.count("analytic.pd_rayleigh") == 1
        sf, _ = analytic.h0_law(2, 4)
        sf(5.0)
        assert tracer.summary(1.0, str(tmp_path))["metrics"]["analytic.pfa.calls"] == 1
    finally:
        tracer.restore()
    assert analytic.pd_rayleigh_analytic is original


@pytest.mark.parametrize("before, argv, samples", [
    ([], ["roc", "--channel", "rayleigh", "--trials", "500", "--snr-db=0"],
     2 * 500 * 10),  # H0 and one SNR column
    # A compare run first makes the same p=3 calibration draw in this
    # process; the traced run must still make and score its own.
    (["compare", "--trials", "1000", "--snr-db=-10"],
     ["pmd-table", "--detector-p", "3", "--trials", "500", "--workers", "2",
      "--pfa-targets", "0.01,0.1", "--snr-db=-10,0"],
     100_000 * 10 + 2 * 500 * 10),  # empirical calibration, then two columns
], ids=["roc", "pmd-table"])
def test_traced_cli_run_sees_every_layer(monkeypatch, tmp_path, before, argv, samples):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from sensesim import cli

    if before:
        assert cli.main([*before, "--out", str(tmp_path / "before")]) == 0
    out = tmp_path / "traced"
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main([*argv, "--out", str(out)]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    metrics = tracer.summary(wall, str(out))["metrics"]
    assert metrics["rng.normals"] > 0
    # the channel's and the signal's draws are still tagged by role
    assert metrics["rng.noise.s"] > 0
    assert metrics["rng.signal.s"] > 0
    if "rayleigh" in argv:
        assert metrics["rng.fading.s"] > 0
    else:  # an AWGN run draws no gain
        assert metrics["rng.fading.s"] == 0
    assert metrics["detector.samples_scored"] == samples
