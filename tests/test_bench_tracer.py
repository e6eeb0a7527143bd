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


def test_tracer_wraps_and_restores_by_identity(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from sensesim import analytic, cli
    from sensesim.montecarlo import Scenario
    from sensesim.signal_channel import RAYLEIGH, Bpsk, ChannelModel

    original = analytic.pd_rayleigh_analytic
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = analytic.pd_rayleigh_analytic
        assert wrapped is not original
        assert wrapped.__wrapped__ is original
        assert cli.pd_rayleigh_analytic is wrapped
        # the CLI oracle helper resolves the oracle at call time, so the
        # wrapper sees the call
        sc = Scenario(channel=ChannelModel(RAYLEIGH), n_samples=4, trials=1, seed=0,
                      signal=Bpsk(), snr_db=0.0)
        cli._oracle_pd(sc, 5.0)
        assert [s.name for s in tracer.spans].count("analytic.pd_rayleigh") == 1
    finally:
        tracer.restore()
    assert analytic.pd_rayleigh_analytic is original
    assert cli.pd_rayleigh_analytic is original


@pytest.mark.parametrize("argv, samples", [
    (["roc", "--channel", "rayleigh", "--trials", "500", "--snr-db=0"],
     2 * 500 * 10),  # H0 and one SNR column
    (["pmd-table", "--detector-p", "3", "--trials", "500", "--workers", "2",
      "--pfa-targets", "0.01,0.1", "--snr-db=-10,0"],
     100_000 * 10 + 2 * 500 * 10),  # empirical calibration, then two columns
], ids=["roc", "pmd-table"])
def test_traced_cli_run_sees_every_layer(monkeypatch, tmp_path, argv, samples):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from sensesim import cli

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    metrics = tracer.summary(wall, str(tmp_path))["metrics"]
    assert metrics["rng.normals"] > 0
    assert metrics["rng.signal.s"] > 0
    assert metrics["detector.samples_scored"] == samples
