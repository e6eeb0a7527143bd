"""End-to-end CLI tests: precedence, exit codes, CSV round-trips, SVG."""

import math
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import sensesim
from sensesim import reference
from sensesim.cli import _resolve_config, build_parser, main, read_result_csv
from sensesim.detector import DetectorSpec
from sensesim.montecarlo import grid_from_pfa_targets


def run(*args):
    return main(list(args))


def test_calibrate_prints_known_threshold(capsys):
    assert run("calibrate", "--samples", "2", "--pfa-targets", "0.1") == 0
    out = capsys.readouterr().out
    assert "method=analytic" in out
    lam = float(out.split("lambda=")[1].split()[0])
    assert lam == pytest.approx(-2.0 * math.log(0.1), rel=1e-8)


def test_calibrate_empirical_route_for_p3(capsys):
    assert run("calibrate", "--samples", "4", "--detector-p", "3",
               "--pfa-targets", "0.1", "--trials", "2000") == 0
    out = capsys.readouterr().out
    assert "method=empirical-quantile" in out
    assert "mc_trials=100000" in out  # cal_trials, not --trials, sizes the draw


def test_small_cal_trials_exit_two_on_every_command(tmp_path, capsys):
    # one calibration route: no command quietly raises cal_trials to the floor
    ini = tmp_path / "small.ini"
    ini.write_text("[run]\ncal_trials = 5000\n")
    common = ("--config", str(ini), "--detector-p", "3", "--trials", "1000",
              "--pfa-targets", "0.1", "--out", str(tmp_path / "out"))
    assert run("calibrate", *common) == 2
    assert run("pmd-table", *common) == 2
    assert "needs >= 1e5 trials" in capsys.readouterr().err


def test_calibrate_rejects_a_target_it_cannot_resolve(capsys):
    assert run("calibrate", "--pfa-targets", "1e-300") == 0
    out = capsys.readouterr().out
    achieved = float(out.split("achieved_pfa=")[1].split()[0])
    assert achieved == pytest.approx(1e-300, rel=1e-7)
    assert run("calibrate", "--pfa-targets", "1e-310") == 2
    assert "relative accuracy" in capsys.readouterr().err


def test_empirical_calibrate_refuses_a_target_inside_its_tolerance(tmp_path, capsys):
    # at 1e5 draws the tolerance max(3 stderr, 2/trials) reaches 1e-5
    common = ("calibrate", "--samples", "4", "--detector-p", "3", "--pfa-targets")
    assert run(*common, "1e-6") == 2
    assert "needs cal_trials >= 8999992" in capsys.readouterr().err
    assert run(*common, "1e-4") == 0
    out = capsys.readouterr().out
    assert "method=empirical-quantile" in out and "mc_trials=100000" in out
    assert run(*common, "1e-5") == 2
    needed = int(capsys.readouterr().err.split("needs cal_trials >= ")[1])
    assert needed == pytest.approx(9e5, abs=10)
    # the named run size is the smallest one that resolves the target
    ini = tmp_path / "cal.ini"
    for cal_trials, code in ((needed - 1, 2), (needed, 0)):
        ini.write_text(f"[run]\ncal_trials = {cal_trials}\n")
        assert run(*common, "1e-5", "--config", str(ini)) == code
    assert f"mc_trials={needed}" in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("roc", "--trials", "2000", "--snr-db=0", "--seed", "42")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert (a / "roc_awgn_0dB.csv").read_bytes() == (b / "roc_awgn_0dB.csv").read_bytes()


def test_worker_count_is_invisible_in_output(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w4"
    args = ("roc", "--trials", "3000", "--samples", "2000", "--snr-db=0", "--seed", "1")
    assert run(*args, "--workers", "1", "--out", str(a)) == 0
    assert run(*args, "--workers", "4", "--out", str(b)) == 0
    data_a = (a / "roc_awgn_0dB.csv").read_bytes()
    assert data_a == (b / "roc_awgn_0dB.csv").read_bytes()
    assert b"workers" not in data_a  # parallelism never leaks into artifacts
    assert b"time" not in data_a.lower().split(b"lambda")[0]


def test_csv_roundtrip_recovers_floats_exactly(tmp_path):
    assert run("roc", "--trials", "2000", "--snr-db=0", "--seed", "9",
               "--pfa-targets", "0.01,0.1,0.5", "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "roc_awgn_0dB.csv"))
    assert meta["seed"] == "9"
    assert meta["command"] == "roc"
    grid = grid_from_pfa_targets([0.01, 0.1, 0.5], DetectorSpec(p=2), 10)
    got = [float(r["lambda"]) for r in rows]
    assert got == list(grid.values)  # repr round-trip is exact
    for r in rows:
        assert 0.0 <= float(r["pfa"]) <= 1.0
        assert 0.0 <= float(r["pd"]) <= 1.0


def resolve(*argv):
    return _resolve_config(build_parser().parse_args(["roc", *argv]))


_EVERY_KEY_INI = """\
[run]
seed = 5
trials = 1500
samples = 12
snr_db = -3, 4
channel = rayleigh
noise_variance = 2
detector_p = 3
normalized = no
pfa_targets = 0.05, 0.2
out = from-file
svg = yes
workers = 2
cal_trials = 200000

[signal]
kind = sinusoid
power = 1.5
cycles_per_frame = 4
"""
_EVERY_KEY_VALUES = {
    "seed": 5, "trials": 1500, "samples": 12, "snr_db": (-3.0, 4.0), "channel": "rayleigh",
    "noise_variance": 2.0, "detector_p": 3, "normalized": False, "pfa_targets": (0.05, 0.2),
    "out": "from-file", "svg": True, "workers": 2, "cal_trials": 200000,
    "signal": "sinusoid", "signal_power": 1.5, "cycles_per_frame": 4.0,
}


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 5\ntrials = 1500\nsnr_db = 0\n\n[signal]\nkind = bpsk\n"
    )
    monkeypatch.setenv("SENSESIM_SEED", "99")
    out1 = tmp_path / "o1"
    assert run("roc", "--config", str(ini), "--out", str(out1)) == 0
    meta, _ = read_result_csv(str(out1 / "roc_awgn_0dB.csv"))
    assert meta["seed"] == "5"  # config beats environment
    assert meta["trials"] == "1500"
    out2 = tmp_path / "o2"
    assert run("roc", "--config", str(ini), "--seed", "7", "--out", str(out2)) == 0
    meta, _ = read_result_csv(str(out2 / "roc_awgn_0dB.csv"))
    assert meta["seed"] == "7"  # flag beats config
    # validation runs on the merged config, so a flag can mend a file value
    ini.write_text("[run]\ntrials = 0\n")
    assert run("roc", "--config", str(ini), "--trials", "500", "--snr-db=0",
               "--out", str(tmp_path / "o3")) == 0

    # every setting can be set from its INI section and key ...
    ini.write_text(_EVERY_KEY_INI)
    assert resolve("--config", str(ini)) == _EVERY_KEY_VALUES
    # ... and every flag reaches its setting, through the file's parsers
    flags = ("--seed", "7", "--trials", "900", "--samples", "8", "--snr-db=1,2",
             "--channel", "awgn", "--detector-p", "4", "--pfa-targets", "0.3",
             "--out", "from-flag", "--workers", "3")
    assert resolve("--config", str(ini), *flags) == {
        **_EVERY_KEY_VALUES, "seed": 7, "trials": 900, "samples": 8, "snr_db": (1.0, 2.0),
        "channel": "awgn", "detector_p": 4, "pfa_targets": (0.3,), "out": "from-flag",
        "workers": 3,
    }
    assert resolve()["svg"] is False and resolve("--svg")["svg"] is True


def test_environment_seed_is_lowest_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("SENSESIM_SEED", "31")
    out = tmp_path / "env"
    assert run("roc", "--trials", "1000", "--snr-db=0", "--out", str(out)) == 0
    meta, _ = read_result_csv(str(out / "roc_awgn_0dB.csv"))
    assert meta["seed"] == "31"


def test_bad_inputs_exit_two(tmp_path, monkeypatch, capsys):
    assert run("roc", "--config", str(tmp_path / "missing.ini")) == 2
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nbogus_key = 1\n")
    assert run("roc", "--config", str(ini)) == 2
    ini.write_text("[mystery]\nx = 1\n")
    assert run("roc", "--config", str(ini)) == 2
    ini.write_text("[run]\nchannel = laplace\n")
    assert run("roc", "--config", str(ini)) == 2
    ini.write_text("[signal]\nkind = qpsk\n")
    assert run("roc", "--config", str(ini)) == 2
    assert run("roc", "--trials", "0") == 2
    assert run("roc", "--pfa-targets", "0.1,1.5") == 2
    assert run("roc", "--pfa-targets", "0.1,zebra") == 2
    assert run("roc", "--trials", "abc") == 2  # flags share the file's parsers
    assert "bad value for trials: 'abc'" in capsys.readouterr().err
    monkeypatch.setenv("SENSESIM_SEED", "not-a-number")
    assert run("calibrate") == 2
    monkeypatch.delenv("SENSESIM_SEED")
    err = capsys.readouterr().err
    assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("roc", "--channel", "laplace")
    assert exc.value.code == 2


_HEAD = ["tool", "command", "seed", "trials", "samples", "channel", "noise_variance",
         "detector_p", "normalized", "signal", "signal_power", "snr_db", "cal_trials"]


@pytest.mark.parametrize("kind, model_keys", [
    ("bpsk", []), ("sinusoid", ["cycles_per_frame"]),
])
def test_result_headers_echo_settings_in_a_fixed_order(tmp_path, kind, model_keys):
    ini = tmp_path / "signal.ini"
    ini.write_text(f"[signal]\nkind = {kind}\n")
    common = ("--config", str(ini), "--trials", "500", "--snr-db=-10",
              "--pfa-targets", "0.1", "--out", str(tmp_path))
    head = _HEAD + model_keys + ["pfa_targets"]
    assert run("roc", *common) == 0
    meta, _ = read_result_csv(str(tmp_path / "roc_awgn_-10dB.csv"))
    assert list(meta) == head + ["snr_db_this_file"]
    assert run("pmd-table", *common) == 0
    meta, _ = read_result_csv(str(tmp_path / "pmd_table_p2_awgn.csv"))
    assert list(meta) == head + ["reference_tables"]
    assert run("compare", *common) == 0
    meta, _ = read_result_csv(str(tmp_path / "compare_awgn_-10dB.csv"))
    assert list(meta) == [k for k in head if k not in ("detector_p", "normalized")] + [
        "snr_db_this_file", "reference_squaring_row1_-10dB", "reference_cubing_row1_-10dB",
        "measured_sign_at_0.1",
    ]


def test_pmd_table_embeds_reference_columns(tmp_path):
    assert run("pmd-table", "--trials", "2000", "--snr-db=-10,0,10",
               "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p2_awgn.csv"))
    assert len(rows) == 26
    assert "bundled" in meta["reference_tables"]
    conv = reference.conventional_array()
    impr = reference.improved_array()
    for i, row in enumerate(rows):
        assert int(row["threshold_index"]) == i + 1
        assert float(row["ref_squaring_-10dB"]) == conv[i, 0]
        assert float(row["ref_squaring_10dB"]) == conv[i, 2]
        assert float(row["ref_cubing_-10dB"]) == impr[i, 0]
        assert float(row["ref_cubing_10dB"]) == impr[i, 2]


def test_pmd_table_omits_reference_when_shape_differs(tmp_path):
    assert run("pmd-table", "--trials", "2000", "--snr-db=0,10",
               "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p2_awgn.csv"))
    assert "omitted" in meta["reference_tables"]
    assert "ref_squaring_0dB" not in rows[0]


def test_compare_records_measured_sign(tmp_path, capsys):
    assert run("compare", "--trials", "4000", "--snr-db=-10",
               "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "misses less" in out or "no measured difference" in out
    meta, rows = read_result_csv(str(tmp_path / "compare_awgn_-10dB.csv"))
    assert meta["measured_sign_at_0.01"] in (
        "p=2 misses less", "p=3 misses less", "no measured difference"
    )
    assert "reference_squaring_row1_-10dB" in meta
    # compare always runs the normalized p=2 and p=3 detectors, so it
    # neither echoes nor reads the detector settings
    assert "detector_p" not in meta and "normalized" not in meta
    assert run("compare", "--trials", "4000", "--snr-db=-10", "--detector-p", "4",
               "--out", str(tmp_path / "p4")) == 0
    name = "compare_awgn_-10dB.csv"
    assert (tmp_path / "p4" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert [r["target_pfa"] for r in rows] == ["0.01", "0.1"]
    for r in rows:
        delta = float(r["delta"])
        assert float(r["pmd_p2"]) - float(r["pmd_p3"]) == delta
        assert float(r["stderr_delta"]) >= 0.0


def test_svg_outputs_are_valid_xml(tmp_path):
    assert run("roc", "--trials", "1000", "--snr-db=0", "--svg",
               "--out", str(tmp_path)) == 0
    svg = (tmp_path / "roc_awgn_0dB.svg").read_text()
    xml.dom.minidom.parseString(svg)
    assert "polyline" in svg
    assert "analytic" in svg  # p=2 overlays the closed-form curve
    assert run("pmd-table", "--trials", "1000", "--snr-db=0,10", "--svg",
               "--out", str(tmp_path)) == 0
    xml.dom.minidom.parseString((tmp_path / "pmd_table_p2_awgn.svg").read_text())
    assert run("compare", "--trials", "1000", "--snr-db=0", "--svg",
               "--out", str(tmp_path)) == 0
    xml.dom.minidom.parseString((tmp_path / "compare_awgn_0dB.svg").read_text())


def test_rayleigh_channel_and_p3_table(tmp_path):
    assert run("pmd-table", "--trials", "2000", "--channel", "rayleigh",
               "--detector-p", "3", "--snr-db=0,10",
               "--pfa-targets", "0.1,0.5", "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p3_rayleigh.csv"))
    assert meta["detector_p"] == "3"
    assert meta["channel"] == "rayleigh"
    assert len(rows) == 2


def test_validate_command_passes(capsys):
    assert run("validate", "--trials", "20000") == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 7


@pytest.mark.parametrize("signal, skips", [
    ("kind = gaussian", 2),
    ("power = 2.0", 0),
    ("kind = sinusoid\ncycles_per_frame = 5", 0),
], ids=["gaussian", "bpsk-power-2", "sinusoid-c5"])
def test_validate_scales_the_oracle_to_the_signal(tmp_path, capsys, signal, skips):
    # the p=2 oracle runs at SNR times the frame's mean square, and skips
    # signals whose frames do not share one
    ini = tmp_path / "signal.ini"
    ini.write_text(f"[signal]\n{signal}\n")
    assert run("validate", "--trials", "20000", "--config", str(ini)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("SKIP") == skips
    assert out.count("PASS") == 7 - skips


def test_roc_svg_overlays_the_oracle_only_where_it_applies(tmp_path):
    for kind, overlaid in (("gaussian", False), ("bpsk", True)):
        ini = tmp_path / f"{kind}.ini"
        ini.write_text(f"[signal]\nkind = {kind}\n")
        out = tmp_path / kind
        assert run("roc", "--trials", "1000", "--snr-db=0", "--svg",
                   "--config", str(ini), "--out", str(out)) == 0
        assert ("analytic" in (out / "roc_awgn_0dB.svg").read_text()) == overlaid


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "sensesim" in capsys.readouterr().out


def _import_cli(statement="import sensesim.cli", **env):
    """OPENBLAS_NUM_THREADS and the Threads: count of a fresh process after
    ``statement``."""
    code = (f"import os, re\n{statement}\n"
            "with open('/proc/self/status') as f:\n"
            "    threads = re.search(r'Threads:\\s*(\\d+)', f.read()).group(1)\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(sensesim.__file__))
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_cli_import_starts_no_blas_thread_pool():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc to count threads")
    assert _import_cli() == ["1", "1"]  # --workers is the only parallelism
    # the default is set at the package root, so any submodule imported
    # first (as the benchmark tracer imports analytic) gets it too
    assert _import_cli("from sensesim import analytic") == ["1", "1"]
    assert _import_cli(OPENBLAS_NUM_THREADS="2")[0] == "2"  # an explicit setting wins
