"""End-to-end CLI tests: precedence, exit codes, CSV round-trips, SVG."""

import argparse
import errno
import math
import os
import subprocess
import sys
import xml.dom.minidom
import xml.etree.ElementTree

import numpy as np
import pytest
from result_csv import read_result_csv

import sensesim
from sensesim import analytic, cli, montecarlo, reference, signal_channel
from sensesim.cli import _SETTINGS, _resolve_config, build_parser, main
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


def test_calibrate_at_one_sample_is_analytic_for_every_p(capsys):
    # T_3 = T_2^(3/2) at n=1: the empirical threshold 36.31013308043393
    # has a true rate of 9.28e-4
    assert run("calibrate", "--samples", "1", "--detector-p", "3", "--pfa-targets", "0.001") == 0
    assert capsys.readouterr().out == (
        "p=3 n=1 target_pfa=0.001 lambda=35.62839580403129 "
        "achieved_pfa=0.0010000000128607732 method=analytic\n")


def test_calibrate_empirical_route_for_p3(capsys):
    assert run("calibrate", "--detector-p", "3", "--pfa-targets", "0.01,0.1",
               "--trials", "2000") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert "method=empirical-quantile" in line
        assert "mc_trials=100000" in line  # cal_trials, not --trials, sizes the draw
        # the draw's own rate is the target by construction: it is named
        # in-sample, next to the quantile's tolerance
        assert " in_sample_pfa=" in line and " tolerance=" in line
        assert "achieved_pfa=" not in line


def test_small_cal_trials_exit_two_on_every_command(tmp_path, capsys):
    # one calibration route: no command quietly raises cal_trials to the floor
    ini = tmp_path / "small.ini"
    ini.write_text("[run]\ncal_trials = 5000\n")
    common = ("--config", str(ini), "--detector-p", "3", "--trials", "1000",
              "--pfa-targets", "0.1", "--out", str(tmp_path / "out"))
    assert run("calibrate", *common) == 2
    assert run("pmd-table", *common) == 2
    assert "needs >= 100000 trials, got 5000" in capsys.readouterr().err


def test_empirical_calibrate_refuses_targets_near_one_as_near_zero(capsys):
    # 1 - 1e-5 is as unresolvable at 1e5 draws as 1e-5 is
    common = ("calibrate", "--detector-p", "3", "--pfa-targets")
    assert run(*common, "0.99999,0.999999") == 2
    assert "target_pfa 0.99999 " in capsys.readouterr().err
    assert run(*common, "0.999999") == 2
    assert "needs cal_trials >= 8999991" in capsys.readouterr().err
    assert run(*common, "0.9999") == 0
    assert "in_sample_pfa=0.9999 " in capsys.readouterr().out


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


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ("roc", "--trials", "2000", "--seed", "42")
    assert run(*args, "--snr-db=0", "--out", str(a)) == 0
    assert run(*args, "--snr-db=0", "--out", str(b)) == 0
    assert (a / "roc_awgn_0dB.csv").read_bytes() == (b / "roc_awgn_0dB.csv").read_bytes()
    capsys.readouterr()
    # a repeated SNR runs and writes once, the bytes of naming it once
    assert run(*args, "--snr-db=0,0", "--out", str(c)) == 0
    assert capsys.readouterr().out.count("wrote ") == 1
    assert os.listdir(c) == ["roc_awgn_0dB.csv"]
    assert (c / "roc_awgn_0dB.csv").read_bytes() == (a / "roc_awgn_0dB.csv").read_bytes()


@pytest.mark.parametrize("command", ["roc", "compare", "pmd-table"])
def test_an_snr_of_minus_zero_is_written_as_zero(tmp_path, command):
    # -0.0 == 0.0: one SNR, so one file name, one header and one set of bytes
    outs = {snr: tmp_path / snr.replace(",", "_") for snr in ("0", "-0", "-0,0")}
    for snr, out in outs.items():
        assert run(command, "--trials", "1000", f"--snr-db={snr}", "--pfa-targets", "0.1",
                   "--out", str(out)) == 0
    written = [{f.name: f.read_bytes() for f in out.iterdir()} for out in outs.values()]
    assert written[0] and all(files == written[0] for files in written)


def test_config_values_are_read_as_written(tmp_path):
    # no % interpolation: a % is a character of the value
    ini = tmp_path / "literal.ini"
    common = ("roc", "--config", str(ini), "--trials", "1000", "--snr-db=0",
              "--pfa-targets", "0.1")
    for out in ("100%", "%(seed)s"):
        ini.write_text(f"[run]\nout = {tmp_path / out}\n")
        assert run(*common) == 0
        assert (tmp_path / out / "roc_awgn_0dB.csv").is_file()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["%(seed)s", "100%", "literal.ini"]


def test_worker_count_is_invisible_in_output(tmp_path, capsys):
    a, b = tmp_path / "w1", tmp_path / "w4"
    args = ("roc", "--trials", "3000", "--samples", "2000", "--snr-db=0", "--seed", "1")
    assert run(*args, "--workers", "1", "--out", str(a)) == 0
    assert run(*args, "--workers", "4", "--out", str(b)) == 0
    data_a = (a / "roc_awgn_0dB.csv").read_bytes()
    assert data_a == (b / "roc_awgn_0dB.csv").read_bytes()
    assert b"workers" not in data_a  # parallelism never leaks into artifacts
    assert b"time" not in data_a.lower().split(b"lambda")[0]
    # Every command's files and stdout: 20000 trials are 7 blocks at n=10,
    # so 3 workers split the evaluation too, and the p=3 calibration's
    # 1e5 draws are 31 blocks.
    for argv, n_files in ((["pmd-table", "--detector-p", "3"], 1), (["compare"], 3),
                          (["roc", "--channel", "rayleigh"], 3),
                          (["calibrate", "--detector-p", "3", "--pfa-targets",
                            "0.001,0.01,0.1,0.5"], 0)):
        capsys.readouterr()
        written = []
        for workers in ("1", "2", "3"):
            out = tmp_path / argv[0] / workers
            assert run(*argv, "--trials", "20000", "--workers", workers, "--out", str(out)) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            written.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert written[0][0] and len(written[0][1]) == n_files, argv
        assert all(w == written[0] for w in written[1:]), argv


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
noise_variance = 1
detector_p = 3
normalized = yes
pfa_targets = 0.05, 0.2
out = from-file
svg = yes
workers = 2
cal_trials = 200000

[signal]
kind = sinusoid
power = 1
cycles_per_frame = 4
"""
_EVERY_KEY_VALUES = {
    "seed": 5, "trials": 1500, "samples": 12, "snr_db": (-3.0, 4.0), "channel": "rayleigh",
    "noise_variance": 1.0, "detector_p": 3, "normalized": True, "pfa_targets": (0.05, 0.2),
    "out": "from-file", "svg": True, "workers": 2, "cal_trials": 200000,
    "signal": "sinusoid", "signal_power": 1.0, "cycles_per_frame": 4.0,
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
    ini.write_text("[signal]\npower = -1\n")  # refused even where no signal is drawn
    assert run("calibrate", "--config", str(ini)) == 2
    assert "signal_power was removed" in capsys.readouterr().err
    assert run("roc", "--trials", "0") == 2
    assert run("roc", "--pfa-targets", "0.1,1.5") == 2
    assert run("roc", "--pfa-targets", "0.1,zebra") == 2
    for targets in ("0.1,0.01", "0.1,0.1", "0.2,0.1"):
        for command in ("compare", "validate"):  # both share the grid rule of roc
            assert run(command, "--pfa-targets", targets, "--trials", "100",
                       "--out", str(tmp_path)) == 2
            assert "strictly increasing" in capsys.readouterr().err
    # two targets whose calibrations round to one threshold, before any evaluation draw
    lam = grid_from_pfa_targets([0.1], DetectorSpec(p=2), 10).values[0]
    for command in ("roc", "compare", "pmd-table", "validate"):
        assert run(command, "--pfa-targets", "0.1,0.1000000000001", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (f"error: pfa targets 0.1 and 0.1000000000001 "
                                           f"calibrate to one threshold {lam!r}\n")
    assert run("roc", "--trials", "abc") == 2  # flags share the file's parsers
    assert "bad value for trials: 'abc'" in capsys.readouterr().err
    for command in ("roc", "compare", "pmd-table"):  # one tag, "1dB", for two SNRs
        assert run(command, "--snr-db=1.0000001,1.0000002", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "1.0000001" in err and "1.0000002" in err
    assert not list(tmp_path.glob("*.csv"))
    monkeypatch.setenv("SENSESIM_SEED", "not-a-number")
    assert run("calibrate") == 2
    monkeypatch.delenv("SENSESIM_SEED")
    err = capsys.readouterr().err
    assert "error:" in err
    # the environment seed goes through the seed row's parser, as --seed does
    monkeypatch.setenv("SENSESIM_SEED", "0x10")
    for argv in (["calibrate"], ["roc", "--out", str(tmp_path)]):
        assert run(*argv) == 2
        assert "bad value for SENSESIM_SEED: '0x10'" in capsys.readouterr().err
    monkeypatch.delenv("SENSESIM_SEED")
    assert run("calibrate", "--seed", "0x10") == 2
    assert "bad value for seed: '0x10'" in capsys.readouterr().err
    for text in ("seed = 5\n", "[run]\nseed = 5\nseed = 6\n"):  # no header; a repeated key
        ini.write_text(text)
        assert run("calibrate", "--config", str(ini)) == 2
        assert "cannot parse config file" in capsys.readouterr().err
    # [DEFAULT] is one more unknown section: its keys neither vanish nor spread
    for text in ("", "[run]\ntrials = 1000\n", "[signal]\nkind = bpsk\n"):
        ini.write_text("[DEFAULT]\nseed = 5\n" + text)
        for command in ("calibrate", "roc"):
            assert run(command, "--config", str(ini), "--out", str(tmp_path)) == 2
            assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2
    # the flag and the file value meet one check, the channel model's
    channel_error = "channel kind must be 'awgn' or 'rayleigh', got 'laplace'"
    assert run("roc", "--channel", "laplace") == 2
    assert channel_error in capsys.readouterr().err
    ini.write_text("[run]\nchannel = laplace\n")
    assert run("validate", "--config", str(ini)) == 2
    captured = capsys.readouterr()
    assert channel_error in captured.err and captured.out == ""  # refused before any check
    assert run("validate", "--detector-p", "3") == 2  # as its file value is
    captured = capsys.readouterr()
    assert "validate checks only the p=2 detector" in captured.err and captured.out == ""
    ini.write_bytes(b"\xff\xfe[run]\n")  # not UTF-8
    for command in ("calibrate", "roc"):
        assert run(command, "--config", str(ini), "--out", str(tmp_path)) == 2
        assert f"cannot read config file {ini}: 'utf-8' codec" in capsys.readouterr().err
    # a result name taken by a directory, refused as opening the file would
    # (test_a_taken_result_name_is_refused_before_any_draw covers every command)
    out = tmp_path / "taken"
    (out / "roc_awgn_0dB.csv").mkdir(parents=True)
    assert run("roc", "--trials", "100", "--snr-db=0", "--out", str(out)) == 2
    assert f"cannot write results to {out / 'roc_awgn_0dB.csv'}: [Errno" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roc", "pmd-table", "compare"])
def test_an_unusable_out_is_refused_before_any_draw(tmp_path, monkeypatch, capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    entered = []
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: entered.append(args))
    for out in (blocker, blocker / "sub" / "dir"):
        assert run(command, "--detector-p", "3", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write results to {out}: " \
                               f"{blocker} is not a directory\n"
        assert captured.out == ""
    assert entered == []
    assert blocker.read_text() == ""
    # commands that write nothing do not look at --out
    assert run("calibrate", "--pfa-targets", "0.1", "--out", str(blocker)) == 0


@pytest.mark.parametrize("ext", ["csv", "svg"])
@pytest.mark.parametrize("command, stem", [
    ("roc", "roc_awgn_10dB"), ("pmd-table", "pmd_table_p3_awgn"), ("compare", "compare_awgn_10dB"),
], ids=["roc", "pmd-table", "compare"])
def test_a_taken_result_name_is_refused_before_any_draw(tmp_path, monkeypatch, capsys,
                                                        command, stem, ext):
    taken = tmp_path / f"{stem}.{ext}"  # the last file of a three-SNR run
    taken.mkdir()
    entered = []
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: entered.append(args))
    assert run(command, "--detector-p", "3", "--svg", "--snr-db=-10,0,10",
               "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write results to {taken}: [Errno ")
    assert captured.out == ""
    assert entered == []  # not even the p=3 calibration ran
    assert list(tmp_path.iterdir()) == [taken]  # no earlier file was written
    assert list(taken.iterdir()) == []


def test_a_taken_svg_name_is_left_alone_without_svg(tmp_path):
    (tmp_path / "roc_awgn_0dB.svg").mkdir()
    assert run("roc", "--trials", "100", "--snr-db=0", "--out", str(tmp_path)) == 0
    assert (tmp_path / "roc_awgn_0dB.csv").is_file()


@pytest.mark.parametrize("flag, message", [
    ("--trials", "trials must be an integer >= 1, got 0"),
    ("--samples", "n_samples must be an integer >= 1, got 0"),
])
@pytest.mark.parametrize("command", ["roc", "compare", "pmd-table", "validate", "calibrate"])
def test_no_trials_or_samples_exit_two_before_any_output(tmp_path, capsys, flag, message,
                                                         command):
    # the engine's Scenario refuses them, before any command prints or writes
    out = tmp_path / "out"
    assert run(command, flag, "0", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("setting, argv", [
    ("workers", ["--workers", "0"]), ("cal_trials", ["--config", "zero.ini"]),
])
def test_no_workers_or_calibration_trials_exit_two_before_any_output(tmp_path, monkeypatch,
                                                                     capsys, setting, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.ini").write_text("[run]\ncal_trials = 0\n")
    assert run("roc", *argv, "--out", "out") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {setting} must be >= 1, got 0\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_a_result_file_that_cannot_be_made_exits_two(tmp_path, monkeypatch, capsys):
    # file modes refuse nothing to root, so the refusal is made where the directory is
    def refuse(path, exist_ok=False):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli.os, "makedirs", refuse)
    out = tmp_path / "out"
    assert run("roc", "--trials", "100", "--snr-db=0", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write results to {out / 'roc_awgn_0dB.csv'}: "
                            f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out}'\n")
    assert captured.out == ""
    assert not out.exists()


_FLAGS = {"--config", "--seed", "--trials", "--samples", "--snr-db", "--channel",
          "--detector-p", "--pfa-targets", "--out", "--svg", "--workers"}


def test_every_command_takes_every_setting_flag():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == ["roc", "pmd-table", "compare", "calibrate", "validate"]
    for command in commands.choices.values():
        flags = {f for a in command._actions for f in a.option_strings}
        assert flags - {"-h", "--help"} == _FLAGS
    # each flag but --config is the row of the setting it sets
    assert {"--" + s.name.replace("_", "-") for s in _SETTINGS if s.help} == _FLAGS - {"--config"}


def test_readme_settings_table_matches_the_settings_rows():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        rows = [line.split("|")[1:3] for line in handle if line.startswith("| `[")]
    # the first `code` span of the key and flag cells, or the bare "none"
    documented = [[c.split("`")[1] if "`" in c else c.strip() for c in row] for row in rows]
    assert documented == [
        [f"[{s.section}] {s.key}", "--" + s.name.replace("_", "-") if s.help else "none"]
        for s in _SETTINGS
    ]


@pytest.mark.parametrize("command", ["roc", "pmd-table", "compare", "validate"])
@pytest.mark.parametrize("snr", ["3083", "-4000"])
def test_snr_without_a_finite_positive_power_exits_two(tmp_path, capsys, command, snr):
    # 10^(3083/10) overflows and 10^(-4000/10) rounds to 0
    out = tmp_path / "out"
    assert run(command, "--channel", "rayleigh", f"--snr-db=-10,{snr}", "--svg",
               "--trials", "100", "--out", str(out)) == 2
    assert f"snr_db {float(snr)!r} gives linear power" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variance, p", [("1e250", 3), ("1e205", 3), ("1e-250", 3),
                                         ("1e-320", 2)])
def test_noise_variance_without_a_normal_sigma_p_exits_two(tmp_path, capsys, variance, p):
    # scales whose sigma^p overflows, underflows or is subnormal, or whose
    # statistic of 10 samples can overflow (1e205 at p=3): no scale
    # reaches the engine any more, so each is refused as a removed setting
    ini = tmp_path / "noise.ini"
    ini.write_text(f"[run]\nnoise_variance = {variance}\n")
    out = tmp_path / "out"
    assert run("roc", "--config", str(ini), "--detector-p", str(p), "--trials", "100",
               "--snr-db=0", "--pfa-targets", "0.1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: noise_variance was removed")
    assert not out.exists()


_NOISE_OVERFLOWS = "unit noise can overflow the p=400 statistic of 10 samples"


@pytest.mark.parametrize("argv, message", [
    # the noise alone overflows p=400, so its term is named first
    (["roc", "--detector-p", "400", "--pfa-targets", "0.1,0.5"], _NOISE_OVERFLOWS),
    (["compare", "--channel", "rayleigh", "--snr-db=3000"],  # its p=3 signal term
     "the signal at snr_db 3000.0 can overflow the p=3 statistic of 10 samples"),
    (["pmd-table", "--detector-p", "400", "--channel", "rayleigh"], _NOISE_OVERFLOWS),
    (["roc", "--detector-p", "3", "--snr-db=3000"],  # the signal term alone
     "the signal at snr_db 3000.0 can overflow the p=3 statistic of 10 samples"),
    (["validate", "--snr-db=3070"],  # its Rayleigh sweep, on an AWGN config
     "the signal at snr_db 3070.0 can overflow the p=2 statistic of 10 samples"),
    # refused before its calibration draws 1e5 frames of 1e5 samples
    (["roc", "--detector-p", "3", "--samples", "100000", "--snr-db=3000"],
     "the signal at snr_db 3000.0 can overflow the p=3 statistic of 100000 samples"),
], ids=["roc", "compare", "pmd-table", "snr", "validate", "snr-long-frames"])
def test_a_statistic_that_can_overflow_exits_two(tmp_path, monkeypatch, capsys, argv,
                                                 message):
    # No |y| exceeds 8.6522 plus the peak gain times the signal's peak
    # amplitude, so n |y|^p bounds the statistic before any draw; in each
    # of these configs that bound, and |y|^p in a draw, can overflow.  The
    # run's evaluation bound is checked before its calibration draws, so
    # none of them draws at all: a draw fails the test at once.
    def refused(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(signal_channel, "normal_block", refused)
    out = tmp_path / "out"
    assert run(*argv, "--trials", "2000", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_calibrate_runs_where_only_the_signal_can_overflow(capsys):
    # calibrate draws the noise alone, whose statistic fits at any SNR
    assert run("calibrate", "--detector-p", "3", "--snr-db=3000") == 0
    assert "method=empirical" in capsys.readouterr().out


def test_a_statistic_bound_within_the_doubles_runs(tmp_path):
    # n (8.6522 + 6.1181 amp)^327 is about 3e307 at -100 dB; p=328 overflows
    assert run("roc", "--detector-p", "327", "--channel", "rayleigh", "--trials", "2000",
               "--snr-db=-100", "--pfa-targets", "0.1", "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("setting", ["noise_variance = 4.0", "normalized = no"])
def test_the_removed_noise_settings_accept_only_their_defaults(tmp_path, capsys, setting):
    # a noise scale changes no rate at a calibrated P_FA, so both settings
    # left the engine; their rows stay only for the result header lines
    ini = tmp_path / "removed.ini"
    ini.write_text(f"[run]\n{setting}\n")
    out = tmp_path / "out"
    assert run("roc", "--config", str(ini), "--trials", "500", "--out", str(out)) == 2
    captured = capsys.readouterr()
    name = setting.split()[0]
    assert captured.err.startswith(f"error: {name} was removed, as it changes no rate")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("power", ["2.0", "0.5", "-1", "nan"])
@pytest.mark.parametrize("command", ["roc", "pmd-table", "compare", "calibrate", "validate"])
def test_signal_power_is_a_removed_setting(tmp_path, monkeypatch, capsys, command, power):
    # a power P is the SNR shifted by 10 log10(P) dB, so every model draws
    # unit-power frames; the row stays only for the result header line
    draws = []
    for name in ("normal_block", "uniform_block"):
        monkeypatch.setattr(signal_channel, name, lambda *args, **kwargs: draws.append(args))
    ini = tmp_path / "power.ini"
    ini.write_text(f"[signal]\npower = {power}\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(ini), "--trials", "500", "--svg", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: signal_power was removed, as a signal power P is the SNR "
                            "shifted by 10*log10(P) dB; only its default 1.0 is accepted\n")
    assert captured.out == "" and draws == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["roc", "pmd-table"])
def test_a_stated_unit_signal_power_writes_the_same_bytes(tmp_path, command):
    ini = tmp_path / "power.ini"
    ini.write_text("[signal]\npower = 1.0\n")
    written = []
    for extra in ((), ("--config", str(ini))):
        out = tmp_path / str(len(written))
        assert run(command, *extra, "--trials", "2000", "--svg", "--out", str(out)) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1] and len(written[0]) == (6 if command == "roc" else 2)


@pytest.mark.parametrize("setting", ["noise_variance = 0.25", "normalized = no"])
@pytest.mark.parametrize("command", ["pmd-table", "compare", "calibrate", "validate"])
def test_every_command_refuses_the_removed_noise_settings(tmp_path, capsys, command, setting):
    ini = tmp_path / "removed.ini"
    ini.write_text(f"[run]\n{setting}\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(ini), "--trials", "500", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {setting.split()[0]} was removed")
    assert captured.out == ""
    assert not out.exists()


def test_the_removed_noise_settings_keep_their_header_lines(tmp_path):
    ini = tmp_path / "defaults.ini"
    ini.write_text("[run]\nnoise_variance = 1\nnormalized = yes\n")
    common = ("--trials", "500", "--snr-db=0", "--pfa-targets", "0.1")
    assert run("roc", *common, "--config", str(ini), "--out", str(tmp_path / "ini")) == 0
    assert run("roc", *common, "--out", str(tmp_path / "flags")) == 0
    written = (tmp_path / "ini" / "roc_awgn_0dB.csv").read_text()
    assert written == (tmp_path / "flags" / "roc_awgn_0dB.csv").read_text()
    assert "\n# noise_variance=1.0\n" in written and "\n# normalized=True\n" in written


_VALIDATE_REFUSALS = {
    "detector_p = 3": "validate checks only the p=2 detector, or any p at samples = 1",
    # the unnormalized statistic left the engine with the noise scale
    "normalized = no": "normalized was removed, as it changes no rate",
}


@pytest.mark.parametrize("setting", list(_VALIDATE_REFUSALS))
def test_validate_refuses_a_detector_it_does_not_check(tmp_path, capsys, setting):
    ini = tmp_path / "detector.ini"
    ini.write_text(f"[run]\n{setting}\n")
    assert run("validate", "--trials", "1000", "--config", str(ini)) == 2
    captured = capsys.readouterr()
    assert _VALIDATE_REFUSALS[setting] in captured.err
    assert captured.out == ""


def _spy_on(monkeypatch, module, names, calls):
    """Record ``(name, args)`` of each call to ``module.<name>``."""
    for name in names:
        def counted(*args, _name=name, _oracle=getattr(module, name)):
            calls.append((_name, args))
            return _oracle(*args)

        monkeypatch.setattr(module, name, counted)


def test_validate_checks_the_targets_it_is_given(monkeypatch, capsys):
    calls = []
    _spy_on(monkeypatch, analytic, ("pd_awgn_analytic", "pd_rayleigh_analytic"), calls)
    for targets in ("0.3", "0.05,0.2"):
        calls.clear()
        assert run("validate", "--trials", "20000", "--pfa-targets", targets) == 0
        out = capsys.readouterr().out
        assert out.endswith("all checks passed\n")
        (h0_line,) = [line for line in out.splitlines() if "h0-false-alarm" in line]
        assert h0_line.startswith("PASS") and h0_line.endswith(f"at targets {targets}")
        assert "0.01" not in out
        # both P_D oracles score every SNR at each calibrated threshold
        lams = grid_from_pfa_targets([float(t) for t in targets.split(",")],
                                     DetectorSpec(p=2), 10).values
        assert sorted((name, args[-1]) for name, args in calls) == sorted(
            (name, lam) for name in ("pd_awgn_analytic", "pd_rayleigh_analytic")
            for lam in lams for _ in range(3))


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
    # settings only: the measured signs are in the delta column
    assert list(meta) == [k for k in head if k not in ("detector_p", "normalized")] + [
        "snr_db_this_file",
    ]


def test_pmd_table_embeds_reference_columns(tmp_path):
    assert run("pmd-table", "--trials", "2000", "--snr-db=-10,0,10",
               "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p2_awgn.csv"))
    assert len(rows) == 26
    assert "bundled" in meta["reference_tables"]
    conv = np.array(reference.PMD_CONVENTIONAL)
    impr = np.array(reference.PMD_IMPROVED)
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
    meta, rows = read_result_csv(str(tmp_path / "compare_awgn_-10dB.csv"))
    # the printed summary words each row's delta, naming a winner only
    # beyond the Sidak bound over the run's cells; the header restates
    # no result
    lines = [line for line in out.splitlines() if line.startswith("target pfa")]
    assert len(lines) == len(rows)
    bound = cli._sigma_bound(len(rows))
    for line, r in zip(lines, rows):
        delta, stderr = float(r["delta"]), float(r["stderr_delta"])
        winner = "p=3" if delta > 0 else "p=2"
        verdict = (f"{winner} misses less" if abs(delta) > bound * stderr
                   else "not settled" if delta else "no measured difference")
        assert line.endswith(f"({verdict})")
    # +0.000250 +/- 0.001561 is 0.16 sigma: no winner is named
    assert lines[0] == ("target pfa 0.01: pmd(p=2) - pmd(p=3) = +0.000250 +/- 0.001561 "
                        "(not settled)")
    assert not [key for key in meta if key.startswith(("measured_sign", "reference"))]
    # compare always runs the p=2 and p=3 detectors, so it
    # neither echoes nor reads the detector settings
    assert "detector_p" not in meta and "normalized" not in meta
    assert run("compare", "--trials", "4000", "--snr-db=-10", "--detector-p", "4",
               "--out", str(tmp_path / "p4")) == 0
    name = "compare_awgn_-10dB.csv"
    assert (tmp_path / "p4" / name).read_bytes() == (tmp_path / name).read_bytes()
    capsys.readouterr()
    assert run("compare", "--trials", "4000", "--snr-db=-10,-10",
               "--out", str(tmp_path / "twice")) == 0
    assert capsys.readouterr().out.count("wrote ") == 1  # a repeated SNR runs once
    assert os.listdir(tmp_path / "twice") == [name]
    assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert [r["target_pfa"] for r in rows] == ["0.01", "0.1"]
    for r in rows:
        delta = float(r["delta"])
        assert float(r["pmd_p2"]) - float(r["pmd_p3"]) == delta
        assert float(r["stderr_delta"]) >= 0.0


def test_compare_at_one_sample_measures_no_difference(tmp_path, capsys):
    # |y|^2 and |y|^3 order every trial alike, so with exact thresholds
    # p=2 and p=3 are one detector; empirical p=3 thresholds read up to
    # 10.5 sigma here
    assert run("compare", "--samples", "1", "--channel", "rayleigh", "--trials", "100000",
               "--pfa-targets", "0.001,0.01,0.1", "--snr-db=-10,0", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.count("(no measured difference)") == 6
    for snr in ("-10", "0"):
        _, rows = read_result_csv(str(tmp_path / f"compare_rayleigh_{snr}dB.csv"))
        assert [(r["delta"], r["stderr_delta"]) for r in rows] == [("0.0", "0.0")] * 3


def test_validate_checks_p3_at_one_sample(capsys):
    assert run("validate", "--detector-p", "3", "--samples", "1", "--trials", "20000") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS chi2-closed-form", "PASS h0-false-alarm", "PASS awgn-pd-oracle",
        "PASS rayleigh-pd-oracle", "all checks passed"]


# Three targets that agree to six significant digits.
_CLOSE_TARGETS = ("0.1", "0.100001", "0.1000011")


def test_calibrate_prints_close_targets_distinctly(capsys):
    assert run("calibrate", "--detector-p", "3", "--pfa-targets", ",".join(_CLOSE_TARGETS)) == 0
    out = capsys.readouterr().out
    assert [line.split("target_pfa=")[1].split()[0] for line in out.splitlines()] \
        == list(_CLOSE_TARGETS)


def test_compare_prints_close_targets_distinctly(tmp_path, capsys):
    assert run("compare", "--pfa-targets", ",".join(_CLOSE_TARGETS), "--trials", "2000",
               "--snr-db=0", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    printed = [line.split(":")[0] for line in out.splitlines() if line.startswith("target pfa")]
    assert printed == [f"target pfa {t}" for t in _CLOSE_TARGETS]


def test_compare_verdict_names_the_measured_detector():
    lines = cli._sign_summary(DetectorSpec(p=2), DetectorSpec(p=4), (0.1, 0.2, 0.3, 0.4, 0.5),
                              [0.25, -0.25, 0.0, 0.03, -0.031], [0.01, 0.02, 0.0, 0.01, 0.01],
                              3.0).split("\n")
    assert lines == [
        "target pfa 0.1: pmd(p=2) - pmd(p=4) = +0.250000 +/- 0.010000 (p=4 misses less)",
        "target pfa 0.2: pmd(p=2) - pmd(p=4) = -0.250000 +/- 0.020000 (p=2 misses less)",
        "target pfa 0.3: pmd(p=2) - pmd(p=4) = +0.000000 +/- 0.000000 (no measured difference)",
        "target pfa 0.4: pmd(p=2) - pmd(p=4) = +0.030000 +/- 0.010000 (not settled)",
        "target pfa 0.5: pmd(p=2) - pmd(p=4) = -0.031000 +/- 0.010000 (p=2 misses less)",
    ]


def test_compare_names_no_winner_inside_the_bound_over_all_cells(tmp_path, capsys):
    # -0.004500 +/- 0.003569 is 1.3 sigma; the bound is over the run's
    # three SNR cells, not each SNR's one
    assert run("compare", "--samples", "2", "--trials", "2000", "--pfa-targets", "0.5",
               "--out", str(tmp_path)) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("target pfa")]
    assert [line.rsplit("(", 1)[1] for line in lines] == [
        "not settled)", "not settled)", "no measured difference)"]


@pytest.mark.parametrize("svg", [True, False], ids=["svg", "csv-only"])
def test_svg_outputs_are_valid_xml(tmp_path, monkeypatch, svg):
    # the plot, oracle overlay included, is built only under --svg
    calls = []
    _spy_on(monkeypatch, analytic, ("pd_awgn_analytic", "pd_rayleigh_analytic", "pfa_analytic"),
            calls)
    flags = ["--svg"] if svg else []
    pfa_calls = {}
    # calibration calls pfa_analytic too, so a CSV-only run into a second
    # directory counts those calls alone
    for out, run_flags in ((tmp_path / "csv-only", []), (tmp_path, flags)):
        calls.clear()
        for channel in ("awgn", "rayleigh"):
            assert run("roc", "--trials", "1000", "--snr-db=0,10", "--channel", channel,
                       "--pfa-targets", "0.01,0.1,0.5", *run_flags, "--out", str(out)) == 0
        pfa_calls[out] = [name for name, _ in calls].count("pfa_analytic")
    assert sorted({name for name, _ in calls} - {"pfa_analytic"}) == (
        ["pd_awgn_analytic", "pd_rayleigh_analytic"] if svg else []
    )
    # the overlay's P_FA axis: one call per threshold per SVG
    assert pfa_calls[tmp_path] - pfa_calls[tmp_path / "csv-only"] == (3 * 2 * 2 if svg else 0)
    assert run("pmd-table", "--trials", "1000", "--snr-db=0,10", *flags,
               "--out", str(tmp_path)) == 0
    assert run("compare", "--trials", "2000", "--snr-db=-10,0,10", *flags,
               "--out", str(tmp_path)) == 0
    # one .svg next to each .csv, and none without --svg
    stems = sorted(path.stem for path in tmp_path.glob("*.csv"))
    assert len(stems) == 8
    assert sorted(path.stem for path in tmp_path.glob("*.svg")) == (stems if svg else [])
    for path in tmp_path.glob("*.svg"):
        xml.dom.minidom.parseString(path.read_text())
        assert "polyline" in path.read_text()
    if svg:  # p=2 overlays the closed-form curve
        assert "analytic" in (tmp_path / "roc_awgn_0dB.svg").read_text()


@pytest.mark.parametrize("ini, flags, overlaid", [
    ("", [], True),
    ("", ["--channel", "rayleigh"], True),
    ("[signal]\nkind = sinusoid\ncycles_per_frame = 0.3\n", ["--channel", "rayleigh"], True),
    ("", ["--detector-p", "3"], False),
    ("[signal]\nkind = gaussian\n", [], False),
], ids=["bpsk-awgn", "bpsk-rayleigh", "sinusoid-rayleigh", "p3", "gaussian"])
def test_roc_overlays_the_closed_form_wherever_a_law_applies(tmp_path, ini, flags, overlaid):
    # the laws describe the p=2 statistic of frames sharing one mean
    # square; everywhere else the SVG holds the simulated curve alone
    config = tmp_path / "run.ini"
    config.write_text(ini)
    out = tmp_path / "out"
    assert run("roc", "--svg", "--trials", "1000", "--snr-db=0,10", "--pfa-targets",
               "0.01,0.1,0.5", "--config", str(config), *flags, "--out", str(out)) == 0
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 2
    assert [">analytic<" in path.read_text() for path in svgs] == [overlaid] * 2


@pytest.mark.parametrize("argv", [
    ["compare"],
    ["pmd-table", "--detector-p", "3", "--channel", "rayleigh"],
    ["roc", "--channel", "rayleigh"],
], ids=["compare", "pmd-table-p3-rayleigh", "roc-rayleigh"])
def test_the_noise_scale_changes_no_rate(tmp_path, capsys, argv):
    # the engine draws unit noise (test_montecarlo pins why a scale would
    # move no rate): the unit scale, stated, changes no byte, and any
    # other scale is refused before a file is written
    argv = [*argv, "--trials", "4000"]
    assert run(*argv, "--out", str(tmp_path / "unset")) == 0
    written = {path.name: path.read_bytes() for path in (tmp_path / "unset").iterdir()}
    assert written
    for variance in ("1.0", "4.0", "0.25"):
        config = tmp_path / f"{variance}.ini"
        config.write_text(f"[run]\nnoise_variance = {variance}\n")
        out = tmp_path / variance
        code = run(*argv, "--config", str(config), "--out", str(out))
        if variance == "1.0":
            assert code == 0
            assert {path.name: path.read_bytes() for path in out.iterdir()} == written
        else:
            assert code == 2 and not out.exists()
            assert "noise_variance was removed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compare", "--snr-db=0"],
    ["roc", "--detector-p", "3"],
], ids=["compare", "roc-p3"])
def test_a_single_target_log_plot_is_written(tmp_path, argv):
    # one P_FA on a log-x axis: widening its range by +-0.5 reached x <= 0
    argv = [*argv, "--pfa-targets", "0.1", "--trials", "1000"]
    assert run(*argv, "--svg", "--out", str(tmp_path / "svg")) == 0
    assert run(*argv, "--out", str(tmp_path / "csv")) == 0
    csvs = sorted(path.name for path in (tmp_path / "csv").iterdir())
    assert csvs and all(name.endswith(".csv") for name in csvs)
    for name in csvs:  # the plot changes no CSV byte
        assert (tmp_path / "svg" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()
        svg = (tmp_path / "svg" / name).with_suffix(".svg")
        assert svg.stat().st_size > 0
        xml.etree.ElementTree.parse(svg)
        # compare overlays no law, and p=3 at n=10 has none
        assert ">analytic<" not in svg.read_text()


def test_a_plot_that_fails_leaves_no_svg(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("plot failed")

    monkeypatch.setattr(cli, "line_plot", broken)
    assert run("roc", "--trials", "1000", "--snr-db=0", "--svg", "--out", str(tmp_path)) == 2
    assert "plot failed" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["roc_awgn_0dB.csv"]


def test_p3_never_leads_p2_on_gaussian_signals(tmp_path):
    # For Gaussian signal frames the likelihood ratio increases with sum y^2,
    # on AWGN and on Rayleigh block fading alike, so p=2 is uniformly most
    # powerful: no cell may find p=3 missing less, delta = pmd_p2 - pmd_p3 > 0,
    # beyond the Sidak bound over every cell checked.
    ini = tmp_path / "gaussian.ini"
    ini.write_text("[signal]\nkind = gaussian\n")
    cells = []
    for channel in ("awgn", "rayleigh"):
        out = tmp_path / channel
        assert run("compare", "--trials", "20000", "--channel", channel,
                   "--config", str(ini), "--out", str(out)) == 0
        for path in sorted(out.glob("*.csv")):
            _, rows = read_result_csv(str(path))
            cells += [(float(r["delta"]), float(r["stderr_delta"]), path.stem, r["target_pfa"])
                      for r in rows]
    assert len(cells) == 12  # 2 channels x 3 SNRs x 2 targets
    bound = cli._sigma_bound(len(cells))
    assert [cell for cell in cells if cell[0] > bound * cell[1]] == []


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
    assert out.count("PASS") == 4
    # 3 targets for H0; 3 targets x 3 SNRs for each P_D oracle
    assert out.count("(bound 3.32 over 3 cells)") == 1
    assert out.count("(bound 3.62 over 9 cells)") == 2


def test_validate_fails_and_names_a_check_whose_oracle_disagrees(monkeypatch, capsys):
    monkeypatch.setattr(analytic, "pd_awgn_analytic", lambda n, gamma, lam: 0.0)
    assert run("validate", "--trials", "20000") == 1
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert out.count("FAIL awgn-pd-oracle: worst |pd - analytic| = ") == 1
    assert out.endswith("FAILED checks: awgn-pd-oracle\n")


def test_validate_returns_at_huge_snr():
    # In a fresh interpreter, whose timeout fails a hang in the oracle.
    argv = ["validate", "--trials", "2000", "--snr-db=200"]
    out = _fresh(f"from sensesim.cli import main\nassert main({argv!r}) == 0")
    assert "all checks passed" in out


def test_validate_bound_grows_with_the_cells_it_checks():
    # Sidak: the worst of m cells exceeds the bound as often as one cell
    # exceeds 3 sigma, so a one-cell check keeps its 3 sigma exactly
    bounds = [cli._sigma_bound(m) for m in range(1, 101)]
    assert bounds[0] == 3.0
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert 3.61 <= bounds[8] <= 3.62


@pytest.mark.parametrize("signal, skips", [
    ("kind = gaussian", 2),
    ("kind = sinusoid\ncycles_per_frame = 0.3", 0),
    ("kind = sinusoid\ncycles_per_frame = 5", 0),
], ids=["gaussian", "sinusoid-c0.3", "sinusoid-c5"])
def test_validate_scales_the_oracle_to_the_signal(tmp_path, capsys, signal, skips):
    # the p=2 oracle runs at SNR times the frame's mean square, and skips
    # signals whose frames do not share one
    ini = tmp_path / "signal.ini"
    ini.write_text(f"[signal]\n{signal}\n")
    assert run("validate", "--trials", "20000", "--config", str(ini)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("SKIP") == skips
    assert out.count("PASS") == 4 - skips


@pytest.mark.parametrize("argv, passes", [
    (["validate"], 2),  # one sweep per oracle channel
    (["compare", "--snr-db=-10,0,10"], 2),  # the p=3 calibration draw, then one sweep
], ids=["validate", "compare"])
def test_each_command_draws_its_trials_once_per_channel(monkeypatch, tmp_path, argv, passes):
    calls = []
    run_blocks = montecarlo._run_blocks

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_blocks(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run_blocks", counted)
    assert run(*argv, "--out", str(tmp_path)) == 0  # default trials and targets
    assert len(calls) == passes


def test_pmd_table_sorts_the_snrs_it_is_given(tmp_path, capsys):
    outputs = {}
    for snrs in ("10,-10,0", "-10,0,10"):
        out = tmp_path / snrs
        assert run("pmd-table", "--channel", "rayleigh", "--trials", "2000", "--svg",
                   f"--snr-db={snrs}", "--out", str(out)) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[snrs] = [printed] + [(out / f"pmd_table_p2_rayleigh.{ext}").read_text()
                                     for ext in ("csv", "svg")]
    # the same bytes, but for the header's echo of the SNRs as given
    given, ascending = outputs["10,-10,0"], outputs["-10,0,10"]
    given[1] = given[1].replace("# snr_db=10.0,-10.0,0.0\n", "# snr_db=-10.0,0.0,10.0\n", 1)
    assert given == ascending


def test_pmd_table_accepts_a_single_trial(tmp_path):
    # at one trial every stderr is 0, and a Rayleigh trial whose statistic
    # falls as the SNR rises is a valid outcome, not a config error
    assert run("pmd-table", "--channel", "rayleigh", "--trials", "1", "--seed", "9",
               "--out", str(tmp_path)) == 0
    meta, rows = read_result_csv(str(tmp_path / "pmd_table_p2_rayleigh.csv"))
    assert meta["trials"] == "1"
    assert len(rows) == 26


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
    # argparse %-formats each help text only when --help prints it
    for command in ("roc", "pmd-table", "compare", "calibrate", "validate"):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert "--pfa-targets" in capsys.readouterr().out


def _fresh(code, **env):
    """Standard output of ``code`` run by a fresh interpreter on this
    checkout's sensesim, without OPENBLAS_NUM_THREADS unless in ``env``;
    a run that takes over a minute fails."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(sensesim.__file__))
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True, timeout=60).stdout


def _import_cli(statement="import sensesim.cli", **env):
    """OPENBLAS_NUM_THREADS and the Threads: count of a fresh process after
    ``statement``."""
    code = (f"import os, re\n{statement}\n"
            "with open('/proc/self/status') as f:\n"
            "    threads = re.search(r'Threads:\\s*(\\d+)', f.read()).group(1)\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)")
    return _fresh(code, **env).split()


def test_cli_import_starts_no_blas_thread_pool():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc to count threads")
    assert _import_cli() == ["1", "1"]  # --workers is the only parallelism
    # the default is set at the package root, so any submodule imported
    # first (as the benchmark tracer imports analytic) gets it too
    assert _import_cli("from sensesim import analytic") == ["1", "1"]
    assert _import_cli(OPENBLAS_NUM_THREADS="2")[0] == "2"  # an explicit setting wins


# Standard-library modules that only some runs need: the thread pool (with
# the logging, traceback and queue it imports) and the INI parser.
_RUN_SPECIFIC = ("concurrent.futures", "logging", "configparser")
_LOADED = f"print(*(m in sys.modules for m in {_RUN_SPECIFIC!r}))"


def test_cli_import_leaves_run_specific_modules_out():
    assert _fresh(f"import sys\nimport sensesim.cli\n{_LOADED}").split() == ["False"] * 3


def test_script_entry_freezes_the_imports():
    # runs the module as `python -m sensesim.cli --version` does; the count
    # is read at interpreter exit
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "sys.argv = ['sensesim', '--version']\n"
            "runpy.run_module('sensesim.cli', run_name='__main__', alter_sys=True)\n")
    version, frozen = _fresh(code).splitlines()
    assert version == f"sensesim {sensesim.__version__}"
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0


def test_rayleigh_oracle_runs_leave_numpy_polynomial_out(tmp_path):
    # the Gauss-Laguerre rule is a table, so no run builds it with laggauss
    steps = [["roc", "--channel", "rayleigh", "--svg", "--trials", "2000",
              "--snr-db=0,10", "--pfa-targets", "0.1", "--out", str(tmp_path)],
             ["validate", "--trials", "2000"]]
    code = ("import sys\nfrom sensesim.cli import main\n"
            f"for argv in {steps!r}:\n"
            "    assert main(argv) == 0\n"
            "    print('numpy.polynomial' in sys.modules)\n")
    out = _fresh(code).splitlines()
    assert [line for line in out if line in ("True", "False")] == ["False", "False"]
    assert "analytic" in (tmp_path / "roc_rayleigh_10dB.svg").read_text()


def test_empirical_calibration_runs_leave_numpy_ma_out(tmp_path):
    # the p=3 thresholds are read by index from the sorted draw, so no run
    # calls np.quantile, whose first call imports numpy.ma
    steps = [["calibrate", "--detector-p", "3", "--pfa-targets", "0.01,0.1"],
             ["pmd-table", "--detector-p", "3", "--trials", "2000", "--out", str(tmp_path)],
             ["compare", "--trials", "2000", "--out", str(tmp_path)]]
    code = ("import sys\nfrom sensesim.cli import main\n"
            f"for argv in {steps!r}:\n"
            "    assert main(argv) == 0\n"
            "    print('numpy.ma' in sys.modules)\n")
    out = _fresh(code).splitlines()
    assert [line for line in out if line in ("True", "False")] == ["False"] * 3


def test_runs_import_the_pool_and_the_ini_parser_only_when_used(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 5\n")
    # 100 trials of 2000 samples span several blocks, so two workers start a thread
    roc = ["roc", "--trials", "100", "--samples", "2000", "--snr-db=0",
           "--pfa-targets", "0.1", "--out", str(tmp_path / "out")]
    steps = [roc, roc + ["--workers", "2"], roc + ["--config", str(ini)]]
    code = ("import gc, sys\nfrom sensesim.cli import main\n"
            f"for argv in {steps!r}:\n"
            "    frozen = gc.get_freeze_count()\n"
            "    assert main(argv) == 0\n"
            "    print(gc.get_freeze_count() - frozen, end=' ')\n"
            f"    {_LOADED}\n")
    lines = [line.split() for line in _fresh(code).splitlines() if "wrote" not in line]
    # columns: freeze-count change, then concurrent.futures, logging, configparser
    assert lines == [
        ["0", "False", "False", "False"],
        ["0", "False", "False", "False"],
        ["0", "False", "False", "True"],
    ]
