"""Command-line front end: experiment configs in, CSVs and SVG plots out.

Two tables declare the whole command line.  ``_COMMANDS`` holds one row
per subcommand: its handler, help text and default false-alarm targets.
``_SETTINGS`` holds one row per setting: its INI home, parser, default,
header echo and, for a setting with a flag, the flag's help text.
``build_parser`` makes every subcommand and every flag from them, so
``sensesim --help`` lists what the rows declare.  Every simulating
command builds its run once (the threshold grid and one draw per
channel) and scores H0 and all its SNRs from that draw, in one engine
pass.  A writing handler names its files to :func:`_check_out` before
its first draw; each goes through one writer, :func:`_write`, which
takes the header lines, the rows and a plot run only under ``--svg``.

Configuration comes from an INI file plus flag overrides (flags win over
the file; the SENSESIM_SEED environment variable sits below both; built-in
defaults last).  Every output file starts with ``# key=value`` comment
lines echoing the tool version, seed, and full parameter set, so a run
can be reproduced from its artifact alone.  Floats are written with
``repr``, the shortest exact representation, so parsing a results CSV
recovers the in-memory values bit for bit.  Worker count is deliberately
not echoed: it cannot affect values, and byte-identical output across
parallelism levels is part of the determinism contract.

Exit codes: 0 success, 1 validation failure, 2 usage, config or output error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import math
import os
import sys
from dataclasses import fields
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__, reference
from .analytic import calibrate_threshold, h0_law, pd_law
from .detector import DetectorSpec
from .montecarlo import (
    DEFAULT_PFA_TARGETS,
    Scenario,
    ThresholdGrid,
    check_overflow,
    compare_detectors,
    grid_from_pfa_targets,
    pmd_table,
    roc_sweep,
)
from .signal_channel import (
    AWGN,
    RAYLEIGH,
    SIGNAL_MODELS,
    ChannelModel,
    snr_to_linear,
)
from .svgplot import Series, line_plot

ENV_SEED = "SENSESIM_SEED"


class ConfigError(Exception):
    """Bad configuration: unknown key, unparsable value, missing file."""


class _Setting(NamedTuple):
    """One configurable setting: its INI home, parser, default, echo and flag."""

    name: str  # key in the resolved config; also the flag's argparse dest
    section: str
    key: str
    parse: Callable[[str], Any]
    default: Any
    echo: bool  # written into result headers, in table order
    help: str | None = None  # the flag's help text; None: no flag, file only


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list value: {text!r}")
    try:
        return tuple(float(v) for v in items)
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean value {text!r}")


def _run(name, parse, default, help=None, echo=True) -> _Setting:
    return _Setting(name, "run", name, parse, default, echo, help)


# The table's order is the result-header order.  A row with help text
# has the flag ``--name-with-dashes``; a flag of a boolean is a switch.
# A [signal] row other than ``kind`` and a removed one names a model
# field and is echoed only for models that have it.  ``pfa_targets``
# defaults per command, to the targets of its ``_COMMANDS`` row.  The
# rows named in ``_REMOVED`` are removed settings: they stay only so
# every result file keeps its header lines, and each accepts its default
# alone.
_SETTINGS = (
    _run("seed", int, 0, "root seed (64-bit)"),
    _run("trials", int, 100_000, "Monte Carlo trials"),
    _run("samples", int, 10, "samples per frame"),
    _run("channel", str, AWGN, "channel model"),
    _run("noise_variance", float, 1.0),
    _run("detector_p", int, 2, "detector exponent"),
    _run("normalized", _parse_bool, True),
    _Setting("signal", "signal", "kind", str, "bpsk", True),
    _Setting("signal_power", "signal", "power", float, 1.0, True),
    _run("snr_db", _parse_float_list, (-10.0, 0.0, 10.0),
         "comma-separated SNRs in dB (use --snr-db=-10,0,10 for negatives)"),
    _run("cal_trials", int, 100_000),
    _Setting("cycles_per_frame", "signal", "cycles_per_frame", float, 1.0, True),
    _run("pfa_targets", _parse_float_list, None,
         "comma-separated false-alarm targets in (0,1)"),
    _run("out", str, ".", "output directory", echo=False),
    _run("svg", _parse_bool, False, "also write SVG plots", echo=False),
    _run("workers", int, 1, "worker threads (default 1)", echo=False),
)
_BY_KEY = {(s.section, s.key): s for s in _SETTINGS}
_REMOVED = {  # each removed setting's row name, and why it went
    "noise_variance": "as it changes no rate at a calibrated false-alarm target",
    "normalized": "as it changes no rate at a calibrated false-alarm target",
    "signal_power": "as a signal power P is the SNR shifted by 10*log10(P) dB",
}


def _parse(setting: _Setting, key: str, raw: str):
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def _load_config_file(path: str) -> dict:
    # Imported here: only --config runs read an INI file, so no other
    # launch pays for the parser.
    import configparser

    # Values are taken as written: no % interpolation, and no [DEFAULT]
    # section, so that header is one more unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    out: dict = {}
    for section in parser.sections():
        if section not in ("run", "signal"):
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            setting = _BY_KEY.get((section, key))
            if setting is None:
                raise ConfigError(f"unknown [{section}] key {key!r} in {path}")
            out[setting.name] = _parse(setting, key, raw)
    return out


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = {s.name: s.default for s in _SETTINGS}
    if ENV_SEED in os.environ:  # read as --seed is, by the seed row's parser
        cfg["seed"] = _parse(_BY_KEY["run", "seed"], ENV_SEED, os.environ[ENV_SEED])
    if args.config is not None:
        cfg.update(_load_config_file(args.config))
    for setting in _SETTINGS:
        raw = getattr(args, setting.name, None)
        if raw is not None:
            cfg[setting.name] = _parse(setting, setting.name, raw)
    # each SNR runs once; + 0.0 spells -0.0 as 0.0 and leaves every other value
    cfg["snr_db"] = tuple(dict.fromkeys(s + 0.0 for s in cfg["snr_db"]))
    if cfg["pfa_targets"] is None:
        cfg["pfa_targets"] = _COMMANDS[args.command].targets
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    for s in _SETTINGS:
        if s.name in _REMOVED and cfg[s.name] != s.default:
            raise ConfigError(f"{s.name} was removed, {_REMOVED[s.name]}; "
                              f"only its default {s.default!r} is accepted")
    for key in ("workers", "cal_trials"):  # the Scenario refuses trials and samples
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    if cfg["signal"] not in SIGNAL_MODELS:
        names = ", ".join(repr(name) for name in SIGNAL_MODELS)
        raise ConfigError(f"signal must be one of {names}, got {cfg['signal']!r}")
    _scenario(cfg)  # a bad seed, channel or signal is refused before any command prints or draws
    tagged: dict[str, float] = {}  # the SNRs are distinct by now
    for snr in cfg["snr_db"]:
        snr_to_linear(snr)
        tag = _snr_tag(snr)
        if tag in tagged:
            raise ConfigError(f"snr_db values {tagged[tag]!r} and {snr!r} share "
                              f"the file and column tag {tag!r}")
        tagged[tag] = snr


def _check_out(cfg: dict, stems) -> None:
    """Refuse, before any draw, an output directory that cannot be made
    and a result name a directory holds: ``out`` or its nearest existing
    ancestor must be a directory, and no ``stem.csv`` (nor, under
    ``--svg``, ``stem.svg``) of :func:`_write` may be one."""
    out = cfg["out"]
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write results to {out}: {path} is not a directory")
    for stem in stems:
        for ext in (".csv", ".svg") if cfg["svg"] else (".csv",):
            name = os.path.join(out, stem + ext)
            if os.path.isdir(name):  # as open() would refuse it
                exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
                raise ConfigError(f"cannot write results to {name}: {exc}")


def _build_signal(cfg: dict):
    model = SIGNAL_MODELS[cfg["signal"]]
    return model(**{f.name: cfg[_BY_KEY["signal", f.name].name] for f in fields(model)})


def _scenario(cfg: dict, kind: str | None = None) -> Scenario:
    """The configured draw, on channel ``kind`` when given, from which
    every SNR is formed."""
    return Scenario(
        channel=ChannelModel(kind or cfg["channel"]),
        n_samples=cfg["samples"], trials=cfg["trials"], seed=cfg["seed"],
        signal=_build_signal(cfg),
    )


_COMPARE_SPECS = (DetectorSpec(p=2), DetectorSpec(p=3))  # compare's two detectors


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt_value(item) for item in v)
    return str(v)


def _meta(cfg: dict, command: str, snr: float | None = None) -> dict:
    """The header lines of a result file; a per-SNR file names its SNR."""
    meta = {"tool": f"sensesim {__version__}", "command": command}
    echoed = {"kind", *(f.name for f in fields(SIGNAL_MODELS[cfg["signal"]]))}
    for s in _SETTINGS:
        if s.echo and (s.section == "run" or s.key in echoed or s.name in _REMOVED):
            meta[s.name] = _fmt_value(cfg[s.name])
    if snr is not None:
        meta["snr_db_this_file"] = _fmt_value(float(snr))
    return meta


def _write(cfg: dict, stem: str, meta: dict, header: list[str], rows, plot) -> None:
    """Write ``stem.csv`` into the output directory: ``meta`` as ``# key=value``
    lines, then ``header`` and ``rows``.  Under ``--svg`` also write
    ``stem.svg`` from ``plot()``, which returns the series and the
    labels of :func:`line_plot`; no other run pays for the plot."""
    path = os.path.join(cfg["out"], stem)
    with _create(path + ".csv", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt_value(v) for v in row] for row in rows)
    print(f"wrote {path}.csv")
    if cfg["svg"]:
        series, labels = plot()
        svg = line_plot(series, **labels)  # rendered first: a failed plot leaves no file
        with _create(path + ".svg") as handle:
            handle.write(svg)
        print(f"wrote {path}.svg")


def _create(path: str, **kwargs):
    """``open(path, "w", **kwargs)``, making its directory if missing."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def _grid_for(cfg: dict, spec: DetectorSpec) -> ThresholdGrid:
    check_overflow(_scenario(cfg), cfg["snr_db"], (spec,))  # before calibration draws
    return grid_from_pfa_targets(cfg["pfa_targets"], spec, cfg["samples"],
                                 cal_trials=cfg["cal_trials"], seed=cfg["seed"],
                                 workers=cfg["workers"])


def _snr_tag(snr: float) -> str:
    return f"{snr:g}dB"


def cmd_roc(cfg: dict) -> int:
    spec = DetectorSpec(cfg["detector_p"])
    stems = [f"roc_{cfg['channel']}_{_snr_tag(snr)}" for snr in cfg["snr_db"]]
    _check_out(cfg, stems)
    grid = _grid_for(cfg, spec)
    sc = _scenario(cfg)
    # Python floats, which _fmt_value writes with repr
    pfa, stderr_pfa, pd, stderr_pd = (a.tolist() for a in roc_sweep(
        sc, cfg["snr_db"], spec, grid, workers=cfg["workers"]))
    for stem, snr, pd_snr, stderr_snr in zip(stems, cfg["snr_db"], pd, stderr_pd):

        def plot():
            series = [Series(pfa, pd_snr, label="simulated")]
            law = pd_law(spec.p, sc.n_samples, sc.channel, sc.signal)
            if law:
                ana_pd = [law[1](snr, lam) for lam in grid.values]
                sf = h0_law(spec.p, sc.n_samples)[0]
                series.append(Series([sf(lam) for lam in grid.values], ana_pd, label="analytic"))
            # log-x only while every empirical pfa is strictly positive;
            # short runs can hit 0 false alarms at the tightest thresholds
            return series, dict(title=f"ROC, {cfg['channel']}, {snr:g} dB, p={spec.p}",
                                xlabel="P_FA", ylabel="P_D", logx=min(pfa) > 0.0)

        rows = zip(grid.values, pfa, stderr_pfa, pd_snr, stderr_snr)
        _write(cfg, stem, _meta(cfg, "roc", snr),
               ["lambda", "pfa", "stderr_pfa", "pd", "stderr_pd"], rows, plot)
    return 0


def cmd_pmd_table(cfg: dict) -> int:
    spec = DetectorSpec(cfg["detector_p"])
    stem = f"pmd_table_p{spec.p}_{cfg['channel']}"
    _check_out(cfg, [stem])
    grid = _grid_for(cfg, spec)
    snrs = tuple(sorted(cfg["snr_db"]))
    pmd, stderr = (a.tolist() for a in pmd_table(_scenario(cfg), snrs, spec, grid,
                                                 workers=cfg["workers"]))
    idx = list(range(1, len(grid.values) + 1))
    header, columns = ["threshold_index", "lambda"], [idx, grid.values]
    for snr, pmd_snr, stderr_snr in zip(snrs, pmd, stderr):
        header += [f"pmd_{_snr_tag(snr)}", f"stderr_{_snr_tag(snr)}"]
        columns += [pmd_snr, stderr_snr]
    meta = _meta(cfg, "pmd-table")
    if len(grid.values) == reference.REFERENCE_ROWS and snrs == reference.REFERENCE_SNR_DB:
        header += [f"ref_{name}_{_snr_tag(snr)}" for name in ("squaring", "cubing") for snr in snrs]
        columns += [*zip(*reference.PMD_CONVENTIONAL), *zip(*reference.PMD_IMPROVED)]
        meta["reference_tables"] = "bundled squaring/cubing reference P_MD, trend comparison only"
    else:
        meta["reference_tables"] = (
            "omitted: grid or SNR list does not match the 26x3 reference shape"
        )

    def plot():
        series = [Series(idx, pmd_snr, label=f"{snr:g} dB") for snr, pmd_snr in zip(snrs, pmd)]
        return series, dict(title=f"P_MD table, p={spec.p}, {cfg['channel']}",
                            xlabel="threshold index", ylabel="P_MD")

    _write(cfg, stem, meta, header, zip(*columns), plot)
    return 0


def _sign_summary(spec_a: DetectorSpec, spec_b: DetectorSpec, targets, delta, stderr) -> str:
    """State the measured sign of each target's delta = pmd_a - pmd_b, in
    words; no outcome is assumed."""
    lines = []
    for target, d, se in zip(targets, delta, stderr):
        winner = spec_b if d > 0 else spec_a
        verdict = f"p={winner.p} misses less" if d else "no measured difference"
        lines.append(f"target pfa {target!r}: pmd(p={spec_a.p}) - pmd(p={spec_b.p}) = "
                     f"{d:+.6f} +/- {se:.6f} ({verdict})")
    return "\n".join(lines)


def cmd_compare(cfg: dict) -> int:
    spec_a, spec_b = _COMPARE_SPECS
    stems = [f"compare_{cfg['channel']}_{_snr_tag(snr)}" for snr in cfg["snr_db"]]
    _check_out(cfg, stems)
    grid_a, grid_b = _grid_for(cfg, spec_a), _grid_for(cfg, spec_b)
    measured = compare_detectors(_scenario(cfg), cfg["snr_db"], grid_a, grid_b,
                                 spec_a, spec_b, workers=cfg["workers"])
    targets = grid_a.pfa_targets
    header = ["target_pfa", "lambda_p2", "lambda_p3", "pmd_p2", "pmd_p3",
              "delta", "stderr_delta"]
    for stem, snr, pmd_a, pmd_b, delta, stderr in zip(stems, cfg["snr_db"],
                                                      *(m.tolist() for m in measured)):
        meta = _meta(cfg, "compare", snr)
        del meta["detector_p"], meta["normalized"]  # always p=2 vs p=3
        rows = zip(targets, grid_a.values, grid_b.values, pmd_a, pmd_b, delta, stderr)

        def plot():
            series = [Series(targets, pmd_a, label="p=2"), Series(targets, pmd_b, label="p=3")]
            return series, dict(title=f"P_MD at matched P_FA, {cfg['channel']}, {snr:g} dB",
                                xlabel="target P_FA", ylabel="P_MD", logx=True)

        _write(cfg, stem, meta, header, rows, plot)
        print(f"snr {snr:g} dB:")
        print(_sign_summary(spec_a, spec_b, targets, delta, stderr))
    return 0


def cmd_calibrate(cfg: dict) -> int:
    spec = DetectorSpec(cfg["detector_p"])
    cals = calibrate_threshold(spec, cfg["samples"], cfg["pfa_targets"],
                               trials=cfg["cal_trials"], seed=cfg["seed"],
                               workers=cfg["workers"])
    for cal in cals:
        extra = f" mc_trials={cal.mc_trials}" if cal.mc_trials else ""
        print(
            f"p={spec.p} n={cfg['samples']} target_pfa={cal.target_pfa!r} "
            f"lambda={cal.threshold!r} achieved_pfa={cal.achieved_pfa!r} "
            f"method={cal.method}{extra}"
        )
    return 0


def _sigma_bound(cells: int) -> float:
    """Šidák bound on the worst of ``cells`` independent |deviations| in
    sigma: a correct engine exceeds it as often as one cell exceeds 3."""
    if cells == 1:
        return 3.0  # exact; the formula rounds it to 2.999999999999997
    # Imported here: only validate needs it, so no other launch pays for it.
    from statistics import NormalDist

    alpha = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** (1.0 / cells)
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def cmd_validate(cfg: dict) -> int:
    trials = cfg["trials"]
    spec = DetectorSpec(cfg["detector_p"])
    if h0_law(spec.p, cfg["samples"]) is None:
        raise ConfigError(f"validate checks only the normalized p=2 detector, not {spec}")
    grid = _grid_for(cfg, spec)  # refuses bad targets before any check
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    def check_sigmas(name: str, sigmas: list[float], what: str, where: str) -> None:
        worst, bound = max(sigmas), _sigma_bound(len(sigmas))
        check(name, worst <= bound, f"worst |{what}| = {worst:.2f} sigma "
              f"(bound {bound:.2f} over {len(sigmas)} cells) {where}")

    # One sweep per oracle channel scores H0 and every SNR on one draw, and
    # both count the same false alarms (H0 is the noise alone).  Rayleigh,
    # the larger gain bound, sweeps first and nothing prints before both, so
    # an overflow is refused before any draw or output.
    sweeps = {}
    for kind in (RAYLEIGH, AWGN):
        sc = _scenario(cfg, kind)
        pfa, _, pd, _ = (a.tolist() for a in roc_sweep(sc, cfg["snr_db"], spec, grid,
                                                        workers=cfg["workers"]))
        sweeps[kind] = sc, pfa, pd

    sf, lams = h0_law(2, 2)[0], np.linspace(0.0, 100.0, 101).tolist()
    err = max(abs(sf(lam) - math.exp(-lam / 2.0)) for lam in lams)
    check("chi2-closed-form", err <= 1e-12, f"max |Q(1,l/2) - exp(-l/2)| = {err:.3e}")

    _, pfa, _ = sweeps[AWGN]
    check_sigmas("h0-false-alarm", [
        abs(rate - target) / math.sqrt(target * (1 - target) / trials)
        for target, rate in zip(grid.pfa_targets, pfa)
    ], "pfa - target", f"at targets {_fmt_value(grid.pfa_targets)}")

    for kind in (AWGN, RAYLEIGH):
        sc, _, pd = sweeps[kind]
        law = pd_law(spec.p, sc.n_samples, sc.channel, sc.signal)
        if law is None:
            print(f"SKIP {kind}-pd-oracle: {sc.signal} frames differ in mean square")
            continue
        ref_name, pd_of = law
        sigmas = []
        for snr, pd_snr in zip(cfg["snr_db"], pd):
            for lam, rate in zip(grid.values, pd_snr):
                pd_ref = pd_of(snr, lam)
                sig = max(math.sqrt(pd_ref * (1 - pd_ref) / trials), 1e-12)
                sigmas.append(abs(rate - pd_ref) / sig)
        check_sigmas(f"{kind}-pd-oracle", sigmas, f"pd - {ref_name}", f"({sc.signal} oracle)")

    if failures:
        print(f"FAILED checks: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


class _Command(NamedTuple):
    """One subcommand: its handler, help text and default P_FA targets."""

    run: Callable[[dict], int]
    help: str
    targets: tuple[float, ...]


_COMMANDS = {
    "roc": _Command(cmd_roc, "ROC sweep per SNR", DEFAULT_PFA_TARGETS),
    "pmd-table": _Command(cmd_pmd_table, "threshold-by-SNR P_MD table", DEFAULT_PFA_TARGETS),
    "compare": _Command(cmd_compare, "squaring vs cubing at matched P_FA", (0.01, 0.1)),
    "calibrate": _Command(cmd_calibrate, "print calibrated thresholds", (0.1,)),
    "validate": _Command(cmd_validate, "run the oracle validation suite", (0.01, 0.1, 0.5)),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    for s in _SETTINGS:
        if s.help is not None:
            switch = {"action": "store_const", "const": "true"} if s.parse is _parse_bool else {}
            common.add_argument("--" + s.name.replace("_", "-"), help=s.help, **switch)

    parser = argparse.ArgumentParser(
        prog="sensesim",
        description="Deterministic Monte Carlo simulator for energy-detection "
                    "spectrum sensing",
    )
    parser.add_argument("--version", action="version", version=f"sensesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=command.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command].run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Script entry of ``sensesim`` and ``python -m sensesim.cli``.

    Moves every object the imports made into the permanent generation,
    so neither the run's collections nor the one at interpreter exit
    walk them.  :func:`main` keeps no such process-wide effect, since
    tests and the benchmark tracer call it in-process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
