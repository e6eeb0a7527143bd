"""Command-line front end: experiment configs in, CSVs and SVG plots out.

Commands
--------
roc        ROC sweep per SNR; CSV (lambda, pfa, stderr_pfa, pd, stderr_pd)
pmd-table  threshold-grid x SNR missed-detection table with bundled
           reference tables embedded side by side
compare    squaring-vs-cubing comparison at matched false-alarm targets
calibrate  print calibrated thresholds for the requested targets
validate   run the Monte-Carlo-vs-analytic oracle suite; exit 0 iff green

Configuration comes from an INI file plus flag overrides (flags win over
the file; the SENSESIM_SEED environment variable sits below both; built-in
defaults last).  Every output file starts with ``# key=value`` comment
lines echoing the tool version, seed, and full parameter set, so a run
can be reproduced from its artifact alone.  Floats are written with
``repr``, the shortest exact representation, so parsing a results CSV
recovers the in-memory values bit for bit.  Worker count is deliberately
not echoed: it cannot affect values, and byte-identical output across
parallelism levels is part of the determinism contract.

Exit codes: 0 success, 1 validation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import fields
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__, reference
from .analytic import (
    calibrate_threshold,
    chi2_sf,
    noncentral_chi2_sf,
    pd_awgn_analytic,
    pd_rayleigh_analytic,
    pfa_analytic,
)
from .detector import DetectorSpec
from .metrics import ConfusionCounts, rates_from_counts
from .montecarlo import (
    DEFAULT_PFA_TARGETS,
    Scenario,
    ThresholdGrid,
    compare_detectors,
    estimate_pfa,
    estimate_pmd,
    grid_from_pfa_targets,
    pmd_table,
    roc_sweep,
)
from .signal_channel import AWGN, RAYLEIGH, SIGNAL_MODELS, ChannelModel, snr_to_linear
from .svgplot import Series, line_plot

ENV_SEED = "SENSESIM_SEED"


class ConfigError(Exception):
    """Bad configuration: unknown key, unparsable value, missing file."""


class _Setting(NamedTuple):
    """One configurable setting: its INI home, parser, default and echo."""

    name: str  # key in the resolved config; also the flag's argparse dest
    section: str
    key: str
    parse: Callable[[str], Any]
    default: Any
    echo: bool  # written into result headers, in table order


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


def _run(name, parse, default, echo=True) -> _Setting:
    return _Setting(name, "run", name, parse, default, echo)


# The table's order is the result-header order.  A [signal] row other
# than ``kind`` names a model field and is echoed only for models that
# have it.  ``pfa_targets`` defaults per command.
_SETTINGS = (
    _run("seed", int, 0),
    _run("trials", int, 100_000),
    _run("samples", int, 10),
    _run("channel", str, AWGN),
    _run("noise_variance", float, 1.0),
    _run("detector_p", int, 2),
    _run("normalized", _parse_bool, True),
    _Setting("signal", "signal", "kind", str, "bpsk", True),
    _Setting("signal_power", "signal", "power", float, 1.0, True),
    _run("snr_db", _parse_float_list, (-10.0, 0.0, 10.0)),
    _run("cal_trials", int, 100_000),
    _Setting("cycles_per_frame", "signal", "cycles_per_frame", float, 1.0, True),
    _run("pfa_targets", _parse_float_list, None),
    _run("out", str, ".", echo=False),
    _run("svg", _parse_bool, False, echo=False),
    _run("workers", int, 1, echo=False),
)
_BY_KEY = {(s.section, s.key): s for s in _SETTINGS}


def _parse(setting: _Setting, key: str, raw: str):
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
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
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed, 0)
        except ValueError as exc:
            raise ConfigError(f"bad {ENV_SEED} value {env_seed!r}") from exc
    if args.config is not None:
        cfg.update(_load_config_file(args.config))
    for setting in _SETTINGS:
        raw = getattr(args, setting.name, None)
        if raw is not None:
            cfg[setting.name] = _parse(setting, setting.name, raw)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if not 0 <= cfg["seed"] <= (1 << 64) - 1:
        raise ConfigError(f"seed must fit in 64 bits, got {cfg['seed']}")
    for key in ("trials", "samples", "workers", "cal_trials"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    if cfg["pfa_targets"] is not None:
        for t in cfg["pfa_targets"]:
            if not 0.0 < t < 1.0:
                raise ConfigError(f"pfa targets must lie in (0, 1), got {t}")
    if cfg["signal"] not in SIGNAL_MODELS:
        names = ", ".join(repr(name) for name in SIGNAL_MODELS)
        raise ConfigError(f"signal must be one of {names}, got {cfg['signal']!r}")


def _build_channel(cfg: dict) -> ChannelModel:
    return ChannelModel(cfg["channel"], cfg["noise_variance"])


def _build_signal(cfg: dict):
    model = SIGNAL_MODELS[cfg["signal"]]
    return model(**{f.name: cfg[_BY_KEY["signal", f.name].name] for f in fields(model)})


def _build_spec(cfg: dict) -> DetectorSpec:
    return DetectorSpec(p=cfg["detector_p"], normalized=cfg["normalized"])


def _scenario(cfg: dict, snr: float, channel: ChannelModel) -> Scenario:
    """The configured signal scenario at one SNR on ``channel``."""
    return Scenario(
        channel=channel, n_samples=cfg["samples"], trials=cfg["trials"],
        seed=cfg["seed"], signal=_build_signal(cfg), snr_db=snr,
    )


def _oracle_pd(sc: Scenario, lam: float) -> float | None:
    """Closed-form P_D of the normalized p=2 detector on signal scenario
    ``sc`` (run at SNR times the frame's mean square), or None when its
    frames do not share one mean square."""
    mean_square = sc.signal.mean_square(sc.n_samples)
    if mean_square is None:
        return None
    gamma = snr_to_linear(sc.snr_db) * mean_square
    # Looked up by module-global name at call time, so a wrapper bound
    # over either oracle in this module sees every call.
    if sc.channel.kind == AWGN:
        return pd_awgn_analytic(sc.n_samples, gamma, lam)
    return pd_rayleigh_analytic(sc.n_samples, gamma, lam)


def _write_svg(path: str, series, **labels) -> None:
    with open(path, "w") as handle:
        handle.write(line_plot(series, **labels))
    print(f"wrote {path}")


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt_value(item) for item in v)
    return str(v)


def _meta(cfg: dict, command: str, targets) -> dict:
    meta = {"tool": f"sensesim {__version__}", "command": command}
    values = {**cfg, "pfa_targets": targets}
    model_fields = {f.name for f in fields(SIGNAL_MODELS[cfg["signal"]])}
    for s in _SETTINGS:
        if s.echo and (s.section == "run" or s.key == "kind" or s.key in model_fields):
            meta[s.name] = _fmt_value(values[s.name])
    return meta


def _write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_value(v) for v in row])
    print(f"wrote {path}")


def read_result_csv(path: str) -> tuple[dict, list[dict]]:
    """Parse a results CSV back into (meta, rows); values stay strings."""
    meta: dict = {}
    rows: list[dict] = []
    with open(path, newline="") as handle:
        data_lines = []
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                data_lines.append(line)
        reader = csv.DictReader(data_lines)
        rows.extend(reader)
    return meta, rows


def _grid_for(cfg: dict, spec: DetectorSpec, targets) -> ThresholdGrid:
    channel = _build_channel(cfg)
    return grid_from_pfa_targets(
        targets, spec, cfg["samples"],
        channel=channel, cal_trials=cfg["cal_trials"], seed=cfg["seed"],
        workers=cfg["workers"],
    )


def _snr_tag(snr: float) -> str:
    return f"{snr:g}dB"


def cmd_roc(cfg: dict) -> int:
    spec = _build_spec(cfg)
    channel = _build_channel(cfg)
    targets = cfg["pfa_targets"] or DEFAULT_PFA_TARGETS
    grid = _grid_for(cfg, spec, targets)
    columns = [_scenario(cfg, snr, channel) for snr in cfg["snr_db"]]
    curves = roc_sweep(columns, spec, grid, workers=cfg["workers"])
    os.makedirs(cfg["out"], exist_ok=True)
    for sc, curve in zip(columns, curves):
        snr = sc.snr_db
        stem = f"roc_{cfg['channel']}_{_snr_tag(snr)}"
        path = os.path.join(cfg["out"], stem + ".csv")
        rows = [
            [lam, pt.pfa, pt.stderr_pfa, pt.pd, pt.stderr_pd]
            for lam, pt in curve.points
        ]
        meta = _meta(cfg, "roc", targets)
        meta["snr_db_this_file"] = _fmt_value(float(snr))
        _write_csv(path, meta, ["lambda", "pfa", "stderr_pfa", "pd", "stderr_pd"], rows)
        if cfg["svg"]:
            # log-x only while every empirical pfa is strictly positive;
            # short runs can hit 0 false alarms at the tightest thresholds
            use_logx = bool(np.all(curve.pfa > 0.0))
            series = [Series(curve.pfa, curve.pd, label="simulated")]
            if spec.p == 2 and spec.normalized:
                lams = list(curve.thresholds)
                ana_pd = [_oracle_pd(sc, lam) for lam in lams]
                if None not in ana_pd:
                    ana_pfa = [pfa_analytic(cfg["samples"], lam) for lam in lams]
                    series.append(Series(ana_pfa, ana_pd, label="analytic"))
            _write_svg(
                os.path.join(cfg["out"], stem + ".svg"), series,
                title=f"ROC, {cfg['channel']}, {snr:g} dB, p={spec.p}",
                xlabel="P_FA", ylabel="P_D", logx=use_logx,
            )
    return 0


def cmd_pmd_table(cfg: dict) -> int:
    spec = _build_spec(cfg)
    channel = _build_channel(cfg)
    targets = cfg["pfa_targets"] or DEFAULT_PFA_TARGETS
    grid = _grid_for(cfg, spec, targets)
    columns = [_scenario(cfg, snr, channel) for snr in sorted(set(cfg["snr_db"]))]
    table = pmd_table(columns, spec, grid, workers=cfg["workers"])
    os.makedirs(cfg["out"], exist_ok=True)
    stem = os.path.join(cfg["out"], f"pmd_table_p{spec.p}_{cfg['channel']}")
    path = stem + ".csv"

    header = ["threshold_index", "lambda"]
    for snr in table.snr_list_db:
        header += [f"pmd_{_snr_tag(snr)}", f"stderr_{_snr_tag(snr)}"]
    embed_reference = (
        len(grid.values) == reference.REFERENCE_ROWS
        and tuple(table.snr_list_db) == reference.REFERENCE_SNR_DB
    )
    meta = _meta(cfg, "pmd-table", targets)
    if embed_reference:
        for snr in reference.REFERENCE_SNR_DB:
            header.append(f"ref_squaring_{_snr_tag(snr)}")
        for snr in reference.REFERENCE_SNR_DB:
            header.append(f"ref_cubing_{_snr_tag(snr)}")
        meta["reference_tables"] = (
            "bundled squaring/cubing reference P_MD, trend comparison only"
        )
    else:
        meta["reference_tables"] = (
            "omitted: grid or SNR list does not match the 26x3 reference shape"
        )
    rows = []
    ref_sq = reference.conventional_array()
    ref_cu = reference.improved_array()
    for r, lam in enumerate(grid.values):
        row = [r + 1, lam]
        for c in range(len(table.snr_list_db)):
            row += [float(table.values[r, c]), float(table.stderr[r, c])]
        if embed_reference:
            row += [float(v) for v in ref_sq[r]]
            row += [float(v) for v in ref_cu[r]]
        rows.append(row)
    _write_csv(path, meta, header, rows)
    if cfg["svg"]:
        idx = list(range(1, len(grid.values) + 1))
        series = [
            Series(idx, table.values[:, c], label=f"{snr:g} dB")
            for c, snr in enumerate(table.snr_list_db)
        ]
        _write_svg(
            stem + ".svg", series,
            title=f"P_MD table, p={spec.p}, {cfg['channel']}",
            xlabel="threshold index", ylabel="P_MD",
        )
    return 0


def cmd_compare(cfg: dict) -> int:
    channel = _build_channel(cfg)
    targets = cfg["pfa_targets"] or (0.01, 0.1)
    os.makedirs(cfg["out"], exist_ok=True)
    for snr in cfg["snr_db"]:
        report = compare_detectors(
            _scenario(cfg, snr, channel), targets,
            cal_trials=cfg["cal_trials"], workers=cfg["workers"],
        )
        meta = _meta(cfg, "compare", targets)
        del meta["detector_p"], meta["normalized"]  # always normalized p=2 vs p=3
        meta["snr_db_this_file"] = _fmt_value(float(snr))
        # Matched-index headline from the bundled reference tables (row 1
        # at -10 dB); trend context only, not a target for these numbers.
        meta["reference_squaring_row1_-10dB"] = _fmt_value(reference.PMD_CONVENTIONAL[0][0])
        meta["reference_cubing_row1_-10dB"] = _fmt_value(reference.PMD_IMPROVED[0][0])
        for row in report.rows:
            meta[f"measured_sign_at_{_fmt_value(row.target_pfa)}"] = report.verdict(row)
        rows = [
            [
                row.target_pfa, row.lambda_a, row.lambda_b,
                row.pmd_a, row.pmd_b, row.delta, row.stderr_delta,
            ]
            for row in report.rows
        ]
        stem = os.path.join(cfg["out"], f"compare_{cfg['channel']}_{_snr_tag(snr)}")
        path = stem + ".csv"
        _write_csv(
            path, meta,
            ["target_pfa", "lambda_p2", "lambda_p3", "pmd_p2", "pmd_p3",
             "delta", "stderr_delta"],
            rows,
        )
        print(f"snr {snr:g} dB:")
        print(report.sign_summary())
        if cfg["svg"]:
            xs = [row.target_pfa for row in report.rows]
            series = [
                Series(xs, [row.pmd_a for row in report.rows], label="p=2"),
                Series(xs, [row.pmd_b for row in report.rows], label="p=3"),
            ]
            _write_svg(
                stem + ".svg", series,
                title=f"P_MD at matched P_FA, {cfg['channel']}, {snr:g} dB",
                xlabel="target P_FA", ylabel="P_MD", logx=True,
            )
    return 0


def cmd_calibrate(cfg: dict) -> int:
    spec = _build_spec(cfg)
    channel = _build_channel(cfg)
    targets = cfg["pfa_targets"] or (0.1,)
    for target in targets:
        cal = calibrate_threshold(
            spec, cfg["samples"], target,
            channel=channel, trials=cfg["cal_trials"], seed=cfg["seed"],
            workers=cfg["workers"],
        )
        extra = f" mc_trials={cal.mc_trials}" if cal.mc_trials else ""
        print(
            f"p={spec.p} n={cfg['samples']} target_pfa={target:g} "
            f"lambda={cal.threshold!r} achieved_pfa={cal.achieved_pfa!r} "
            f"method={cal.method.value}{extra}"
        )
    return 0


def cmd_validate(cfg: dict) -> int:
    channel = _build_channel(cfg)
    n = cfg["samples"]
    trials = cfg["trials"]
    seed = cfg["seed"]
    workers = cfg["workers"]
    spec = DetectorSpec(p=2, normalized=True)
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    lam_grid = np.linspace(0.0, 100.0, 101)
    err = max(abs(chi2_sf(2, float(lam)) - math.exp(-float(lam) / 2.0)) for lam in lam_grid)
    check("chi2-closed-form", err <= 1e-12, f"max |Q(1,l/2) - exp(-l/2)| = {err:.3e}")

    err = max(
        abs(noncentral_chi2_sf(nu, 0.0, float(lam)) - chi2_sf(nu, float(lam)))
        for nu in (1, 2, 10, 50)
        for lam in (0.0, 1.0, 5.0, 20.0, 80.0)
    )
    check("noncentral-degenerate", err <= 1e-12, f"max |ncx2(nu,0) - chi2(nu)| = {err:.3e}")

    worst = 0.0
    for nn in (2, 10, 50):
        for target in (0.01, 0.1, 0.5):
            cal = calibrate_threshold(DetectorSpec(p=2), nn, target)
            worst = max(worst, abs(pfa_analytic(nn, cal.threshold) - target))
    check("calibrate-roundtrip", worst <= 1e-9, f"max |achieved - target| = {worst:.3e}")

    sc_h0 = Scenario(channel=channel, n_samples=n, trials=trials, seed=seed)
    worst_sigmas = 0.0
    for target in (0.01, 0.1, 0.5):
        cal = calibrate_threshold(spec, n, target, channel=channel)
        point = estimate_pfa(sc_h0, spec, cal.threshold, workers=workers)
        sig = math.sqrt(target * (1 - target) / trials)
        worst_sigmas = max(worst_sigmas, abs(point.pfa - target) / sig)
    check("h0-false-alarm", worst_sigmas <= 3.0,
          f"worst |pfa - target| = {worst_sigmas:.2f} sigma")

    lam = calibrate_threshold(spec, n, 0.1).threshold
    for kind, ref_name in ((AWGN, "analytic"), (RAYLEIGH, "quadrature")):
        oracle_channel = ChannelModel(kind, cfg["noise_variance"])
        columns = [_scenario(cfg, snr, oracle_channel) for snr in cfg["snr_db"]]
        pd_refs = [_oracle_pd(sc, lam) for sc in columns]
        if None in pd_refs:
            print(f"SKIP {kind}-pd-oracle: {columns[0].signal} frames differ in mean square")
            continue
        worst_sigmas = 0.0
        for sc, pd_ref in zip(columns, pd_refs):
            point = estimate_pmd(sc, spec, lam, workers=workers)
            sig = max(math.sqrt(pd_ref * (1 - pd_ref) / trials), 1e-12)
            worst_sigmas = max(worst_sigmas, abs(point.pd - pd_ref) / sig)
        check(f"{kind}-pd-oracle", worst_sigmas <= 3.0,
              f"worst |pd - {ref_name}| = {worst_sigmas:.2f} sigma ({columns[0].signal} oracle)")

    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(1000):
        h0 = int(rng.integers(1, 10_000))
        h1 = int(rng.integers(1, 10_000))
        point = rates_from_counts(
            ConfusionCounts(h0, h1, int(rng.integers(0, h0 + 1)), int(rng.integers(0, h1 + 1)))
        )
        if point.pd + point.pmd != 1.0:
            bad += 1
    check("pd-pmd-identity", bad == 0, f"{bad} violations in 1000 fuzzed points")

    if failures:
        print(f"FAILED checks: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", metavar="U64", help="root seed (64-bit)")
    common.add_argument("--trials", metavar="N", help="Monte Carlo trials")
    common.add_argument("--samples", metavar="N", help="samples per frame")
    common.add_argument(
        "--snr-db", metavar="LIST",
        help="comma-separated SNRs in dB (use --snr-db=-10,0,10 for negatives)",
    )
    common.add_argument("--channel", choices=[AWGN, RAYLEIGH], help="channel model")
    common.add_argument("--detector-p", metavar="INT", help="detector exponent")
    common.add_argument(
        "--pfa-targets", metavar="LIST", help="comma-separated false-alarm targets in (0,1)"
    )
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--svg", action="store_const", const="true",
                        help="also write SVG plots")
    common.add_argument("--workers", metavar="N", help="worker threads (default 1)")

    parser = argparse.ArgumentParser(
        prog="sensesim",
        description="Deterministic Monte Carlo simulator for energy-detection "
                    "spectrum sensing",
    )
    parser.add_argument("--version", action="version", version=f"sensesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("roc", parents=[common], help="ROC sweep per SNR")
    sub.add_parser("pmd-table", parents=[common], help="threshold-by-SNR P_MD table")
    sub.add_parser("compare", parents=[common], help="squaring vs cubing at matched P_FA")
    sub.add_parser("calibrate", parents=[common], help="print calibrated thresholds")
    sub.add_parser("validate", parents=[common], help="run the oracle validation suite")
    return parser


_COMMANDS = {
    "roc": cmd_roc,
    "pmd-table": cmd_pmd_table,
    "compare": cmd_compare,
    "calibrate": cmd_calibrate,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
