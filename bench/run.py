#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sensesim CLI.

Run from the root of a checkout (stdlib only; the program under test
needs numpy)::

    python3 bench/run.py --workload roc-sweep --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --seconds 36          # every workload in turn
    python3 bench/run.py --smoke               # tiny sizes, self-check
    python3 bench/run.py --record-golden       # rewrite bench/golden.json

``--trace 0`` launches the CLI as a fresh subprocess again and again for
``--seconds`` and reports the end-to-end metrics as medians over those
runs.  ``--trace 1`` runs it untraced for half the time, then once under
``bench/tracer.py``, and reports the per-layer metrics of that traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (quartiles, run counts, hashes, machine facts, seed).

Every run's CSV and SVG outputs are hashed and compared with the golden
hashes in ``bench/golden.json`` for that workload and seed; for a seed the
table lacks, the first run of the invocation is the reference.  Each
full-size invocation also runs the workload once at tiny size and the
smoke seed, whose hashes are always in the table.  A run that exits
non-zero, writes different bytes or fails the output sanity checks counts
as failed.  ``pmd-cubing`` is also run once at ``--workers 1``, which must
write the same bytes as ``--workers 2``.  Outputs go to
``bench/.work`` and are deleted afterwards.  See ``bench/README.md`` for
why each workload is here and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import METRICS as PER_LAYER  # bench/ is sys.path[0] when run as a script

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
GOLDEN_PATH = BENCH / "golden.json"

GOLDEN_SEEDS = range(32)  # seeds recorded in golden.json at full size
SMOKE_SEED = 7
RUN_LIMIT_S = 170.0      # children still running at this age of the run are killed

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "ns_per_trial_sample": ("ns", "lower"),
}


@dataclass(frozen=True)
class Workload:
    """One CLI command line; the seed and output directory come per run."""

    command: str
    trials: int
    workers: int = 1
    extra: tuple[str, ...] = ()
    snr_db: tuple[float, ...] = (-10.0, 0.0, 10.0)
    samples: int = 10
    cal_trials: int | None = None  # set through an INI file when given

    def args(self, workers: int | None = None) -> list[str]:
        return [
            self.command, "--channel", "rayleigh", "--samples", str(self.samples),
            "--snr-db=" + ",".join(f"{s:g}" for s in self.snr_db),
            "--trials", str(self.trials), "--workers", str(workers or self.workers),
            *self.extra,
        ]

    def signature(self) -> str:
        """The workload's identity in golden.json: arguments and cal_trials."""
        return " ".join(self.args()) + f" cal_trials={self.cal_trials}"

    def trial_samples(self) -> int:
        """Trial-samples the outputs depend on, the unit of ns_per_trial_sample."""
        if self.command == "roc":
            return self.trials * self.samples * (1 + len(self.snr_db))
        return (self.cal_trials + self.trials * len(self.snr_db)) * self.samples


# (full size, tiny size for --smoke).  Sizes are chosen so one run takes
# 3-5 s on a 2-core machine and a 36-second run holds several.
WORKLOADS = {
    "roc-sweep": (
        Workload("roc", trials=500_000),
        Workload("roc", trials=2_000),
    ),
    "pmd-cubing": (
        Workload("pmd-table", trials=100_000, workers=2, extra=("--detector-p", "3"),
                 cal_trials=100_000),
        Workload("pmd-table", trials=2_000, workers=2,
                 extra=("--detector-p", "3", "--pfa-targets", "0.01,0.1"),
                 cal_trials=100_000),
    ),
    "roc-overlay": (
        Workload("roc", trials=10_000, extra=("--svg", "--pfa-targets", "0.001,0.01,0.1,0.5")),
        Workload("roc", trials=2_000, extra=("--svg", "--pfa-targets", "0.1"),
                 snr_db=(-10.0,)),
    ),
}
DETERMINISM_CHECK = {"pmd-cubing": 1}  # workload -> worker count that must match


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program, bad golden table)."""


@dataclass
class Run:
    """One CLI launch: exit code, wall and own rusage, output hashes."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    hashes: dict
    problems: list


class Runner:
    """Launches children with a clean environment inside ``bench/.work``."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.deadline = start + RUN_LIMIT_S
        self.ini = work / "run.ini"
        env = dict(os.environ)
        env.pop("SENSESIM_SEED", None)  # the seed comes only from the harness
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env
        self._serial = 0
        self._outs = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, object]:
        """Run a child to completion; wall time and the child's own rusage."""
        self._serial += 1
        err_path = self.work / f"stderr-{self._serial}.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-600:]
            print(f"child exited {proc.returncode}: {' '.join(argv[1:])}\n{tail}", file=sys.stderr)
        err_path.unlink()
        return proc.returncode, wall, usage

    def cli_argv(self, wl: Workload, seed: int, out: Path, workers=None) -> list[str]:
        argv = wl.args(workers) + ["--seed", str(seed), "--out", str(out)]
        if wl.cal_trials is not None:
            self.ini.write_text(f"[run]\ncal_trials = {wl.cal_trials}\n")
            argv += ["--config", str(self.ini)]
        return argv

    def run_cli(self, wl: Workload, seed: int, workers=None, tracer_summary=None) -> Run:
        self._outs += 1
        out = self.work / f"out-{self._outs}"
        cli = self.cli_argv(wl, seed, out, workers)
        if tracer_summary is None:
            argv = [sys.executable, "-m", "sensesim.cli", *cli]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(tracer_summary), "--", *cli]
        rc, wall, usage = self.spawn(argv)
        hashes = hash_dir(out) if out.is_dir() else {}
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            try:
                problems += check_outputs(wl, out)
            except (KeyError, ValueError, IndexError, UnicodeDecodeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return Run(rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   hashes, problems)

    def setup_s(self) -> float:
        """Wall time of one `--version` launch: interpreter start plus imports."""
        rc, wall, _ = self.spawn([sys.executable, "-m", "sensesim.cli", "--version"])
        if rc != 0:
            raise BenchError("`sensesim --version` failed")
        return wall


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another invocation still uses it
        pass


def hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir()) if p.is_file()
    }


def _read_csv(path: Path) -> tuple[dict, list[dict]]:
    meta, data = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            data.append(line)
    return meta, list(csv.DictReader(data))


def check_outputs(wl: Workload, out: Path) -> list[str]:
    """Sanity checks on the outputs that hold for every seed."""
    problems = []
    names = {p.name for p in out.iterdir()}
    tags = [f"{s:g}dB" for s in wl.snr_db]
    if wl.command == "roc":
        expected = {f"roc_rayleigh_{t}.csv" for t in tags}
        if "--svg" in wl.extra:
            expected |= {f"roc_rayleigh_{t}.svg" for t in tags}
    else:
        expected = {"pmd_table_p3_rayleigh.csv"}
    if names != expected:
        return [f"wrote {sorted(names)}, expected {sorted(expected)}"]
    for name in sorted(names):
        path = out / name
        if name.endswith(".svg"):
            text = path.read_text()
            if not text.startswith("<svg") or ">analytic<" not in text:
                problems.append(f"{name}: not an SVG with the analytic overlay")
            continue
        meta, rows = _read_csv(path)
        targets = [float(t) for t in meta["pfa_targets"].split(",")]
        trials = int(meta["trials"])
        if len(rows) != len(targets):
            problems.append(f"{name}: {len(rows)} rows for {len(targets)} targets")
            continue
        if wl.command == "roc":
            # Analytic thresholds: each pfa is a binomial estimate of its target.
            for row, t in zip(rows, targets):
                if abs(float(row["pfa"]) - t) > 5 * math.sqrt(t * (1 - t) / trials) + 1 / trials:
                    problems.append(f"{name}: pfa {row['pfa']} far from target {t}")
            pd = [float(r["pd"]) for r in rows]
            if any(b < a for a, b in zip(pd, pd[1:])):
                problems.append(f"{name}: pd not monotone along the curve")
        else:
            for t in tags:
                col = [float(r[f"pmd_{t}"]) for r in rows]
                if any(b > a for a, b in zip(col, col[1:])):
                    problems.append(f"{name}: pmd_{t} grows as the threshold falls")
            if len(targets) == 26 and f"ref_cubing_{tags[-1]}" not in rows[0]:
                problems.append(f"{name}: reference columns missing")
    return problems


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def golden_hashes(golden: dict, size: str, name: str, wl: Workload, seed: int):
    entry = golden.get(size, {}).get(name)
    if entry is None:
        return None
    if entry["signature"] != wl.signature():
        raise BenchError(f"bench/golden.json does not match workload {name} at {size} size; "
                         "re-record it with --record-golden")
    return entry["seeds"].get(str(seed))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def bench_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload for about ``seconds`` and return the result line's dict."""
    wl = WORKLOADS[name][1 if tiny else 0]
    size = "tiny" if tiny else "full"
    golden = load_golden()
    reference = golden_hashes(golden, size, name, wl, seed)
    # The tiny workload at the smoke seed always has golden hashes, so every
    # full-size run checks the program's bytes whatever seed it was given.
    canary = WORKLOADS[name][1]
    canary_ref = None if tiny else golden_hashes(golden, "tiny", name, canary, SMOKE_SEED)
    start = time.perf_counter()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, start)
        runner.setup_s()  # warm-up: writes the bytecode caches a fresh checkout lacks
        budget = seconds / 2 if trace else seconds
        loop_start = time.perf_counter()
        runs: list[Run] = []
        setups: list[float] = []
        while True:
            # One set-up launch per run, so set-up samples span the whole
            # measurement as the workload's runs do, not one burst of it.
            if not trace:
                setups.append(runner.setup_s())
            runs.append(runner.run_cli(wl, seed))
            typical = statistics.median(r.wall_s for r in runs)
            if time.perf_counter() - loop_start + typical > budget:
                break
        golden_source = "table" if reference is not None else "first-run"
        if reference is None:
            reference = next((r.hashes for r in runs if r.rc == 0), {})
        labelled = [("run", r, reference) for r in runs]  # (label, run, expected hashes)
        summary = None
        if trace:
            summary_path = work / "trace.json"
            traced = runner.run_cli(wl, seed, tracer_summary=summary_path)
            labelled.append(("traced run", traced, reference))
            if traced.rc == 0:
                summary = json.loads(summary_path.read_text())
        elif name in DETERMINISM_CHECK:
            workers = DETERMINISM_CHECK[name]
            labelled.append((f"--workers {workers} run",
                             runner.run_cli(wl, seed, workers=workers), reference))
        if canary_ref is not None:
            labelled.append(("tiny canary run", runner.run_cli(canary, SMOKE_SEED), canary_ref))
    finally:
        remove_work(work)

    for label, r, expected in labelled:
        if r.rc == 0 and r.hashes != expected:
            r.problems.append(f"{label}: output hashes differ from the golden hashes")
    failed = sum(1 for _, r, _ in labelled if r.problems)
    attempted = len(labelled)
    good = [r for r in runs if not r.problems] or runs

    detail = {
        "workload": name, "size": size, "trace": int(trace), "seconds": seconds,
        "machine": machine_facts(seed), "golden": golden_source, "hashes": reference,
        "failed_frac": failed / attempted,
        "problems": sorted({p for _, r, _ in labelled for p in r.problems}),
    }
    walls = [r.wall_s for r in good]
    if trace:
        wall = traced.wall_s - (summary["post_s"] if summary else 0.0)
        metrics = dict(summary["metrics"]) if summary else {}
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - statistics.median(walls)
        detail["untraced_wall_s"] = spread(walls)
        detail["shares_of_traced_main"] = summary["shares"] if summary else None
        table = PER_LAYER
        values = {k: metrics.get(k, 0.0) for k in table}
    else:
        table = END_TO_END
        per_run = {
            "wall_s": walls,
            "cpu_s": [r.cpu_s for r in good],
            "peak_rss_mb": [r.rss_mb for r in good],
            "ns_per_trial_sample": [w * 1e9 / wl.trial_samples() for w in walls],
        }
        per_run["setup_s"] = setups
        detail["spread"] = {k: spread(v) for k, v in per_run.items()}
        detail["trial_samples"] = wl.trial_samples()
        values = {k: statistics.median(per_run[k]) for k in table}
    result = {
        "correct": failed == 0 and (summary is not None or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in values.items()},
    }
    return {"detail": detail, "result": result}


def print_result(out: dict) -> None:
    detail, result = out["detail"], out["result"]
    print(f"{detail['workload']} ({detail['size']}) seed={detail['machine']['seed']} "
          f"trace={detail['trace']}: {result['attempted']} runs, {result['failed']} failed "
          f"(failed_frac {detail['failed_frac']:g}), golden={detail['golden']}")
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    spreads = detail.get("spread", {})
    for name, m in result["metrics"].items():
        line = f"  {name:32s} {m['value']:.6g} {m['unit']}"
        if name in spreads:
            s = spreads[name]
            line += f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)


def record_golden() -> int:
    """Rewrite bench/golden.json from the current program's outputs."""
    golden: dict = {"full": {}, "tiny": {}}
    for size, seeds in (("full", GOLDEN_SEEDS), ("tiny", [SMOKE_SEED])):
        for name, sizes in WORKLOADS.items():
            wl = sizes[1 if size == "tiny" else 0]
            entry = golden[size][name] = {"signature": wl.signature(), "seeds": {}}
            work = WORK / f"golden-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                runner = Runner(work, time.perf_counter() + 1e9)
                for seed in seeds:
                    run = runner.run_cli(wl, seed)
                    if run.problems:
                        print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                        return 1
                    entry["seeds"][str(seed)] = run.hashes
                    print(f"{size} {name} seed {seed}: {run.wall_s:.2f} s", flush=True)
            finally:
                remove_work(work)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def smoke() -> int:
    """Tiny-size self-check: names, units, golden hashes, repeatable counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(SMOKE_SEED),
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            tag = f"{name} trace={trace}"
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-800:]}")
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed"):
                problems.append(f"{tag}: not correct: {detail['problems']}")
            if detail["golden"] != "table":
                problems.append(f"{tag}: seed {SMOKE_SEED} has no golden hashes")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{tag}: metrics/units {units} != BENCHMARK.json")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{tag}: non-numeric metric value")
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            for key, m in traced[0].items():
                if m["unit"] in ("count", "bytes") or key == "rng.draw_reuse":
                    if m["value"] != traced[1][key]["value"]:
                        problems.append(f"{name}: count {key} differs between traced runs")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="run the tiny-size self-check")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from the current program")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sensesim" / "cli.py").is_file():
        print(f"error: no sensesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_golden:
        return record_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            print_result(bench_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.tiny))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
