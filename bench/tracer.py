"""Traced run of one sensesim CLI command, for the benchmark's per-layer metrics.

Usage (the harness in ``run.py`` launches this as a child process, with
``PYTHONPATH`` pointing at the checkout's ``src``)::

    python3 bench/tracer.py SUMMARY.json -- roc --channel rayleigh ... --out DIR

The tracer wraps the public functions of every sensesim module from the
outside, calls ``sensesim.cli.main(argv)`` in this process, restores the
original functions, and writes one JSON summary with a value for every
per-layer metric in :data:`METRICS`.  Nothing under ``src/`` changes.

Wrapping rules
--------------
* A function is replaced in its defining module *and* in every sensesim
  module that bound the same object at import (``montecarlo`` binds the
  ``rng`` draws and ``calibrate_threshold``; ``cli`` binds the oracles),
  found by identity, so no call path escapes.
* Each span wrapper records name, start, end, parent span and thread.
  Nested calls link to their parent through a per-thread stack
  (``normal_block`` calls ``uniform_block``; ``pd_rayleigh_analytic``
  calls ``pd_awgn_analytic``).  A span that starts on a helper thread with
  an empty stack is a child of the span the main thread has open, which
  is the engine call that handed out the block.
* Self time is a span's duration minus the union of the intervals its
  children cover, so blocks running on two threads under one engine span
  are not subtracted twice.
* The hottest oracle helpers (``gammaq``, about 5e6 calls on the overlay
  workload) get a wrapper that only counts.
* ``rng`` draws are tagged with the role component that ``fold_in`` folded
  into their keys (noise, signal or fading), because the engine's signal
  and fading code is private to ``montecarlo``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# name -> (unit, better); the per-layer metrics of BENCHMARK.json.
METRICS = {
    "rng.normal_block.self_s": ("s", "lower"),
    "rng.uniform_block.self_s": ("s", "lower"),
    "rng.fold.self_s": ("s", "lower"),
    "rng.normals": ("count", "lower"),
    "rng.uniforms": ("count", "lower"),
    "rng.keys_folded": ("count", "lower"),
    "rng.noise.s": ("s", "lower"),
    "rng.signal.s": ("s", "lower"),
    "rng.fading.s": ("s", "lower"),
    "rng.draw_reuse": ("ratio", "higher"),
    "detector.self_s": ("s", "lower"),
    "detector.samples_scored": ("count", "lower"),
    "detector.p2.ns_per_sample": ("ns", "lower"),
    "detector.p3.ns_per_sample": ("ns", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.frames": ("count", "lower"),
    "montecarlo.blocks": ("count", "lower"),
    "montecarlo.parallel_efficiency": ("ratio", "higher"),
    "analytic.calibrate.s": ("s", "lower"),
    "analytic.calibrate.self_s": ("s", "lower"),
    "analytic.calibrate.calls": ("count", "lower"),
    "analytic.calibration_frames": ("count", "lower"),
    "analytic.pd_rayleigh.s": ("s", "lower"),
    "analytic.pd_rayleigh.calls": ("count", "lower"),
    "analytic.noncentral.calls": ("count", "lower"),
    "analytic.gammaq.calls": ("count", "lower"),
    "analytic.pfa.calls": ("count", "lower"),
    "metrics.self_s": ("s", "lower"),
    "svgplot.self_s": ("s", "lower"),
    "svgplot.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_DRAWS = ("rng.normal_block", "rng.uniform_block")
_ENGINE = (
    "montecarlo.trial_statistics",
    "montecarlo.trial_statistics_pair",
    "montecarlo.calibration_h0_statistics",
)


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "info")


class Tracer:
    """Span recorder that patches sensesim functions and puts them back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, itertools.count] = {}
        self.normal_keys: list = []  # (keys, count) of every normal_block call
        self._patches: list = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._roles: dict[int, str] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _role_map(self) -> dict:
        roles = getattr(self._local, "pending_roles", None)
        if roles is None:
            roles = self._local.pending_roles = {}
        return roles

    def _span(self, fn, name, enter=None, leave=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span()
            span.name = name
            if stack:
                span.parent = stack[-1]
            else:
                main = tracer._main_stack
                span.parent = main[-1] if main and stack is not main else None
            span.thread = threading.get_ident()
            span.info = enter(span, *args, **kwargs) if enter else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if leave:
                leave(span, result)
            return result

        return wrapper

    def _count(self, fn, name):
        counter = self.counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper):
        """Swap ``original`` for ``wrapper`` wherever a sensesim module bound it."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "sensesim" and not name.startswith("sensesim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    # -- per-function hooks ----------------------------------------------

    def _fold_in_enter(self, span, keys, component):
        return {"keys": keys.size, "role": self._roles.get(component)}

    def _fold_in_leave(self, span, result):
        role = span.info["role"]
        if role is not None:
            self._role_map()[id(result)] = (role, result)

    def _draw_enter(self, span, keys, count, *rest, **kwargs):
        tagged = self._role_map().pop(id(keys), None)
        info = {"values": keys.size * count, "role": tagged[0] if tagged else None}
        if span.name == "rng.normal_block":
            self.normal_keys.append((keys, count))
        return info

    def _svg_leave(self, span, svg):
        span.info = {"bytes": len(svg.encode())}

    def install(self):
        """Wrap every measured function; call :meth:`restore` afterwards."""
        from sensesim import (  # noqa: F401  (cli imports every layer)
            analytic, cli, detector, metrics, montecarlo, rng, signal_channel, svgplot,
        )

        self._roles = {
            signal_channel.NOISE_ROLE: "noise",
            signal_channel.SIGNAL_ROLE: "signal",
            signal_channel.FADING_ROLE: "fading",
        }
        spans = [
            (cli, "main", None, None),
            (cli, "cmd_roc", None, None),
            (cli, "cmd_pmd_table", None, None),
            (cli, "cmd_compare", None, None),
            (cli, "cmd_calibrate", None, None),
            (cli, "cmd_validate", None, None),
            (rng, "fold_in", self._fold_in_enter, self._fold_in_leave),
            (rng, "fold_range", lambda s, key, idx: {"keys": len(idx)}, None),
            (rng, "uniform_block", self._draw_enter, None),
            (rng, "normal_block", self._draw_enter, None),
            (detector, "statistic_rows",
             lambda s, y, spec, sigma=1.0: {"samples": y.size, "p": spec.p}, None),
            (detector, "statistic", None, None),
            (detector, "decide", None, None),
            (montecarlo, "trial_statistics",
             lambda s, sc, spec, *, workers=1: {"frames": sc.trials, "workers": workers},
             None),
            (montecarlo, "trial_statistics_pair",
             lambda s, sc, a, b, *, workers=1: {"frames": sc.trials, "workers": workers},
             None),
            (montecarlo, "calibration_h0_statistics",
             lambda s, spec, n, trials, *, workers=1, **kw: {"frames": trials,
                                                             "workers": workers},
             None),
            (montecarlo, "_stats_block", None, None),
            (montecarlo, "count_detections", None, None),
            (montecarlo, "estimate_pfa", None, None),
            (montecarlo, "estimate_pmd", None, None),
            (montecarlo, "roc_sweep", None, None),
            (montecarlo, "pmd_table", None, None),
            (montecarlo, "compare_detectors", None, None),
            (montecarlo, "grid_from_pfa_targets", None, None),
            (montecarlo, "default_threshold_grid", None, None),
            (analytic, "calibrate_threshold", None, None),
            (analytic, "pd_rayleigh_analytic", None, None),
            (analytic, "pd_awgn_analytic", None, None),
            (metrics, "binomial_stderr", None, None),
            (metrics, "rates_from_counts", None, None),
            (metrics, "roc_assemble", None, None),
            (metrics, "roc_dominates", None, None),
            (svgplot, "line_plot", None, self._svg_leave),
        ]
        names = {"_stats_block": "block", "calibrate_threshold": "calibrate",
                 "pd_rayleigh_analytic": "pd_rayleigh", "pd_awgn_analytic": "pd_awgn"}
        for module, attr, enter, leave in spans:
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{names.get(attr, attr)}"
            fn = getattr(module, attr)
            self._replace(fn, self._span(fn, label, enter, leave))
        for attr, label in (("gammaq", "analytic.gammaq.calls"),
                            ("noncentral_chi2_sf", "analytic.noncentral.calls"),
                            ("pfa_analytic", "analytic.pfa.calls")):
            fn = getattr(analytic, attr)
            self._replace(fn, self._count(fn, label))

    def restore(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- summary ---------------------------------------------------------

    def summary(self, wall_s: float, out_dir: str) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        spans = self.spans
        selfs = _self_times(spans)
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total(names, self_time=False):
            return sum((selfs[id(s)] if self_time else s.end - s.start
                        for n in names for s in by_name.get(n, ())), 0.0)

        def layer_self(layer):
            return sum((selfs[id(s)] for s in spans if s.name.startswith(layer + ".")), 0.0)

        def info_sum(name, key):
            return sum(s.info[key] for s in by_name.get(name, ()))

        def under(span, name):
            p = span.parent
            while p is not None:
                if p.name == name:
                    return True
                p = p.parent
            return False

        role_s = {"noise": 0.0, "signal": 0.0, "fading": 0.0}
        for n in _DRAWS:
            for s in by_name.get(n, ()):
                outer = s.parent is None or s.parent.name not in _DRAWS
                if outer and s.info["role"] in role_s:
                    role_s[s.info["role"]] += s.end - s.start

        normals = info_sum("rng.normal_block", "values")
        stat = by_name.get("detector.statistic_rows", ())
        per_p = {}
        for p in (2, 3):
            hits = [s for s in stat if s.info["p"] == p]
            samples = sum(s.info["samples"] for s in hits)
            per_p[p] = (sum(s.end - s.start for s in hits) * 1e9 / samples) if samples else 0.0

        engine = [s for n in _ENGINE for s in by_name.get(n, ())]
        capacity = sum(s.info["workers"] * (s.end - s.start) for s in engine)
        busy = total(["montecarlo.block"])

        written = 0
        for dirpath, _, files in os.walk(out_dir):
            written += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)

        out = {
            "rng.normal_block.self_s": total(["rng.normal_block"], True),
            "rng.uniform_block.self_s": total(["rng.uniform_block"], True),
            "rng.fold.self_s": total(["rng.fold_in", "rng.fold_range"], True),
            "rng.normals": normals,
            "rng.uniforms": info_sum("rng.uniform_block", "values"),
            "rng.keys_folded": info_sum("rng.fold_in", "keys")
            + info_sum("rng.fold_range", "keys"),
            "rng.noise.s": role_s["noise"],
            "rng.signal.s": role_s["signal"],
            "rng.fading.s": role_s["fading"],
            "rng.draw_reuse": _distinct_normals(self.normal_keys) / normals if normals else 0.0,
            "detector.self_s": layer_self("detector"),
            "detector.samples_scored": sum(s.info["samples"] for s in stat),
            "detector.p2.ns_per_sample": per_p[2],
            "detector.p3.ns_per_sample": per_p[3],
            "montecarlo.self_s": layer_self("montecarlo"),
            "montecarlo.frames": sum(s.info["frames"] for s in engine),
            "montecarlo.blocks": len(by_name.get("montecarlo.block", ())),
            "montecarlo.parallel_efficiency": busy / capacity if capacity else 0.0,
            "analytic.calibrate.s": total(["analytic.calibrate"]),
            "analytic.calibrate.self_s": total(["analytic.calibrate"], True),
            "analytic.calibrate.calls": len(by_name.get("analytic.calibrate", ())),
            "analytic.calibration_frames": sum(
                s.info["frames"] for s in engine if under(s, "analytic.calibrate")
            ),
            "analytic.pd_rayleigh.s": total(["analytic.pd_rayleigh"]),
            "analytic.pd_rayleigh.calls": len(by_name.get("analytic.pd_rayleigh", ())),
            "metrics.self_s": layer_self("metrics"),
            "svgplot.self_s": layer_self("svgplot"),
            "svgplot.bytes": sum(s.info["bytes"] for s in by_name.get("svgplot.line_plot", ())),
            "cli.self_s": layer_self("cli"),
            "cli.bytes_written": written,
        }
        for name, counter in self.counters.items():
            out[name] = next(counter)
        shares = {
            "engine": (layer_self("rng") + layer_self("detector") + layer_self("montecarlo"))
            / wall_s,
            "analytic.calibrate": out["analytic.calibrate.s"] / wall_s,
            "analytic.pd_rayleigh": out["analytic.pd_rayleigh.s"] / wall_s,
        }
        return {"metrics": out, "shares": shares, "spans": len(spans)}


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, by id(span)."""
    kids: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(kids.get(id(s), ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[id(s)] = (s.end - s.start) - covered
    return out


def _distinct_normals(draws) -> int:
    """Distinct (key, counter) normals: per distinct key, the largest count drawn.

    ``normal_block`` always starts at counter 0, so a key's normals are
    counters 0 .. count-1.
    """
    import numpy as np

    if not draws:
        return 0
    keys = np.concatenate([k for k, _ in draws])
    counts = np.concatenate([np.full(k.size, c, dtype=np.int64) for k, c in draws])
    uniq, inverse = np.unique(keys, return_inverse=True)
    best = np.zeros(uniq.size, dtype=np.int64)
    np.maximum.at(best, inverse, counts)
    return int(best.sum())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <sensesim cli arguments>", file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[2:]
    from sensesim import cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.restore()
    post = time.perf_counter()
    out_dir = cli_argv[cli_argv.index("--out") + 1]
    summary = tracer.summary(main_s, out_dir)
    summary.update(rc=rc, main_s=main_s, post_s=time.perf_counter() - post)
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
