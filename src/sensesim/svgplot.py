"""Minimal SVG line plots, no plotting dependency.

Good enough for eyeballing sweep results next to their CSVs: a fixed
640x480 figure with a title, axis labels, linear or log-x axes, tick
labels, and any number of overlaid series, each named in the legend.
Output is a plain SVG string; writing it to disk is the caller's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48
_WIDTH, _HEIGHT = 640, 480


@dataclass(frozen=True)
class Series:
    x: Sequence[float]
    y: Sequence[float]
    label: str

    def __post_init__(self):
        if len(self.x) != len(self.y) or not len(self.x):
            raise ValueError("series needs equal-length, non-empty x and y")


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    ticks = [10.0**e for e in range(first, last + 1)]
    return [t for t in ticks if lo <= t <= hi] or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.3g}"


def line_plot(
    series: Sequence[Series],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
) -> str:
    """Render overlaid line series to an SVG document string."""
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    if logx and min(xs) <= 0:
        raise ValueError("log-x plots need strictly positive x values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    if x_hi == x_lo:  # one x: a decade each way on a log axis, which stays positive
        x_lo, x_hi = (x_lo / 10.0, x_hi * 10.0) if logx else (x_lo - 0.5, x_hi + 0.5)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        if logx:
            f = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + f * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>',
    ]

    x_ticks = _log_ticks(x_lo, x_hi) if logx else _ticks(x_lo, x_hi)
    for t in x_ticks:
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
    cx, cy = 16, _MARGIN_T + plot_h / 2
    parts += [
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">{_escape(xlabel)}</text>',
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(ylabel)}</text>',
    ]

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{ly}">{_escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
