"""Minimal self-contained SVG line plots.

Deterministic text output: fixed canvas, fixed decimal formatting, no
timestamps or generated ids, so identical inputs yield identical bytes.
Supports polyline series, shaded min/max bands, and point markers; enough for
band structures, ratio sweeps, spectra, and loss time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "BandArea", "Markers", "render_plot", "write_svg"]

_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 72.0, 20.0, 36.0, 56.0  # margins around the data frame


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    color: str = "#3a6fb0"
    label: str = ""
    width: float = 1.6
    dashed: bool = False


@dataclass
class BandArea:
    x: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    color: str = "#3a6fb0"
    label: str = ""
    opacity: float = 0.25


@dataclass
class Markers:
    x: np.ndarray
    y: np.ndarray
    color: str = "#222222"
    label: str = ""
    radius: float = 3.0
    yerr: np.ndarray | None = field(default=None)


def escape(text: str) -> str:
    """Escape &, < and > for XML text, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite(vals):
    arr = np.asarray(vals, dtype=float).ravel()
    return arr[np.isfinite(arr)]


def _data_range(values, fallback=(0.0, 1.0)):
    merged = np.concatenate([_finite(v) for v in values]) if values else np.array([])
    if merged.size == 0:
        return fallback
    lo, hi = float(np.min(merged)), float(np.max(merged))
    if hi - lo < 1e-300:  # one value, or values closer than any tick step
        pad = 1.0 if abs(lo) < 1e-300 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi, target=6):
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def render_plot(title: str, x_label: str, y_label: str, series=(), bands=(),
                markers=(), x_range=None, y_range=None) -> str:
    """Render everything into one fixed-size SVG document string."""
    series = list(series)
    bands = list(bands)
    markers = list(markers)
    xs = [s.x for s in series] + [b.x for b in bands] + [m.x for m in markers]
    ys = [s.y for s in series] + [b.lower for b in bands] + [b.upper for b in bands] \
        + [m.y for m in markers]
    x_lo, x_hi = x_range if x_range is not None else _data_range(xs)
    y_lo, y_hi = y_range if y_range is not None else _data_range(ys)

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    def pts(x, y):
        return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect x="0" y="0" width="{_W:.0f}" height="{_H:.0f}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{escape(title)}</text>',
    ]

    # frame and ticks
    fx0, fx1 = _ML, _W - _MR
    fy0, fy1 = _MT, _H - _MB
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{fy1:.1f}" x2="{x:.2f}" y2="{fy1 + 5:.1f}" '
                   f'stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{fy1 + 19:.1f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{t:.6g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{fx0 - 5:.1f}" y1="{y:.2f}" x2="{fx0:.1f}" y2="{y:.2f}" '
                   f'stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{fx0 - 8:.1f}" y="{y + 4:.2f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{t:.6g}</text>')
    out.append(f'<text x="{(fx0 + fx1) / 2:.1f}" y="{_H - 14:.1f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle">{escape(x_label)}</text>')
    out.append(f'<text x="18" y="{(fy0 + fy1) / 2:.1f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 18 {(fy0 + fy1) / 2:.1f})">{escape(y_label)}</text>')

    for b in bands:
        ring = pts(b.x, b.upper) + " " + pts(b.x[::-1], np.asarray(b.lower)[::-1])
        out.append(f'<polygon points="{ring}" fill="{b.color}" '
                   f'fill-opacity="{b.opacity:g}" stroke="none"/>')
    for s in series:
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(f'<polyline points="{pts(s.x, s.y)}" fill="none" '
                   f'stroke="{s.color}" stroke-width="{s.width:g}"{dash}/>')
    for m in markers:
        if m.yerr is not None:
            for xv, yv, ev in zip(m.x, m.y, m.yerr):
                out.append(f'<line x1="{px(xv):.2f}" y1="{py(yv - ev):.2f}" '
                           f'x2="{px(xv):.2f}" y2="{py(yv + ev):.2f}" '
                           f'stroke="{m.color}" stroke-width="1"/>')
        for xv, yv in zip(m.x, m.y):
            out.append(f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="{m.radius:g}" '
                       f'fill="{m.color}"/>')

    # legend for labeled layers, stacked top-right inside the frame
    labeled = [(s.color, s.label) for s in series if s.label] \
        + [(b.color, b.label) for b in bands if b.label] \
        + [(m.color, m.label) for m in markers if m.label]
    for i, (color, label) in enumerate(labeled):
        y = fy0 + 14 + 16 * i
        out.append(f'<line x1="{fx1 - 150:.1f}" y1="{y:.1f}" x2="{fx1 - 128:.1f}" '
                   f'y2="{y:.1f}" stroke="{color}" stroke-width="3"/>')
        out.append(f'<text x="{fx1 - 122:.1f}" y="{y + 4:.1f}" font-family="sans-serif" '
                   f'font-size="11">{escape(label)}</text>')

    out.append(f'<rect x="{fx0:.1f}" y="{fy0:.1f}" width="{fx1 - fx0:.1f}" '
               f'height="{fy1 - fy0:.1f}" fill="none" stroke="#444444" stroke-width="1"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg_text)
