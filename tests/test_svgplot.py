"""SVG point lists: render_plot's array mapping against the scalar px/py formula."""
import re

import numpy as np

from ramanpa import svgplot
from ramanpa.svgplot import BandArea, Markers, Series, render_plot

_ML, _MR, _MT, _MB, _W, _H = (svgplot._ML, svgplot._MR, svgplot._MT, svgplot._MB,
                              svgplot._W, svgplot._H)


def _scalar_points(x, y, x_lo, x_hi, y_lo, y_hi):
    """The per-point formula, one numpy scalar at a time."""
    return " ".join(
        f"{_ML + (a - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR):.2f},"
        f"{_H - _MB - (b - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB):.2f}"
        for a, b in zip(x, y))


def test_pixels_of_an_array_are_the_scalar_formula_bit_for_bit():
    """One array pass per axis gives each point's float of the scalar px/py
    formula, with the window ends on the frame edges."""
    rng = np.random.default_rng(7)
    lo, hi = -3.0e-3, 7.123456789
    v = np.concatenate([[lo, hi], rng.uniform(lo, hi, 5000), [lo - 1.0, hi + 1.0, np.nan]])
    px = svgplot._pixels(v, lo, hi, _ML, _W - _MR).tolist()
    py = svgplot._pixels(v, lo, hi, _H - _MB, _MT).tolist()
    want_x = [_ML + (a - lo) / (hi - lo) * (_W - _ML - _MR) for a in v]
    want_y = [_H - _MB - (a - lo) / (hi - lo) * (_H - _MT - _MB) for a in v]
    assert np.array_equal(px, want_x, equal_nan=True)
    assert np.array_equal(py, want_y, equal_nan=True)
    assert px[:2] == [_ML, _W - _MR] and py[:2] == [_H - _MB, _MT]


def test_series_map_to_the_scalar_formula_bytes():
    """Four 2001-point series (the mixture-sim plot's size), a band and error
    markers render the same bytes as the scalar px/py; the y window's ends,
    points outside it and a NaN included."""
    rng = np.random.default_rng(29)
    x = np.linspace(0.0, 10.0, 2001)
    ys = [np.cumsum(rng.normal(0.0, 10.0 ** k, x.size)) for k in (-3, 0, 2, 4)]
    y_lo, y_hi = -123.456789, 987.654321
    ys[1][:4] = [y_lo, y_hi, y_lo - 1e3, y_hi + 1e3]
    ys[2][7] = np.nan
    lower, upper = ys[1] - 0.5, ys[1] + 0.5
    mx, my, err = x[::200], ys[1][::200], np.abs(ys[0][::200])
    svg = render_plot("t", "x", "y", series=[Series(x, y) for y in ys],
                      bands=[BandArea(x, lower, upper)],
                      markers=[Markers(mx, my, yerr=err)], y_range=(y_lo, y_hi))
    x_lo, x_hi = svgplot._data_range([x, x, x, x, x, mx])

    def window(x, y):
        return _scalar_points(x, y, x_lo, x_hi, y_lo, y_hi)

    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert lines == [window(x, y) for y in ys]
    ring = re.findall(r'<polygon points="([^"]*)"', svg)
    assert ring == [window(x, upper) + " " + window(x[::-1], lower[::-1])]
    assert window([x_lo, x_hi], [y_lo, y_hi]) == f"{_ML:.2f},{_H - _MB:.2f} " \
        f"{_W - _MR:.2f},{_MT:.2f}"
    circles = " ".join(f"{a},{b}" for a, b in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"',
                                                          svg))
    assert circles == window(mx, my)
    bars = re.findall(r'<line x1="([^"]*)" y1="([^"]*)" x2="[^"]*" y2="([^"]*)" '
                      r'stroke="#222222"', svg)
    assert " ".join(f"{a},{lo}" for a, lo, _ in bars) == window(mx, my - err)
    assert " ".join(f"{a},{hi}" for a, _, hi in bars) == window(mx, my + err)
