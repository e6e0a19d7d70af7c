"""Minimal static SVG line charts for the CLI's figure artifacts.

Nothing interactive: axes, one polyline with a marker per point, tick
labels at the extremes, a title.  Output is deterministic for identical
inputs: each pixel coordinate is written as ``'%.2f' % v``.

Each coordinate is formatted once, into the polyline's ``x,y`` pairs;
the markers are that text with its separators replaced.  A chart of
fewer than ``FIXED_POINT_MIN_POINTS`` points formats its coordinates by
one ``%.2f`` template.  A larger chart uses an exact fixed-point kernel
on the float bits (:func:`_fixed_point_path`), which writes the same
text as ``%.2f`` for every double in [1, 1024), the range that holds
every finite coordinate :func:`_scale` can produce.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import number_text
from .errors import InputError

_W, _H = 640, 400
_MARGIN = 56
_MARKER_OPEN = '<circle cx="'
_MARKER_CLOSE = '" r="3" fill="#1f4e79"/>'

# Charts of at least FIXED_POINT_MIN_POINTS points take the fixed-point
# kernel.  Break-even, fastest of 200 runs of the polyline text alone (one
# Xeon core): the %.2f template 0.007 / 0.022 / 0.045 / 0.090 / 7.1 ms at
# 9 / 32 / 64 / 128 / 10,000 points, the kernel 0.033 / 0.037 / 0.040 /
# 0.045 / 1.7 ms.  The kernel costs about 30 us of numpy calls plus
# 0.17 us a point, the template 0.7 us a point, so they cross near 55
# points; the 60-component scree chart of a 60-column input stays on the
# template, within 5 us of the kernel either way.
FIXED_POINT_MIN_POINTS = 64

_U = np.uint64
_MANTISSA = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)


# Text of q hundredths as one little-endian word: the integer part q // 100
# right-aligned in bytes 0-3 with NUL for leading blanks, the point in
# byte 4, the two decimals q % 100 in bytes 5-6; byte 7 takes a separator.
_INTEGER_TEXT = np.frombuffer(
    b"".join([b"%4d\0\0\0\0" % k for k in range(1025)]).replace(b" ", b"\0"), dtype="<u8")
_FRACTION_TEXT = np.frombuffer(b"".join([b"\0\0\0\0.%02d\0" % k for k in range(100)]), dtype="<u8")
_SEPARATORS = np.frombuffer(b"\0\0\0\0\0\0\0,\0\0\0\0\0\0\0 ", dtype="<u8")


def _fixed_point_path(coords: np.ndarray) -> str:
    """``" ".join("%.2f,%.2f" ...)`` of ``coords`` (x0, y0, x1, y1, ...), each in [1, 1024).

    A double v in [1, 1024) is M * 2**-s exactly, with M its 53-bit
    significand and s = 1075 - its biased exponent, in 43..52.  The
    hundredths are q = (100 M) >> s (100 M < 2**60 fits a uint64) plus
    one when the remainder r is above half of 2**s, or equal to it with
    q odd: round half to even on the exact value, as ``%.2f`` does.  So
    q lies in [100, 102400] and is written from two digit tables.
    """
    bits = coords.view(np.uint64)
    shift = _U(1075) - (bits >> _U(52))
    scaled = ((bits & _MANTISSA) | _HIDDEN_BIT) * _U(100)
    q = scaled >> shift
    # r + (q & 1) > half  <=>  r > half, or r == half and q is odd
    q += (scaled - (q << shift) + (q & _U(1))) > (_U(1) << (shift - _U(1)))
    whole, hundredths = np.divmod(q, _U(100))
    words = _INTEGER_TEXT[whole] | _FRACTION_TEXT[hundredths]
    words.reshape(-1, 2)[:] |= _SEPARATORS
    text = words.astype("<u8", copy=False).tobytes().replace(b"\0", b"")
    return text[:-1].decode("ascii")


def _scale(values: np.ndarray, lo_px: int, hi_px: int, label: str) -> tuple:
    """Pixel coordinates of ``values`` on [lo_px, hi_px], and the value range.

    The range is taken as Python's ``min`` and ``max`` take it, the first
    of equal extremes, so a ``-0.0`` that comes first stays ``-0``.  The
    coordinates are finite exactly when ``span * (hi_px - lo_px)`` is:
    no ``v - vmin`` exceeds the span, and a value that is not finite
    makes the span inf or nan.
    """
    vmin = float(values[values.argmin()])
    vmax = float(values[values.argmax()])
    span = vmax - vmin
    if span == 0.0:
        # Degenerate axis: park everything mid-range.
        return np.full(len(values), (lo_px + hi_px) / 2.0), vmin, vmax
    if not math.isfinite(span * (hi_px - lo_px)):
        raise InputError(
            f"cannot chart {label} over [{vmin!r}, {vmax!r}]: "
            "its pixel coordinates are not finite"
        )
    return lo_px + (values - vmin) * (hi_px - lo_px) / span, vmin, vmax


def line_chart(x, y, title: str, x_label: str, y_label: str) -> str:
    """Render the points ``(x[i], y[i])`` as an SVG document string.

    Raises :class:`InputError` for no points, ``x`` and ``y`` of unequal
    length, or an axis whose pixel coordinates are not finite (a value
    that is not finite, or a range too wide to scale).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError(f"cannot chart {x.size} x values against {y.size} y values")
    if not len(x):
        raise InputError("cannot chart an empty point list")
    px, xmin, xmax = _scale(x, _MARGIN, _W - _MARGIN // 2, x_label)
    py, ymin, ymax = _scale(y, _H - _MARGIN, _MARGIN // 2, y_label)

    coords = np.empty(2 * len(px))
    coords[0::2], coords[1::2] = px, py
    if len(px) < FIXED_POINT_MIN_POINTS:
        path = " ".join(["%.2f,%.2f"] * len(px)) % tuple(coords.tolist())
    else:
        path = _fixed_point_path(coords)
    # The path holds digits, points, commas and spaces only: one marker per pair.
    markers = (_MARKER_OPEN + path.replace(" ", _MARKER_CLOSE + _MARKER_OPEN)
               .replace(",", '" cy="') + _MARKER_CLOSE)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">
<rect width="{_W}" height="{_H}" fill="white"/>
<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-family="sans-serif" font-size="15">{title}</text>
<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN // 2}" y2="{_H - _MARGIN}" stroke="black"/>
<line x1="{_MARGIN}" y1="{_MARGIN // 2}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>
<text x="{_W / 2:.0f}" y="{_H - 14}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>
<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>
<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{number_text(xmin)}</text>
<text x="{_W - _MARGIN // 2}" y="{_H - _MARGIN + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{number_text(xmax)}</text>
<text x="{_MARGIN - 6}" y="{_H - _MARGIN + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymin:g}</text>
<text x="{_MARGIN - 6}" y="{_MARGIN // 2 + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymax:g}</text>
<polyline points="{path}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>
{markers}
</svg>
"""
