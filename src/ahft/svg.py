"""Minimal static SVG line charts for the CLI's figure artifacts.

Nothing interactive: axes, one polyline, tick labels at the extremes,
a title.  Output is deterministic for identical inputs (coordinates are
formatted to fixed precision).
"""

from __future__ import annotations

from .errors import InputError

_W, _H = 640, 400
_MARGIN = 56


def _scale(values, lo_px, hi_px):
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    if span == 0.0:
        # Degenerate axis: park everything mid-range.
        return [(lo_px + hi_px) / 2.0 for _ in values], vmin, vmax
    return [lo_px + (v - vmin) * (hi_px - lo_px) / span for v in values], vmin, vmax


def line_chart(points, title: str, x_label: str, y_label: str) -> str:
    """Render ``points`` (sequence of (x, y)) as an SVG document string."""
    if not points:
        raise InputError("cannot chart an empty point list")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    px, xmin, xmax = _scale(xs, _MARGIN, _W - _MARGIN // 2)
    py, ymin, ymax = _scale(ys, _H - _MARGIN, _MARGIN // 2)

    # One template repeated per point, formatted in one call on x, y interleaved.
    coords = [0.0] * (2 * len(px))
    coords[0::2], coords[1::2] = px, py
    coords = tuple(coords)
    path = " ".join(["%.2f,%.2f"] * len(px)) % coords
    markers = '<circle cx="%.2f" cy="%.2f" r="3" fill="#1f4e79"/>' * len(px) % coords
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">
<rect width="{_W}" height="{_H}" fill="white"/>
<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-family="sans-serif" font-size="15">{title}</text>
<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN // 2}" y2="{_H - _MARGIN}" stroke="black"/>
<line x1="{_MARGIN}" y1="{_MARGIN // 2}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>
<text x="{_W / 2:.0f}" y="{_H - 14}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>
<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>
<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xmin:g}</text>
<text x="{_W - _MARGIN // 2}" y="{_H - _MARGIN + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xmax:g}</text>
<text x="{_MARGIN - 6}" y="{_H - _MARGIN + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymin:g}</text>
<text x="{_MARGIN - 6}" y="{_MARGIN // 2 + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymax:g}</text>
<polyline points="{path}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>
{markers}
</svg>
"""
