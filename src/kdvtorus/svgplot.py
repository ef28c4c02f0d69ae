"""Tiny deterministic SVG line plots.

Hand-rolled on purpose: runs depend only on numpy, outputs are stable byte
streams (fixed float formatting, fixed element order), and the plots are
simple enough — polylines, axes, ticks, legend — that a plotting library
would be all dependency and no benefit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["LineSeries", "render_line_plot", "write_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 72, 18, 42, 52  # margins: left, right, top, bottom
_MAX = sys.float_info.max


@dataclass(frozen=True)
class LineSeries:
    """One labeled polyline."""

    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series '{self.label}': {len(self.xs)} x values vs {len(self.ys)} y values"
            )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _axis(lo, hi, pix_lo, pix_hi, log):
    """One axis's value -> pixel map: log10 of each value, or on a linear axis its product
    with the power of two that brings the larger end into [0.5, 1).

    That product is exact for subnormal ends too, so each position is the plain ratio's, and
    a span past the largest double stays finite.
    """
    e = math.frexp(max(abs(lo), abs(hi)))[1]
    scale = math.log10 if log else lambda v: math.ldexp(v, -e)
    lo, hi = scale(lo), scale(hi)
    if hi == lo:
        return lambda value: 0.5 * (pix_lo + pix_hi)
    return lambda value: pix_lo + (scale(value) - lo) / (hi - lo) * (pix_hi - pix_lo)


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0**e for e in range(lo_e, hi_e + 1, step) if e <= sys.float_info.max_10_exp]
    raw = (0.5 * hi - 0.5 * lo) / 2.5  # (hi - lo) / 5 bit for bit, and finite past the max
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:  # hi == lo, or a span whose tick step underflows
        return [lo]
    step = next(mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag)
    return [i * step for i in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def _data_range(values, log: bool):
    finite = [v for v in values if math.isfinite(v) and (not log or v > 0.0)]
    if not finite:
        return (0.1, 1.0) if log else (0.0, 1.0)
    lo, hi = min(finite), max(finite)
    if lo == hi:
        pad = abs(lo) * 0.5 + (1.0 if lo == 0.0 else 0.0)
        lo, hi = (max(lo / 2.0, math.ulp(0.0)), hi * 2.0) if log else (lo - pad, hi + pad)
    elif not log:
        pad = 0.04 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    return max(lo, -_MAX), min(hi, _MAX)  # an end past the largest double stops there


def _num(v) -> str:
    """A pixel coordinate: floats at two decimals, integers as they are."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size: int, body: str, anchor: str | None = "middle", transform: str = "") -> str:
    align = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="{transform}"' if transform else ""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_num(x)}" y="{_num(y)}" font-size="{size}"{align} '
            f'font-family="sans-serif"{turn}>{body}</text>')


def render_line_plot(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render labeled polylines to an SVG string (fixed size, fixed fonts)."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")
    xlo, xhi = _data_range([x for s in series for x in s.xs], logx)
    ylo, yhi = _data_range([y for s in series for y in s.ys], logy)
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT  # SVG y grows downward
    px = _axis(xlo, xhi, x0, x1, logx)
    py = _axis(ylo, yhi, y0, y1, logy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # grid + ticks + tick labels
    for tx in _ticks(xlo, xhi, logx):
        if xlo <= tx <= xhi:
            gx = px(tx)
            parts += [_line(gx, y0, gx, y1, "#dddddd", 1), _text(gx, y0 + 18, 11, _fmt(tx))]
    for ty in _ticks(ylo, yhi, logy):
        if ylo <= ty <= yhi:
            gy = py(ty)
            parts += [_line(x0, gy, x1, gy, "#dddddd", 1),
                      _text(x0 - 6, gy + 4, 11, _fmt(ty), anchor="end")]
    # axes, then the polylines clipped to the axes box
    parts += [
        _line(x0, y0, x1, y0, "black", 1.5),
        _line(x0, y0, x0, y1, "black", 1.5),
        f'<clipPath id="box"><rect x="{x0}" y="{y1}" width="{x1 - x0}" '
        f'height="{y0 - y1}"/></clipPath>',
    ]
    legend = []
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(s.xs, s.ys)
               if math.isfinite(xv) and math.isfinite(yv)
               and not ((logx and xv <= 0.0) or (logy and yv <= 0.0))]
        if pts:
            parts.append(f'<polyline clip-path="url(#box)" fill="none" stroke="{color}" '
                         f'stroke-width="1.8" points="{" ".join(pts)}"/>')
        ly = _MT + 8 + 16 * i
        legend += [_line(x1 - 150, ly, x1 - 126, ly, color, 1.8),
                   _text(x1 - 120, ly + 4, 11, s.label, anchor=None)]
    parts += legend
    # labels
    mid_y = (y0 + y1) // 2
    if title:
        parts.append(_text(_WIDTH // 2, 24, 14, title))
    if xlabel:
        parts.append(_text((x0 + x1) // 2, _HEIGHT - 14, 12, xlabel))
    if ylabel:
        parts.append(_text(16, mid_y, 12, ylabel, transform=f"rotate(-90 16 {mid_y})"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path, series, **kwargs) -> None:
    """Render and write an SVG plot (newline-terminated, UTF-8)."""
    svg = render_line_plot(series, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
