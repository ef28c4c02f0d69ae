"""Tiny deterministic SVG line plots.

Hand-rolled on purpose: runs depend only on numpy, outputs are stable byte
streams (fixed float formatting, fixed element order), and the plots are
simple enough — polylines, axes, ticks, legend — that a plotting library
would be all dependency and no benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LineSeries", "render_line_plot", "write_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 72, 18, 42, 52  # margins: left, right, top, bottom


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


def _transform(value, lo, hi, pix_lo, pix_hi, log):
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5 * (pix_lo + pix_hi)
    return pix_lo + (value - lo) / (hi - lo) * (pix_hi - pix_lo)


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    raw = (hi - lo) / 5.0
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:  # hi == lo, or a span whose tick step underflows
        return [lo]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _data_range(values, log: bool):
    finite = [v for v in values if math.isfinite(v) and (not log or v > 0.0)]
    if not finite:
        return (0.1, 1.0) if log else (0.0, 1.0)
    lo, hi = min(finite), max(finite)
    if lo == hi:
        pad = abs(lo) * 0.5 + (1.0 if lo == 0.0 else 0.0)
        return (lo / 2.0, hi * 2.0) if log else (lo - pad, hi + pad)
    if not log:
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad
    return lo, hi


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

    def px(v):
        return _transform(v, xlo, xhi, x0, x1, logx)

    def py(v):
        return _transform(v, ylo, yhi, y0, y1, logy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # grid + ticks + tick labels
    for tx in _ticks(xlo, xhi, logx):
        if not (xlo <= tx <= xhi):
            continue
        gx = px(tx)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{y0}" x2="{gx:.2f}" y2="{y1}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(ylo, yhi, logy):
        if not (ylo <= ty <= yhi):
            continue
        gy = py(ty)
        parts.append(
            f'<line x1="{x0}" y1="{gy:.2f}" x2="{x1}" y2="{gy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{gy + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{_fmt(ty)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1.5"/>'
    )
    # polylines (clip to the axes box)
    parts.append(
        f'<clipPath id="box"><rect x="{x0}" y="{y1}" width="{x1 - x0}" '
        f'height="{y0 - y1}"/></clipPath>'
    )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for xv, yv in zip(s.xs, s.ys):
            if not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            if (logx and xv <= 0.0) or (logy and yv <= 0.0):
                continue
            pts.append(f"{px(xv):.2f},{py(yv):.2f}")
        if pts:
            parts.append(
                f'<polyline clip-path="url(#box)" fill="none" stroke="{color}" '
                f'stroke-width="1.8" points="{" ".join(pts)}"/>'
            )
    # legend
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = _MT + 8 + 16 * i
        parts.append(
            f'<line x1="{x1 - 150}" y1="{ly}" x2="{x1 - 126}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{x1 - 120}" y="{ly + 4}" font-size="11" '
            f'font-family="sans-serif">{s.label}</text>'
        )
    # labels
    if title:
        parts.append(
            f'<text x="{(_WIDTH) // 2}" y="24" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 14}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(y0 + y1) // 2}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) // 2})">'
            f"{ylabel}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path, series, **kwargs) -> None:
    """Render and write an SVG plot (newline-terminated, UTF-8)."""
    svg = render_line_plot(series, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
