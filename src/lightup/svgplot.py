"""Minimal deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so that chart bytes
are a pure function of the input data: the same CSVs always produce the
same SVG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f")

_MARGIN_LEFT = 56
_MARGIN_RIGHT = 110
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42
_PANEL_WIDTH = 520
_PANEL_HEIGHT = 340


@dataclass
class Series:
    name: str
    xs: list[float]
    ys: list[float]
    band_low: list[float]
    band_high: list[float]
    color: str | None = None


@dataclass
class Chart:
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    y_max: float | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi (render_chart widens an empty range first)."""
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _tick_label(v: float) -> str:
    if abs(v - round(v)) < 1e-9 and abs(v) < 1e7:
        return str(int(round(v)))
    return f"{v:.3g}"


def render_chart(chart: Chart, x0: int, y0: int) -> str:
    """SVG fragment for one chart panel with axes, grid, bands, and legend; the y axis starts at 0."""
    if not chart.series or any(len(s.xs) == 0 for s in chart.series):
        raise ValueError(f"chart {chart.title!r} has an empty series")
    width, height = _PANEL_WIDTH, _PANEL_HEIGHT
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM
    xs_all = [x for s in chart.series for x in s.xs]
    ys_all = [y for s in chart.series for y in (*s.ys, *s.band_low, *s.band_high)]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo = 0.0
    y_hi = chart.y_max if chart.y_max is not None else max(ys_all)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return x0 + _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return y0 + _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<rect x="{x0 + _MARGIN_LEFT}" y="{y0 + _MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{x0 + width // 2}" y="{y0 + 18}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{escape(chart.title)}</text>',
        f'<text x="{x0 + _MARGIN_LEFT + plot_w // 2}" y="{y0 + height - 8}" '
        f'text-anchor="middle" font-size="11" font-family="sans-serif">{escape(chart.x_label)}</text>',
        f'<text x="{x0 + 14}" y="{y0 + _MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif" '
        f'transform="rotate(-90 {x0 + 14} {y0 + _MARGIN_TOP + plot_h // 2})">{escape(chart.y_label)}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        gx = _fmt(px(tx))
        parts.append(f'<line x1="{gx}" y1="{_fmt(py(y_lo))}" x2="{gx}" y2="{_fmt(py(y_hi))}" '
                     f'stroke="#dddddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{gx}" y="{y0 + _MARGIN_TOP + plot_h + 14}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{_tick_label(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        gy = _fmt(py(ty))
        parts.append(f'<line x1="{_fmt(px(x_lo))}" y1="{gy}" x2="{_fmt(px(x_hi))}" y2="{gy}" '
                     f'stroke="#dddddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{x0 + _MARGIN_LEFT - 6}" y="{float(gy) + 3:.2f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_tick_label(ty)}</text>')

    for i, s in enumerate(chart.series):
        color = s.color or PALETTE[i % len(PALETTE)]
        upper = [f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.band_high)]
        lower = [f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(reversed(s.xs), reversed(s.band_low))]
        parts.append(f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
                     f'fill-opacity="0.15" stroke="none"/>')
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = y0 + _MARGIN_TOP + 12 + 16 * i
        lx = x0 + width - _MARGIN_RIGHT + 8
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{escape(s.name)}</text>')
    return "\n".join(parts)


def render_panels(charts: list[Chart], columns: int) -> str:
    """A complete SVG document laying the charts out in a row-major grid of panels."""
    if not charts:
        raise ValueError("no charts to render")
    rows = (len(charts) + columns - 1) // columns
    width = _PANEL_WIDTH * min(columns, len(charts))
    height = _PANEL_HEIGHT * rows
    body = []
    for i, chart in enumerate(charts):
        x0 = (i % columns) * _PANEL_WIDTH
        y0 = (i // columns) * _PANEL_HEIGHT
        body.append(render_chart(chart, x0, y0))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
