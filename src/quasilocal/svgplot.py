"""Minimal deterministic SVG line plots: polylines, axes, tick labels.

No timestamps and no external plotting dependency; identical inputs give
byte-identical text.  An optional ``desc`` string (the resolved scenario
config) is embedded in a <desc> element for provenance.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities, ``&`` first: what xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _narrow(lo: float, hi: float) -> bool:
    """Whether the span [lo, hi] is not finite or only a few ulps wide."""
    span = hi - lo
    return not math.isfinite(span) or span <= 4.0 * math.ulp(max(abs(lo), abs(hi)))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round-valued ticks in [lo, hi], at most 12.

    A narrow range gets the single tick ``lo``: a step below half an ulp
    would not advance the loop.
    """
    if _narrow(lo, hi):
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    # a subnormal raw can underflow mag to zero: then the step is raw itself
    step = next((k * mag for k in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= k * mag), raw)
    ticks = []
    v = math.ceil(lo / step) * step
    while v - hi <= 1e-12 * step and len(ticks) < 12:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks or [lo]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """A narrow span widened symmetrically, so a flat series sits mid-axis."""
    if not _narrow(lo, hi):
        return lo, hi
    w = max(1.0, abs(lo), abs(hi))
    return lo - w, hi + w


def line_plot(
    x,
    ys,
    labels=None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    desc: str | None = None,
) -> str:
    """The SVG text of a line plot of one or more series sharing the x axis.

    ``ys`` is a sequence of arrays; ``logx`` plots log10 of x and annotates
    the label (callers pass positive x for a log scale).
    """
    xv = np.asarray(x, dtype=float)
    yv = [np.asarray(y, dtype=float) for y in ys]
    labels = list(labels) if labels else ["" for _ in yv]
    if logx:
        xv = np.log10(xv)
        xlabel = f"log10 {xlabel}" if xlabel else "log10 x"

    x_lo, x_hi = _widen(float(np.min(xv)), float(np.max(xv)))
    y_all = np.concatenate([v[np.isfinite(v)] for v in yv])
    y_lo, y_hi = _widen(float(np.min(y_all)), float(np.max(y_all)))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px = lambda v: _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda v: _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if desc:
        parts.append(f"<desc>{escape(desc)}</desc>")
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for v in _ticks(x_lo, x_hi):
        xpx = px(v)
        parts.append(
            f'<line x1="{xpx:.2f}" y1="{_H - _MB}" x2="{xpx:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xpx:.2f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{_fmt(v)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        ypx = py(v)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{ypx:.2f}" x2="{_ML}" y2="{ypx:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{ypx + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{_fmt(v)}</text>'
        )
    for i, v in enumerate(yv):
        pts = " ".join(
            f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, v) if math.isfinite(b)
        )
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if labels[i]:
            parts.append(
                f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * i}" font-size="11" '
                f'text-anchor="end" fill="{color}" font-family="monospace">'
                f"{escape(labels[i])}</text>"
            )
    if title:
        parts.append(
            f'<text x="{_W / 2:.0f}" y="{_MT - 14}" font-size="14" '
            f'text-anchor="middle" font-family="monospace">{escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 14}" font-size="12" '
            f'text-anchor="middle" font-family="monospace">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" font-size="12" '
            f'text-anchor="middle" font-family="monospace" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">{escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
