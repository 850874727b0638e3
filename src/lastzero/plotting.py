"""Minimal deterministic SVG renderer for boundary plots.

Produces a self-contained SVG 1.1 document: time on the horizontal axis,
state on the vertical, one (b-, b+) curve pair per boundary set.  The
zero-drift pair is drawn dashed; every pair gets a legend entry.  Output is
a pure function of the input data (no timestamps, no library styling), so
figures regenerate byte-for-byte.
"""

from __future__ import annotations

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 24, 28, 46
_TITLE = "optimal stopping boundaries"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    raw = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    decimals = max(0, int(np.ceil(-np.log10(step))) + 1) if step > 0 else 1
    return np.round(raw, decimals)


def render_boundaries_svg(pairs, manifest_hash: str | None = None) -> str:
    """Render BoundaryPair-like objects (spec, grid, b_minus, b_plus) to SVG.

    Each element of ``pairs`` must expose .spec.mu, .spec.T, .grid,
    .b_minus, .b_plus.  Returns the SVG document as a string.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one boundary set to plot")
    t_max = max(p.spec.T for p in pairs)
    y_lo = min(float(np.min(p.b_minus)) for p in pairs)
    y_hi = max(float(np.max(p.b_plus)) for p in pairs)
    pad = 0.06 * max(y_hi - y_lo, 1e-9)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(t):
        return _ML + (_W - _ML - _MR) * (t / t_max)

    def sy(y):
        return _MT + (_H - _MT - _MB) * (y_hi - y) / (y_hi - y_lo)

    def poly(ts, ys):
        return " ".join(f"{sx(t):.2f},{sy(y):.2f}" for t, y in zip(ts, ys))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
    ]
    if manifest_hash is not None:
        out.append(f"<!-- manifest_hash={manifest_hash} -->")
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
               f'font-family="sans-serif" font-size="14">{_TITLE}</text>')

    # axes and ticks
    ax = (f'M {sx(0):.2f} {sy(y_lo):.2f} V {sy(y_hi):.2f} '
          f'M {sx(0):.2f} {sy(y_lo):.2f} H {sx(t_max):.2f}')
    out.append(f'<path d="{ax}" stroke="black" fill="none" '
               'stroke-width="1"/>')
    for t in _ticks(0.0, t_max):
        out.append(f'<line x1="{sx(t):.2f}" y1="{sy(y_lo):.2f}" '
                   f'x2="{sx(t):.2f}" y2="{sy(y_lo) + 5:.2f}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{sx(t):.2f}" y="{sy(y_lo) + 18:.2f}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for y in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{sx(0) - 5:.2f}" y1="{sy(y):.2f}" '
                   f'x2="{sx(0):.2f}" y2="{sy(y):.2f}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{sx(0) - 8:.2f}" y="{sy(y) + 4:.2f}" '
                   'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(y)}</text>')
    out.append(f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" '
               'font-family="sans-serif" font-size="12">t</text>')
    out.append(f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" '
               'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 {_H / 2:.0f})">x</text>')
    # zero level for reference
    out.append(f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" '
               f'x2="{sx(t_max):.2f}" y2="{sy(0):.2f}" stroke="#bbbbbb" '
               'stroke-width="0.7"/>')

    for i, p in enumerate(pairs):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if p.spec.mu == 0.0 else ""
        for side, b in (("b_plus", p.b_plus), ("b_minus", p.b_minus)):
            out.append(
                f'<polyline points="{poly(p.grid, b)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"{dash} '
                f'data-mu="{_fmt(p.spec.mu)}" data-side="{side}" '
                f'data-t-end="{_fmt(p.grid[-1])}" '
                f'data-b-end="{_fmt(b[-1])}"/>')
        ly = _MT + 18 + 18 * i
        out.append(f'<line x1="{_W - 150}" y1="{ly - 4}" x2="{_W - 122}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"'
                   f'{dash}/>')
        out.append(f'<text x="{_W - 116}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12" class="legend">mu = {_fmt(p.spec.mu)}'
                   '</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_boundaries_svg(pairs, path, manifest_hash=None) -> None:
    svg = render_boundaries_svg(pairs, manifest_hash=manifest_hash)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
