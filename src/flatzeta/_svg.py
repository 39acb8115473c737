"""Minimal static SVG writer for convergence plots (paths + text only).

Plots are diagnostic output, never part of any pass/fail contract.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 24, 48
_YLABEL = "scaled Z"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def convergence_svg(xs: Sequence[float], ss: Sequence[float], target: Optional[float],
                    title: str) -> str:
    """Scatter+line plot of S_k against log10(X_k), with a target line unless
    target is None."""
    lx = [math.log10(x) for x in xs]
    ys = list(ss)
    y_all = ys + ([target] if target is not None else [])
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(y_all), max(y_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.08 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="16" text-anchor="middle" font-size="13" '
        f'font-family="monospace">{title}</text>',
    ]
    # axes
    parts.append(f'<path d="M {px(x_lo)} {py(y_lo)} L {px(x_hi)} {py(y_lo)}" '
                 'stroke="black" fill="none"/>')
    parts.append(f'<path d="M {px(x_lo)} {py(y_lo)} L {px(x_lo)} {py(y_hi)}" '
                 'stroke="black" fill="none"/>')
    # ticks
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="monospace">{_fmt(xv)}</text>')
        parts.append(f'<text x="{_ML - 6}" y="{py(yv):.1f}" text-anchor="end" '
                     f'font-size="10" font-family="monospace">{_fmt(yv)}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" font-size="11" '
                 f'font-family="monospace">log10 X</text>')
    parts.append(f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="11" '
                 f'font-family="monospace" transform="rotate(-90 14 {_H // 2})">{_YLABEL}</text>')
    if target is not None:
        parts.append(f'<path d="M {px(x_lo)} {py(target):.2f} L {px(x_hi)} {py(target):.2f}" '
                     'stroke="#c33" stroke-dasharray="6 3" fill="none"/>')
        parts.append(f'<text x="{px(x_hi) - 4:.1f}" y="{py(target) - 5:.1f}" text-anchor="end" '
                     f'font-size="10" font-family="monospace" fill="#c33">target</text>')
    pts = " ".join(f"{'M' if i == 0 else 'L'} {px(a):.2f} {py(b):.2f}"
                   for i, (a, b) in enumerate(zip(lx, ys)))
    parts.append(f'<path d="{pts}" stroke="#226" fill="none" stroke-width="1.5"/>')
    for a, b in zip(lx, ys):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="#226"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
