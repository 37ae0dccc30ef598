"""Minimal static SVG emission for sweep results.

Hand-rolled so output bytes are a pure function of the input records: no
timestamps, generator ids, or library version strings.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

__all__ = ["render_sweep_svg"]

WIDTH, HEIGHT = 900, 400
MARGIN = 55
PANEL_W = (WIDTH - 3 * MARGIN) // 2
PLOT_H = HEIGHT - 2 * MARGIN
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, s, size=12, anchor="middle", rotate=None):
    tr = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}"{tr}>{_esc(s)}</text>'
    )


def _axes(x0, y0, w, h, xlabel, ylabel, title):
    parts = [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        _text(x0 + w / 2, y0 + h + 35, xlabel),
        _text(x0 - 38, y0 + h / 2, ylabel, rotate=True),
        _text(x0 + w / 2, y0 - 12, title, size=14),
    ]
    return parts


def render_sweep_svg(records: list[dict]) -> str:
    """Standalone SVG: median target risk vs n per learner, plus selection bars."""
    good = [r for r in records if r.get("status") == "ok"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    left_x, top_y = MARGIN, MARGIN
    right_x = 2 * MARGIN + PANEL_W
    parts += _axes(left_x, top_y, PANEL_W, PLOT_H, "n (source sample size)", "median target risk", "risk vs n")
    parts += _axes(right_x, top_y, PANEL_W, PLOT_H, "chosen map index", "selection frequency", "map selection")

    if not good:
        parts.append(_text(WIDTH / 2, HEIGHT / 2, "no data", size=18))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    # Left panel: per-learner median risk across n.
    by_learner = defaultdict(lambda: defaultdict(list))
    for r in good:
        by_learner[r["learner"]][int(r["n"])].append(float(r["target_risk"]))
    ns = sorted({int(r["n"]) for r in good})
    n_lo, n_hi = min(ns), max(ns)
    span = max(1, n_hi - n_lo)

    def x_of(n):
        return left_x + (n - n_lo) / span * PANEL_W if n_hi > n_lo else left_x + PANEL_W / 2

    def y_of(risk):
        return top_y + PLOT_H * (1.0 - min(1.0, max(0.0, risk)))

    for n in ns:
        parts.append(_text(x_of(n), top_y + PLOT_H + 16, str(n), size=10))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(_text(left_x - 8, y_of(frac) + 4, _fmt(frac), size=10, anchor="end"))
        parts.append(_text(right_x - 8, top_y + PLOT_H * (1 - frac) + 4, _fmt(frac), size=10, anchor="end"))

    for li, learner in enumerate(sorted(by_learner)):
        color = PALETTE[li % len(PALETTE)]
        pts = [(n, median(v)) for n, v in sorted(by_learner[learner].items())]
        path = " ".join(f"{'M' if i == 0 else 'L'} {_fmt(x_of(n))} {_fmt(y_of(m))}" for i, (n, m) in enumerate(pts))
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for n, mval in pts:
            parts.append(f'<circle cx="{_fmt(x_of(n))}" cy="{_fmt(y_of(mval))}" r="3" fill="{color}"/>')
        parts.append(_text(left_x + 10, top_y + 16 + 14 * li, learner, size=11, anchor="start"))
        parts.append(
            f'<rect x="{_fmt(left_x + PANEL_W - 24)}" y="{_fmt(top_y + 8 + 14 * li)}" '
            f'width="16" height="6" fill="{color}"/>'
        )

    # Right panel: selection frequency per map index.
    freq = defaultdict(int)
    for r in good:
        freq[int(r["chosen_map"])] += 1
    total = sum(freq.values())
    map_ids = sorted(freq)
    bar_w = PANEL_W / max(1, len(map_ids)) * 0.6
    for bi, mi in enumerate(map_ids):
        frac = freq[mi] / total
        cx = right_x + PANEL_W * (bi + 0.5) / len(map_ids)
        bh = PLOT_H * frac
        parts.append(
            f'<rect x="{_fmt(cx - bar_w / 2)}" y="{_fmt(top_y + PLOT_H - bh)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(bh)}" fill="#1f77b4"/>'
        )
        parts.append(_text(cx, top_y + PLOT_H + 16, str(mi), size=10))
        parts.append(_text(cx, top_y + PLOT_H - bh - 4, _fmt(frac), size=10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
