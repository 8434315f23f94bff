"""Static SVG charts: the what-if bubble chart and the rank bar chart.

Rendering is a pure function of its input — no clocks, no randomness —
so identical inputs produce byte-identical documents. Coordinates are
written with two decimals; colors are fixed hex strings.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from anomex.aggregate import OTHERS_NAME, RankHistogram
from anomex.explainer import LocalExplanation

# Bubble color ramp endpoints: low quantile level -> blue, high -> green.
_LOW_COLOR = (31, 119, 180)
_HIGH_COLOR = (44, 160, 44)

# Segment colors for the rank bar chart, assigned per feature row.
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#dbdb8d", "#9edae5", "#ad494a",
)
_OTHERS_COLOR = "#999999"

# Chart layout in px: margins (left, right, top, bottom) and the rank bars' legend.
_WHATIF_MARGINS = (150, 30, 46, 42)
_BARS_MARGINS = (56, 20, 40, 46)
_LEGEND_W = 150


def _level_color(level: float) -> str:
    t = min(max(float(level), 0.0), 1.0)
    rgb = tuple(
        round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_COLOR, _HIGH_COLOR)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def whatif_top_k(top_k: int | None, d: int) -> int:
    """Rows of a what-if chart of d features (None: min(10, d)); ValueError outside [1, d]."""
    if top_k is None:
        return min(10, d)
    if not 1 <= top_k <= d:
        raise ValueError(f"top_k must be in [1, {d}], got {top_k}")
    return top_k


def _check_room(name: str, margins: int, px: int) -> None:
    """ValueError if a chart ``px`` wide or high leaves no room for its plot inside ``margins``."""
    if px <= margins:
        raise ValueError(f"{name} must exceed {margins} px, got {px}")


# ValueError if a chart this many px wide (or high) has no room for its plot.
check_whatif_width = partial(_check_room, "width", sum(_WHATIF_MARGINS[:2]))
check_rank_bars_width = partial(_check_room, "width", sum(_BARS_MARGINS[:2]) + _LEGEND_W)
check_rank_bars_height = partial(_check_room, "height", sum(_BARS_MARGINS[2:]))


def render_whatif(expl: LocalExplanation, top_k: int | None = None, width: int = 900) -> str:
    """What-if bubble chart of the ``top_k`` most important features.

    One row per feature, ranked top-down by decreasing importance
    (default: the ten most important, or all of them below ten). Small
    bubbles mark the swept scores, colored by the quantile level of the
    substituted value; the large bubble marks the point's own feature
    value and sits on the red dashed score line. The black solid line is
    the classification threshold.
    """
    top_k = whatif_top_k(top_k, expl.n_features)
    check_whatif_width(width)
    rows = expl.ranking[:top_k]

    row_height = 36
    margin_left, margin_right, margin_top, margin_bottom = _WHATIF_MARGINS
    height = margin_top + row_height * top_k + margin_bottom
    plot_w = width - margin_left - margin_right

    all_scores = np.concatenate([expl.sweep[list(rows)].ravel(), [expl.score, expl.threshold]])
    lo = float(all_scores.min())
    hi = float(all_scores.max())
    pad = (hi - lo) * 0.05 or 0.5
    lo -= pad
    hi += pad

    def sx(score: float) -> float:
        return margin_left + (score - lo) / (hi - lo) * plot_w

    out = _header(width, height)
    out.append(
        f'<text x="{margin_left}" y="20" font-family="sans-serif" font-size="13">'
        f"what-if sweep — score {_fmt(expl.score)} ({expl.classification.value}), "
        f"threshold {_fmt(expl.threshold)}</text>"
    )

    # x axis with a handful of ticks
    axis_y = margin_top + row_height * top_k
    out.append(
        f'<line x1="{_fmt(margin_left)}" y1="{axis_y}" '
        f'x2="{_fmt(margin_left + plot_w)}" y2="{axis_y}" stroke="#444444" stroke-width="1"/>'
    )
    for tick in np.linspace(lo, hi, 5):
        tx = sx(float(tick))
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{axis_y}" x2="{_fmt(tx)}" y2="{axis_y + 4}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{axis_y + 16}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{tick:.3g}</text>'
        )
    out.append(
        f'<text x="{_fmt(margin_left + plot_w / 2)}" y="{axis_y + 32}" '
        f'font-family="sans-serif" font-size="11" text-anchor="middle">anomaly score</text>'
    )

    # vertical reference lines: threshold (solid black), point score (dashed red)
    thr_x = sx(expl.threshold)
    score_x = sx(expl.score)
    out.append(
        f'<line class="threshold-line" x1="{_fmt(thr_x)}" y1="{margin_top - 8}" '
        f'x2="{_fmt(thr_x)}" y2="{axis_y}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line class="score-line" x1="{_fmt(score_x)}" y1="{margin_top - 8}" '
        f'x2="{_fmt(score_x)}" y2="{axis_y}" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="6,4"/>'
    )

    levels = expl.levels.tolist()
    for pos, j in enumerate(rows):
        cy = margin_top + row_height * (pos + 0.5)
        out.append(
            f'<text x="{margin_left - 8}" y="{_fmt(cy + 3.5)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_esc(expl.feature_names[j])}</text>'
        )
        for lv, sc in zip(levels, expl.sweep[j].tolist()):
            out.append(
                f'<circle class="pt" cx="{_fmt(sx(sc))}" cy="{_fmt(cy)}" r="4" '
                f'fill="{_level_color(lv)}" fill-opacity="0.75"/>'
            )
        out.append(
            f'<circle class="pt-x" cx="{_fmt(score_x)}" cy="{_fmt(cy)}" r="8" '
            f'fill="{_level_color(float(expl.point_levels[j]))}" '
            f'stroke="#000000" stroke-width="1"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_rank_bars(hist: RankHistogram, width: int = 760, height: int = 420) -> str:
    """Stacked bar chart of rank-position shares (one stack per position).

    Segment heights are percentages, so every stack reaches 100%; colors
    are consistent per feature across positions and ``others`` is drawn
    last in gray. A legend lists every feature row.
    """
    names = hist.feature_names
    matrix = hist.matrix
    n_feat, n_pos = matrix.shape

    check_rank_bars_width(width)
    check_rank_bars_height(height)
    margin_left, margin_right, margin_top, margin_bottom = _BARS_MARGINS
    plot_w = width - margin_left - margin_right - _LEGEND_W
    plot_h = height - margin_top - margin_bottom
    slot = plot_w / n_pos
    bar_w = slot * 0.62

    def color(j: int) -> str:
        if names[j] == OTHERS_NAME:
            return _OTHERS_COLOR
        return _PALETTE[j % len(_PALETTE)]

    out = _header(width, height)
    out.append(
        f'<text x="{margin_left}" y="22" font-family="sans-serif" font-size="13">'
        f"overall feature importance — {hist.n_anomalies} anomalies</text>"
    )

    # y axis: percent gridlines
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = margin_top + plot_h * (1 - frac)
        out.append(
            f'<line x1="{margin_left}" y1="{_fmt(y)}" x2="{margin_left + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_left - 6}" y="{_fmt(y + 3.5)}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{round(frac * 100)}%</text>'
        )

    for k in range(n_pos):
        x0 = margin_left + slot * k + (slot - bar_w) / 2
        y_cursor = margin_top + plot_h
        for j in range(n_feat):
            share = float(matrix[j, k])
            if share <= 0.0:
                continue
            seg_h = share * plot_h
            y_cursor -= seg_h
            out.append(
                f'<rect class="seg" x="{_fmt(x0)}" y="{_fmt(y_cursor)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(seg_h)}" fill="{color(j)}"/>'
            )
        out.append(
            f'<text x="{_fmt(x0 + bar_w / 2)}" y="{margin_top + plot_h + 16}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle">{k + 1}</text>'
        )
    out.append(
        f'<text x="{_fmt(margin_left + plot_w / 2)}" y="{height - 10}" '
        f'font-family="sans-serif" font-size="11" text-anchor="middle">rank position '
        f"(1 = most important)</text>"
    )

    lx = margin_left + plot_w + 24
    for j in range(n_feat):
        ly = margin_top + 16 * j
        out.append(
            f'<rect class="key" x="{lx}" y="{_fmt(ly)}" width="10" height="10" '
            f'fill="{color(j)}"/>'
        )
        out.append(
            f'<text x="{lx + 15}" y="{_fmt(ly + 9)}" font-family="sans-serif" '
            f'font-size="10">{_esc(names[j])}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
