import re

import numpy as np
import pytest

from anomex.aggregate import merge_others, rank_histogram
from anomex.data import QuantileGrid, build_quantile_grid
from anomex.explainer import Weights, explain
from anomex.viz import render_rank_bars, render_whatif

from conftest import make_dataset, random_scorer


def small_explanation(d=4, k=9, seed=0, tau_q=0.7):
    rng = np.random.default_rng(seed)
    data = make_dataset(rng.normal(size=(60, d)))
    grid = build_quantile_grid(data, k)
    scorer = random_scorer(rng, d)
    tau = float(np.quantile(scorer(data.rows), tau_q))
    return explain(scorer, data.rows[3], grid, Weights(), tau,
                   feature_names=data.feature_names)


def crossing_explanation():
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    grid = QuantileGrid(np.stack([levels, np.full(5, 0.4)]))
    return explain(lambda X: X[:, 0].copy(), np.array([0.9, 0.4]), grid, Weights(), 0.5)


# -- what-if chart ----------------------------------------------------------------


def test_whatif_deterministic_bytes():
    expl = small_explanation()
    assert render_whatif(expl) == render_whatif(expl)


def test_whatif_large_bubbles_sit_on_score_line():
    svg = render_whatif(small_explanation(d=6), top_k=6)
    line = re.search(r'class="score-line" x1="([0-9.]+)"', svg)
    assert line is not None
    bubbles = re.findall(r'class="pt-x" cx="([0-9.]+)"', svg)
    assert len(bubbles) == 6
    assert all(cx == line.group(1) for cx in bubbles)


def test_whatif_element_counts_match_input():
    expl = small_explanation(d=5, k=7)
    svg = render_whatif(expl, top_k=3)
    assert len(re.findall(r'class="pt"', svg)) == 3 * 7
    assert len(re.findall(r'class="pt-x"', svg)) == 3
    assert svg.count('class="score-line"') == 1
    assert svg.count('class="threshold-line"') == 1


def test_whatif_rows_ordered_by_importance():
    expl = small_explanation(d=5)
    svg = render_whatif(expl, top_k=5)
    labels = re.findall(r'text-anchor="end">([^<]+)</text>', svg)
    assert labels == [expl.feature_names[j] for j in expl.ranking[:5]]


def test_whatif_crossing_curve_puts_bubble_on_normal_side():
    # a curve that crosses the threshold leaves a small bubble left of it
    expl = crossing_explanation()
    svg = render_whatif(expl, top_k=2)
    thr_x = float(re.search(r'class="threshold-line" x1="([0-9.]+)"', svg).group(1))
    pts = [float(v) for v in re.findall(r'class="pt" cx="([0-9.]+)"', svg)]
    assert any(cx < thr_x for cx in pts)


def test_whatif_color_ramp_low_blue_high_green():
    expl = crossing_explanation()
    svg = render_whatif(expl, top_k=1)
    fills = re.findall(r'class="pt" cx="[0-9.]+" cy="[0-9.]+" r="4" fill="(#[0-9a-f]{6})"', svg)
    assert fills[0] == "#1f77b4"  # level 0
    assert fills[-1] == "#2ca02c"  # level 1


def test_whatif_top_k_bounds():
    expl = small_explanation(d=3)
    with pytest.raises(ValueError):
        render_whatif(expl, top_k=0)
    with pytest.raises(ValueError):
        render_whatif(expl, top_k=4)


def test_whatif_rejects_a_width_with_no_plot_area():
    expl = small_explanation()
    with pytest.raises(ValueError, match="width must exceed 180 px"):
        render_whatif(expl, width=180)
    assert render_whatif(expl, width=181).startswith("<?xml")


# -- rank bar chart ------------------------------------------------------------


def test_rank_bars_deterministic_bytes():
    hist = rank_histogram([(0, 1, 2), (1, 0, 2)], ("a", "b", "c"), 3)
    assert render_rank_bars(hist) == render_rank_bars(hist)


def test_rank_bars_stack_heights_total_100_percent():
    rng = np.random.default_rng(1)
    rankings = [tuple(rng.permutation(6)) for _ in range(25)]
    hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(6)), 4)
    svg = render_rank_bars(hist)
    heights = {}
    for m in re.finditer(r'class="seg" x="([0-9.]+)" y="[0-9.]+" width="[0-9.]+" height="([0-9.]+)"', svg):
        heights.setdefault(m.group(1), 0.0)
        heights[m.group(1)] += float(m.group(2))
    plot_heights = list(heights.values())
    assert len(plot_heights) == 4
    assert max(plot_heights) - min(plot_heights) <= 0.1  # equal within px rounding


def test_rank_bars_unanimous_single_segment_at_position_one():
    hist = rank_histogram([(0, 1), (0, 1)], ("a", "b"), 2)
    svg = render_rank_bars(hist)
    segs = re.findall(r'class="seg"', svg)
    assert len(segs) == 2  # one full-height segment per position


def test_rank_bars_segment_count_matches_positive_entries():
    rng = np.random.default_rng(2)
    rankings = [tuple(rng.permutation(5)) for _ in range(9)]
    hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(5)), 5)
    svg = render_rank_bars(hist)
    assert svg.count('class="seg"') == int((hist.matrix > 0).sum())
    assert svg.count('class="key"') == len(hist.feature_names)


def test_rank_bars_others_rendered_gray_and_last():
    rankings = [tuple(np.roll(np.arange(25), -i)) for i in range(25)]
    hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(25)), 3)
    merged = merge_others(hist, 0.05)
    assert merged.feature_names[-1] == "others"
    svg = render_rank_bars(merged)
    assert '#999999' in svg
    assert "others" in svg


def test_rank_bars_legend_lists_every_feature():
    hist = rank_histogram([(0, 1, 2)], ("alpha", "beta", "gamma"), 3)
    svg = render_rank_bars(hist)
    for name in ("alpha", "beta", "gamma"):
        assert f">{name}</text>" in svg


@pytest.mark.parametrize("width, height, message", [
    (226, 420, "width must exceed 226 px"),
    (760, 86, "height must exceed 86 px"),
    (100, 20, "width"),
])
def test_rank_bars_reject_a_size_with_no_plot_area(width, height, message):
    hist = rank_histogram([(0, 1, 2), (1, 0, 2)], ("a", "b", "c"), 3)
    with pytest.raises(ValueError, match=message):
        render_rank_bars(hist, width=width, height=height)
    assert "height=\"-" not in render_rank_bars(hist, width=227, height=87)
