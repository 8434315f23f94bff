import html
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomex.aggregate import merge_others, rank_histogram
from anomex.data import QuantileGrid, build_quantile_grid
from anomex.explainer import Weights, explain
from anomex.viz import render_rank_bars, render_whatif

from conftest import make_dataset, random_scorer


def small_explanation(d=4, k=9, seed=0, tau_q=0.7, names=None):
    rng = np.random.default_rng(seed)
    data = make_dataset(rng.normal(size=(60, d)), names)
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


def test_rank_bars_height_grows_with_the_legend_past_24_rows():
    # key j sits at y = 40 + 16j: up to 24 keys fit the least height of 420 px
    def svg_of(n_feat):
        hist = rank_histogram([tuple(range(n_feat))], tuple(f"f{j}" for j in range(n_feat)), 1)
        return render_rank_bars(hist)

    assert 'height="420" viewBox="0 0 760 420"' in svg_of(24)
    assert 'height="436" viewBox="0 0 760 436"' in svg_of(25)


# -- both charts ------------------------------------------------------------------

# the points of an element that must lie inside the view box, from its numeric attributes
_ANCHORS = {
    "rect": lambda a: [(a["x"], a["y"]), (a["x"] + a["width"], a["y"] + a["height"])],
    "circle": lambda a: [(a["cx"], a["cy"])],
    "line": lambda a: [(a["x1"], a["y1"]), (a["x2"], a["y2"])],
    "text": lambda a: [(a["x"], a["y"])],
}
# the share of a text's width left of its x, by its text-anchor
_LEFT_SHARE = {"start": 0.0, "middle": 0.5, "end": 1.0}


def text_extent(attrs, text):
    """(left, right) x of a text element, at 0.55 em per character."""
    anchor = re.search(r'text-anchor="(\w+)"', attrs)
    x = float(re.search(r' ?x="(-?[0-9.]+)"', attrs).group(1))
    font_px = float(re.search(r'font-size="([0-9.]+)"', attrs).group(1))
    width = 0.55 * font_px * len(html.unescape(text))
    left = x - _LEFT_SHARE[anchor.group(1) if anchor else "start"] * width
    return left, left + width


def assert_drawn_inside_view_box(svg):
    view = re.search(r'viewBox="0 0 ([0-9.]+) ([0-9.]+)"', svg)
    width, height = float(view.group(1)), float(view.group(2))
    for tag, attrs in re.findall(r"<(rect|circle|line|text) ([^>]*)>", svg):
        numbers = {k: float(v) for k, v in re.findall(r'([\w-]+)="(-?[0-9.]+)"', attrs)}
        for x, y in _ANCHORS[tag](numbers):
            assert 0 <= x <= width and 0 <= y <= height, (tag, attrs, width, height)
    for attrs, text in re.findall(r"<text ([^>]*)>([^<]*)</text>", svg):
        left, right = text_extent(attrs, text)
        assert 0 <= left and right <= width, (text, left, right, width)


_prefixes = st.sampled_from(["f", "feature_with_a_rather_long_name_for_a_chart_row", "x<&>y"])


def draw_names(data, d):
    return tuple(f"{data.draw(_prefixes)}{j}" for j in range(d))


LONG_NAME = "reactor_outlet_temperature_sensor_3"  # 35 characters


def test_a_35_character_name_stays_on_both_charts():
    names = ("f0", LONG_NAME, "f2")
    expl = small_explanation(d=3, names=names)
    assert_drawn_inside_view_box(render_whatif(expl, top_k=3))
    assert_drawn_inside_view_box(render_rank_bars(rank_histogram([(1, 0, 2)], names, 3)))


def test_names_of_up_to_23_characters_keep_the_least_widths():
    names = ("f0", "n" * 23, "f2")
    svg = render_whatif(small_explanation(d=3, names=names), top_k=3)
    assert 'width="900"' in svg and '<text x="142"' in svg
    svg = render_rank_bars(rank_histogram([(1, 0, 2)], names, 3))
    assert 'width="760"' in svg and '<text x="629"' in svg


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 60), data=st.data())
def test_rank_bars_draw_inside_the_view_box(d, data):
    names = draw_names(data, d)
    positions = data.draw(st.integers(1, d))
    perms = st.permutations(range(d)).map(tuple)
    rankings = data.draw(st.lists(perms, min_size=1, max_size=8))
    assert_drawn_inside_view_box(render_rank_bars(rank_histogram(rankings, names, positions)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 60), seed=st.integers(0, 2**16), data=st.data())
def test_whatif_draws_inside_the_view_box(d, seed, data):
    expl = small_explanation(d=d, seed=seed, names=draw_names(data, d))
    top_k = data.draw(st.integers(1, d))
    assert_drawn_inside_view_box(render_whatif(expl, top_k=top_k))
