"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines). The timing-sensitive criteria use medians over
repeats with warm-ups and generous margins, but still measure real wall
time, so expect several minutes for the full suite.
"""

import itertools
import math
import re
import time

import numpy as np
import pytest

from anomex.aggregate import merge_others, rank_histogram
from anomex.bench import background_sweep, linear_fit, time_explain, time_kernel_shap
from anomex.data import QuantileGrid, build_quantile_grid, fit_threshold
from anomex.detectors import IsolationForest
from anomex.explainer import Weights, explain
from anomex.shap_baseline import kernel_shap, sample_background, shap_ranking
from anomex.synth import SynthSpec, generate
from anomex.viz import render_rank_bars, render_whatif

from conftest import CountingScorer, make_dataset, random_scorer


def report(number, name, detail):
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: metric oracle
# ---------------------------------------------------------------------------


def test_criterion_01_metric_oracle():
    t0 = time.perf_counter()
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    grid = QuantileGrid(np.stack([levels, np.full(5, 0.4)]))
    expl = explain(lambda X: X[:, 0].copy(), np.array([0.9, 0.4]), grid, Weights(), 0.5)

    tol = 1e-12
    expected = {
        "delta": (1.0, 0.0),
        "ratio": (0.9, 0.0),
        "class_change": (1.0, 0.0),
        "change_distance": (0.6, 0.0),
    }
    for attr, (v0, v1) in expected.items():
        assert abs(getattr(expl.metrics[0], attr) - v0) <= tol, attr
        assert abs(getattr(expl.metrics[1], attr) - v1) <= tol, attr
    assert abs(expl.importance[0] - 0.90) <= tol
    assert abs(expl.importance[1] - 0.0) <= tol
    assert expl.ranking == (0, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "metric oracle", f"importance=(0.90, 0.0) exact, {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: boundedness fuzz
# ---------------------------------------------------------------------------


def test_criterion_02_boundedness_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(8, 40))
        data = make_dataset(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0))
        grid = build_quantile_grid(data, int(rng.integers(2, 12)))
        scorer = random_scorer(rng, d)
        tau = float(np.quantile(scorer(data.rows), rng.uniform(0.5, 0.98)))
        x = data.rows[int(rng.integers(n))] if rng.random() < 0.5 else rng.normal(size=d) * 2
        expl = explain(scorer, x, grid, Weights(), tau)
        for m in expl.metrics:
            assert 0.0 <= m.delta <= 1.0
            assert 0.0 <= m.ratio <= 1.0
            assert m.class_change in (0.0, 1.0)
            assert 0.0 <= m.change_distance <= 1.0
            if m.class_change == 0.0:
                assert m.change_distance == 0.0
        assert ((expl.importance >= 0.0) & (expl.importance <= 1.0)).all()
        checked += d
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, "boundedness fuzz", f"1000 explanations / {checked} feature metric sets, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: evaluation budget
# ---------------------------------------------------------------------------


def test_criterion_03_evaluation_budget():
    rng = np.random.default_rng(303)
    for _ in range(20):
        d = int(rng.integers(1, 13))
        k = int(rng.integers(2, 26))
        data = make_dataset(rng.normal(size=(25, d)))
        grid = build_quantile_grid(data, k)
        counter = CountingScorer(random_scorer(rng, d))
        explain(counter, data.rows[0], grid, Weights(), 0.0)
        assert counter.evaluations == d * k + 1, (d, k, counter.evaluations)
    report(3, "evaluation budget", "exactly d*K+1 scorer evaluations in 20 random (d, K) pairs")


# ---------------------------------------------------------------------------
# criteria 4 and 5 share the synthetic root-cause workload
# ---------------------------------------------------------------------------

ROOT = 3


@pytest.fixture(scope="module")
def root_cause_workload():
    data = generate(SynthSpec(n_normal=5000, n_anomalies=100, d=10,
                              root_feature=ROOT, shift=4.0, seed=11))
    detector = IsolationForest.fit(data, trees=100, subsample=256, seed=0)
    scores = detector.score(data.rows)
    tau = fit_threshold(scores, 0.02)
    grid = build_quantile_grid(data, 51)
    detected_true = [
        int(i) for i in np.nonzero((scores > tau) & (data.labels == 1))[0]
    ]
    assert len(detected_true) >= 10  # enough detections to aggregate over
    explanations = [
        explain(detector.score, data.rows[i], grid, Weights(), tau,
                feature_names=data.feature_names)
        for i in detected_true
    ]
    return data, detector, tau, grid, detected_true, explanations


def test_criterion_04_root_cause_recovery(root_cause_workload):
    t0 = time.perf_counter()
    data, detector, tau, grid, detected_true, explanations = root_cause_workload

    top2_hits = sum(ROOT in e.ranking[:2] for e in explanations)
    rate = top2_hits / len(explanations)
    assert rate >= 0.70

    hist = rank_histogram([e.ranking for e in explanations], data.feature_names, 10)
    leader = int(np.argmax(hist.matrix[:, 0]))
    assert leader == ROOT

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, "root-cause recovery",
           f"root top-2 in {rate:.0%} of {len(explanations)} detected anomalies, "
           f"H[root][1]={hist.matrix[ROOT, 0]:.2f} is the largest")


def test_criterion_05_methods_agree_on_top_feature(root_cause_workload):
    data, detector, tau, grid, detected_true, explanations = root_cause_workload

    background = sample_background(data, 0.05, seed=0)
    shap_rankings = []
    for i in detected_true:
        res = kernel_shap(detector.score, data.rows[i], background,
                          coalitions=2**10, seed=0)
        shap_rankings.append(shap_ranking(res.phi))

    ours = rank_histogram([e.ranking for e in explanations], data.feature_names, 10)
    theirs = rank_histogram(shap_rankings, data.feature_names, 10)
    top_ours = int(np.argmax(ours.matrix[:, 0]))
    top_theirs = int(np.argmax(theirs.matrix[:, 0]))
    assert top_ours == top_theirs
    report(5, "method agreement",
           f"both histograms put {data.feature_names[top_ours]} first "
           f"(ours {ours.matrix[top_ours, 0]:.2f}, kernelshap {theirs.matrix[top_theirs, 0]:.2f})")


# ---------------------------------------------------------------------------
# criterion 6: kernel shap exactness
# ---------------------------------------------------------------------------


def brute_shapley(scorer, x, bg_rows):
    d = len(x)

    def value(members):
        hybrid = bg_rows.copy()
        for j in members:
            hybrid[:, j] = x[j]
        return float(np.asarray(scorer(hybrid)).mean())

    phi = np.zeros(d)
    perms = list(itertools.permutations(range(d)))
    for perm in perms:
        members = []
        prev = value(members)
        for j in perm:
            members.append(j)
            cur = value(members)
            phi[j] += cur - prev
            prev = cur
    return phi / len(perms)


def test_criterion_06_kernelshap_exactness():
    rng = np.random.default_rng(606)
    worst = 0.0
    runs = 0
    for d in (2, 3, 4):
        bg_rows = rng.normal(size=(5, d))
        bg = make_dataset(bg_rows)
        x = rng.normal(size=d)
        scorers = [
            lambda X: X.sum(axis=1),
            lambda X: X[:, 0] * X[:, -1] - X[:, 0],
            lambda X: np.abs(X).max(axis=1),
            lambda X: np.exp(-(X**2).sum(axis=1)),
        ]
        for scorer in scorers:
            res = kernel_shap(scorer, x, bg, coalitions=2**d, seed=0)
            reference = brute_shapley(scorer, x, bg_rows)
            worst = max(worst, float(np.abs(res.phi - reference).max()))
            assert np.abs(res.phi - reference).max() <= 1e-6
            assert abs(res.base_value + res.phi.sum() - res.score) <= 1e-6
            runs += 1
    report(6, "kernelshap exactness",
           f"{runs} toy scorers, max |kernel - brute force| = {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: timing ordering on the large workload
# ---------------------------------------------------------------------------


def test_criterion_07_timing_ordering():
    t0 = time.perf_counter()
    data = generate(SynthSpec(n_normal=19800, n_anomalies=200, d=50,
                              root_feature=0, shift=4.0, seed=7))
    detector = IsolationForest.fit(data, trees=100, subsample=256, seed=7)
    scores = detector.score(data.rows)
    tau = fit_threshold(scores, 0.01)
    x = data.rows[int(np.argmax(scores))]
    grid = build_quantile_grid(data, 51)

    ours = time_explain(detector.score, x, grid, tau, data.n_rows, repeats=3)

    # head-to-head at 10% background with the default coalition budget
    bg10 = sample_background(data, 0.10, seed=7)
    theirs = time_kernel_shap(detector.score, x, bg10, data.n_rows, seed=7, repeats=3)
    speedup = theirs.seconds / ours.seconds
    assert speedup >= 5.0

    # ascending background sweep with a reduced coalition budget
    sweep = background_sweep(
        detector.score, x, data, (0.05, 0.10, 0.20, 0.50), 256, seed=7, repeats=3,
    )
    times = [r.seconds for r in sweep]
    sizes = [r.background_size for r in sweep]
    assert all(a < b for a, b in zip(times, times[1:]))
    slope, _, r2 = linear_fit(sizes, times)
    assert slope > 0
    assert r2 >= 0.9

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(7, "timing ordering",
           f"speedup x{speedup:.0f} at 10% background; sweep seconds "
           f"{['%.2f' % s for s in times]} strictly increasing, R2={r2:.3f}; "
           f"total {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 8: dimensionality law
# ---------------------------------------------------------------------------


@pytest.mark.timing
def test_criterion_08_dimensionality_law():
    rng = np.random.default_rng(808)
    n = 400

    def fixed_cost_scorer(X):
        # per-row cost independent of the number of features
        out = np.empty(len(X))
        for i in range(len(X)):
            acc = X[i, 0]
            for _ in range(300):
                acc = math.sin(acc + 1.0)
            out[i] = acc
        return out

    times = {}
    for d in (10, 20, 40):
        data = make_dataset(rng.normal(size=(n, d)))
        tau = fit_threshold(fixed_cost_scorer(data.rows), 0.05)
        times[d] = time_explain(fixed_cost_scorer, data.rows[0], build_quantile_grid(data, 51),
                                tau, n, repeats=5).seconds
    ratios = []
    for d1, d2 in ((10, 20), (20, 40), (10, 40)):
        observed = times[d2] / times[d1]
        expected = d2 / d1
        ratios.append((d1, d2, observed))
        assert abs(observed - expected) <= 0.35 * expected, (d1, d2, observed)
    report(8, "dimensionality law",
           "time ratios " + ", ".join(f"d{a}->d{b}: {r:.2f}" for a, b, r in ratios)
           + " within 35% of the d ratios")


# ---------------------------------------------------------------------------
# criterion 9: aggregation invariants
# ---------------------------------------------------------------------------


def test_criterion_09_aggregation_invariants():
    rng = np.random.default_rng(909)
    for run in range(50):
        d = int(rng.integers(2, 40))
        n = int(rng.integers(1, 120))
        positions = int(rng.integers(1, d + 1))
        rankings = [tuple(rng.permutation(d)) for _ in range(n)]
        hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(d)), positions)
        assert np.abs(hist.matrix.sum(axis=0) - 1.0).max() <= 1e-9
        merged = merge_others(hist, 0.05)
        assert np.abs(merged.matrix.sum(axis=0) - 1.0).max() <= 1e-9
    report(9, "aggregation invariants", "columns sum to 1 pre/post merge in 50 randomized runs")


# ---------------------------------------------------------------------------
# criterion 10: rendering determinism and geometry
# ---------------------------------------------------------------------------


def test_criterion_10_rendering_determinism():
    rng = np.random.default_rng(1010)
    data = make_dataset(rng.normal(size=(80, 12)))
    grid = build_quantile_grid(data, 21)
    scorer = lambda X: np.abs(X).sum(axis=1)
    tau = fit_threshold(scorer(data.rows), 0.1)
    expl = explain(scorer, data.rows[0], grid, Weights(), tau,
                   feature_names=data.feature_names)

    svg_a = render_whatif(expl)
    svg_b = render_whatif(expl)
    assert svg_a.encode() == svg_b.encode()

    line_x = re.search(r'class="score-line" x1="([0-9.]+)"', svg_a).group(1)
    bubbles = re.findall(r'class="pt-x" cx="([0-9.]+)"', svg_a)
    assert len(bubbles) == 10
    assert all(cx == line_x for cx in bubbles)

    rankings = [tuple(rng.permutation(12)) for _ in range(30)]
    hist = rank_histogram(rankings, data.feature_names, 6)
    bars_a = render_rank_bars(hist)
    bars_b = render_rank_bars(hist)
    assert bars_a.encode() == bars_b.encode()
    report(10, "rendering determinism",
           "byte-identical SVGs; all 10 large bubbles on the score line")
