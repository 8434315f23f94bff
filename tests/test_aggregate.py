import numpy as np
import pytest

from anomex.aggregate import (
    RankHistogram,
    histogram_to_dict,
    merge_others,
    overall_importance,
    rank_histogram,
)
from anomex.data import build_quantile_grid, fit_threshold
from anomex.detectors import IsolationForest, Loda
from anomex.errors import DataError
from anomex.explainer import Weights, explain
from anomex.synth import SynthSpec, generate

from conftest import make_dataset


def test_unanimous_rankings():
    hist = rank_histogram([(0, 1), (0, 1)], ("f1", "f2"), 2)
    assert hist.matrix[0, 0] == 1.0
    assert hist.matrix[1, 1] == 1.0
    assert hist.matrix[0, 1] == 0.0


def test_symmetric_split():
    hist = rank_histogram([(0, 1), (1, 0)], ("f1", "f2"), 2)
    assert np.array_equal(hist.matrix, np.full((2, 2), 0.5))


def test_columns_sum_to_one_randomized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 30))
        n = int(rng.integers(1, 50))
        rankings = [tuple(rng.permutation(d)) for _ in range(n)]
        positions = int(rng.integers(1, d + 1))
        hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(d)), positions)
        assert np.abs(hist.matrix.sum(axis=0) - 1.0).max() <= 1e-9
        assert hist.n_anomalies == n


def test_each_anomaly_contributes_unit_mass_per_position():
    rankings = [(2, 0, 1), (1, 2, 0), (2, 1, 0)]
    hist = rank_histogram(rankings, ("a", "b", "c"), 3)
    counts = hist.matrix * hist.n_anomalies
    assert np.allclose(counts.sum(axis=0), len(rankings) * np.ones(3) / len(rankings) * 3)
    assert np.allclose(counts, np.round(counts))


def test_positions_clamped_to_dimension():
    hist = rank_histogram([(0, 1)], ("a", "b"), 10)
    assert hist.n_positions == 2


# -- overall importance -------------------------------------------------------


def test_overall_importance_errors_when_nothing_flagged():
    data = make_dataset(np.random.default_rng(0).normal(size=(30, 2)))
    with pytest.raises(DataError, match="no anomalies detected"):
        overall_importance(
            lambda X: np.zeros(len(X)), data, build_quantile_grid(data, 5),
            Weights(), threshold=1.0,
        )


@pytest.mark.parametrize("weights, top_positions, message", [
    (Weights(), 0, "top_positions must be >= 1, got 0"),
    ([1, 1, 1, 1], None, "weights must sum to 1"),
], ids=["top-positions", "weights"])
def test_overall_importance_checks_arguments_before_scoring(counting, weights, top_positions,
                                                            message):
    data = make_dataset(np.random.default_rng(0).normal(size=(30, 2)))
    scorer = counting(lambda X: X[:, 0].copy())
    below_every_score = float(data.rows[:, 0].min()) - 1.0
    with pytest.raises(ValueError, match=message):
        # every row is flagged, so checking late would score them all first
        overall_importance(scorer, data, build_quantile_grid(data, 5), weights,
                           below_every_score, top_positions)
    assert scorer.evaluations == 0


def test_overall_importance_explains_exactly_the_flagged_points():
    rng = np.random.default_rng(1)
    data = make_dataset(rng.normal(size=(60, 3)))
    scorer = lambda X: X[:, 0].copy()
    grid = build_quantile_grid(data, 7)
    tau = fit_threshold(scorer(data.rows), 0.25)
    hist = overall_importance(scorer, data, grid, Weights(), tau)
    expected = int((scorer(data.rows) > tau).sum())
    assert hist.n_anomalies == expected
    # the only influential feature dominates rank 1 for every anomaly
    assert hist.matrix[0, 0] == 1.0


def test_overall_importance_recovers_injected_root_feature():
    # end-to-end: the shifted feature holds the largest rank-1 share
    data = generate(SynthSpec(5000, 100, 10, 3, 4.0, seed=11))
    model = IsolationForest.fit(data, trees=300, subsample=256, seed=0)
    scores = model.score(data.rows)
    tau = fit_threshold(scores, 0.02)
    grid = build_quantile_grid(data, 51)
    hist = overall_importance(model.score, data, grid, Weights(), tau)
    top = int(np.argmax(hist.matrix[:, 0]))
    assert hist.feature_names[top] == "f3"
    # cross-check against per-anomaly explanations done independently
    from anomex.explainer import explain

    flagged = np.nonzero(scores > tau)[0]
    rank1 = [
        explain(model.score, data.rows[i], grid, Weights(), tau).ranking[0]
        for i in flagged
    ]
    assert hist.matrix[3, 0] == pytest.approx(rank1.count(3) / len(flagged))


def test_overall_importance_is_the_histogram_of_explain_rankings():
    # bit for bit
    data = generate(SynthSpec(600, 30, 5, 1, 4.0, seed=4))
    forest = IsolationForest.fit(data, trees=30, subsample=64, seed=0)
    loda = Loda.fit(data, projections=20, bins=10, seed=0)
    grid = build_quantile_grid(data, 9)
    weights = Weights(0.4, 0.2, 0.2, 0.2)
    scorers = (forest.score, loda.score, lambda X: forest.score(X))
    expected = []
    for scorer in scorers:
        scores = scorer(data.rows)
        tau = fit_threshold(scores, 0.05)
        rankings = [
            explain(scorer, data.rows[i], grid, weights, tau).ranking
            for i in np.nonzero(scores > tau)[0]
        ]
        expected.append((tau, rank_histogram(rankings, data.feature_names, 4)))

    for scorer, (tau, hist) in zip(scorers, expected):
        got = overall_importance(scorer, data, grid, [0.4, 0.2, 0.2, 0.2], tau, top_positions=4)
        assert histogram_to_dict(got) == histogram_to_dict(hist)
        assert got.matrix.tobytes() == hist.matrix.tobytes()


def test_overall_importance_runs_every_scorer_serially(monkeypatch):
    import os
    import threading

    def forbidden(self):
        raise AssertionError("overall_importance started a thread")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    data = generate(SynthSpec(600, 30, 5, 1, 4.0, seed=5))
    grid = build_quantile_grid(data, 9)
    forest = IsolationForest.fit(data, trees=30, subsample=64, seed=1)
    scores = forest.score(data.rows)
    tau = fit_threshold(scores, 0.05)
    got = overall_importance(forest.score, data, grid, Weights(), tau, top_positions=4)
    rankings = [
        explain(forest.score, data.rows[i], grid, Weights(), tau).ranking
        for i in np.nonzero(scores > tau)[0]
    ]
    expected = rank_histogram(rankings, data.feature_names, 4)
    assert got.matrix.tobytes() == expected.matrix.tobytes()

    loda = Loda.fit(data, projections=20, bins=10, seed=1)
    for scorer in (loda.score, lambda X: loda.score(X), lambda X: forest.score(X)):
        tau = fit_threshold(scorer(data.rows), 0.05)
        overall_importance(scorer, data, grid, Weights(), tau)


# -- merging ---------------------------------------------------------------------


def test_merge_noop_when_everything_visible():
    hist = rank_histogram([(0, 1), (1, 0)], ("a", "b"), 2)
    assert merge_others(hist, 0.05) is hist


def test_merge_many_small_features_into_others():
    d = 30
    rankings = [tuple(np.roll(np.arange(d), -i)) for i in range(d)]
    hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(d)), 5)
    # every share is 1/30 < 0.05: everything folds into one full-mass row
    merged = merge_others(hist, 0.05)
    assert merged.feature_names == ("others",)
    assert np.allclose(merged.matrix, 1.0)


def test_merge_preserves_column_sums_and_retained_rows():
    rng = np.random.default_rng(3)
    # features 10 and 11 always rank beyond the retained positions
    rankings = [tuple(rng.permutation(10)) + (10, 11) for _ in range(40)]
    hist = rank_histogram(rankings, tuple(f"f{j}" for j in range(12)), 6)
    merged = merge_others(hist, 0.05)
    assert np.abs(merged.matrix.sum(axis=0) - 1.0).max() <= 1e-9
    assert merged.feature_names[-1] == "others"
    assert "f10" not in merged.feature_names and "f11" not in merged.feature_names
    for j, name in enumerate(hist.feature_names):
        if name in merged.feature_names:
            k = merged.feature_names.index(name)
            assert np.array_equal(merged.matrix[k], hist.matrix[j])


def test_merge_rejects_bad_cutoff():
    hist = rank_histogram([(0, 1)], ("a", "b"), 2)
    for cutoff in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            merge_others(hist, cutoff)


def test_histogram_validates_columns():
    with pytest.raises(ValueError, match="sum to 1"):
        RankHistogram(("a", "b"), np.array([[0.5, 0.2], [0.4, 0.8]]), 5)


def test_histogram_document_shape():
    hist = rank_histogram([(1, 0), (0, 1)], ("a", "b"), 2)
    doc = histogram_to_dict(hist)
    assert doc["features"] == ["a", "b"]
    assert doc["positions"] == [1, 2]
    assert doc["n_anomalies"] == 2
    assert np.allclose(doc["matrix"], hist.matrix)
