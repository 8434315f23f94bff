import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomex.aggregate import overall_importance
from anomex.data import Classification, QuantileGrid, build_quantile_grid, fit_threshold
from anomex.detectors import IsolationForest, Loda
from anomex.errors import DataError, NumericError
from anomex.explainer import Weights, explain, explanation_to_dict, validate_weights
from anomex.shap_baseline import kernel_shap

from conftest import CountingScorer, make_dataset, random_scorer


def identity_first_feature(X):
    return X[:, 0].copy()


def two_feature_grid(constant=0.4):
    """Feature 0: quantile values equal to the levels; feature 1: constant."""
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.stack([levels, np.full(5, constant)])
    return QuantileGrid(levels, values)


# -- weights -------------------------------------------------------------------


def test_default_weights_match_documented_values():
    w = Weights()
    assert (w.delta, w.class_change, w.change_distance, w.ratio) == (0.3, 0.3, 0.2, 0.2)


def test_validate_weights_accepts_uniform():
    w = validate_weights((0.25, 0.25, 0.25, 0.25))
    assert w.ratio == 0.25


def test_validate_weights_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        validate_weights((0.5, 0.5, 0.5, 0.5))


def test_validate_weights_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        validate_weights((-0.1, 0.5, 0.3, 0.3))


def test_validate_weights_rejects_wrong_arity():
    with pytest.raises(ValueError, match="4 weights"):
        validate_weights((1.0,))


# -- perturbation curves ----------------------------------------------------------


def test_curve_constant_scorer_is_flat():
    grid = two_feature_grid()
    expl = explain(lambda X: np.full(len(X), 3.0), np.array([0.1, 0.2]), grid, Weights(), 0.5)
    assert np.array_equal(expl.curves[0].scores, np.full(5, 3.0))


def test_curve_identity_scorer_echoes_quantiles():
    grid = two_feature_grid()
    expl = explain(identity_first_feature, np.array([0.9, 0.4]), grid, Weights(), 0.5)
    assert np.array_equal(expl.curves[0].scores, grid.values[0])


def test_curve_irrelevant_feature_is_flat_at_point_score():
    grid = two_feature_grid()
    expl = explain(identity_first_feature, np.array([0.9, 0.4]), grid, Weights(), 0.5)
    assert np.array_equal(expl.curves[1].scores, np.full(5, 0.9))


def test_curve_does_not_mutate_point():
    grid = two_feature_grid()
    x = np.array([0.9, 0.4])
    before = x.copy()
    explain(identity_first_feature, x, grid, Weights(), 0.5)
    assert np.array_equal(x, before)


def test_curve_reports_non_finite_scorer_with_context():
    grid = two_feature_grid()

    def broken(X):
        out = X[:, 0].copy()
        out[X[:, 0] >= 0.75] = np.nan
        return out

    with pytest.raises(NumericError, match="feature 0 at level 0.75"):
        explain(broken, np.array([0.1, 0.4]), grid, Weights(), 0.5)


def test_curve_budget_is_one_eval_per_level():
    grid = two_feature_grid()
    batches = []

    def scorer(X):
        batches.append(len(X))
        return identity_first_feature(X)

    explain(scorer, np.array([0.9, 0.4]), grid, Weights(), 0.5)
    assert batches == [1, grid.n_levels, grid.n_levels]


# -- metrics: the worked identity-scorer example -----------------------------------


def test_metrics_worked_identity_example():
    grid = two_feature_grid()
    x = np.array([0.9, 0.4])
    m = explain(identity_first_feature, x, grid, Weights(), 0.5).metrics[0]
    assert m.raw_delta == pytest.approx(1.0, abs=1e-12)
    assert m.ratio == pytest.approx(0.9, abs=1e-12)
    assert m.class_change == 1.0
    # flip levels {0, 0.25, 0.5}; nearest is 0.5 -> Q = 1 - 0.4
    assert m.change_distance == pytest.approx(0.6, abs=1e-12)
    assert m.delta == 1.0  # the largest span of the explanation


def test_metrics_flat_curve_degenerate():
    grid = two_feature_grid()
    expl = explain(lambda X: np.full(len(X), 0.9), np.array([0.9, 0.4]), grid, Weights(), 0.5)
    m = expl.metrics[0]
    assert (m.raw_delta, m.ratio, m.class_change, m.change_distance, m.delta) == (0, 0, 0, 0, 0)


def test_metrics_no_crossing_curve():
    # entirely above the threshold for an anomalous point: C = 0, Q = 0
    grid = two_feature_grid()
    expl = explain(lambda X: X[:, 0] + 10.0, np.array([0.9, 0.4]), grid, Weights(), 0.5)
    m = expl.metrics[0]
    assert m.class_change == 0.0
    assert m.change_distance == 0.0
    assert m.raw_delta == pytest.approx(1.0)


# -- the scorer contract -------------------------------------------------------------


BAD_OUTPUTS = {
    "short": lambda X: X[:-1, 0],
    "empty": lambda X: np.empty(0),
    "long": lambda X: np.append(X[:, 0], 0.0),
    "nan": lambda X: np.full(len(X), np.nan),
}


@pytest.mark.parametrize("output", BAD_OUTPUTS)
@pytest.mark.parametrize("entry", ["explain", "overall_importance", "kernel_shap"])
def test_every_scorer_output_is_checked(entry, output):
    data = make_dataset(np.random.default_rng(8).normal(size=(20, 3)))
    grid = build_quantile_grid(data, 5)
    scorer = BAD_OUTPUTS[output]
    with pytest.raises(NumericError, match="scorer returned"):
        if entry == "explain":
            explain(scorer, data.rows[0], grid, Weights(), 0.0)
        elif entry == "overall_importance":
            overall_importance(scorer, data, grid, Weights(), 0.0)
        else:
            kernel_shap(scorer, data.rows[0], data, coalitions=8)


# -- explain ------------------------------------------------------------------------


def test_explain_worked_identity_example_exact():
    grid = two_feature_grid()
    expl = explain(identity_first_feature, np.array([0.9, 0.4]), grid, Weights(), 0.5)
    m0, m1 = expl.metrics
    assert m0.delta == pytest.approx(1.0, abs=1e-12)
    assert m0.ratio == pytest.approx(0.9, abs=1e-12)
    assert m0.class_change == 1.0
    assert m0.change_distance == pytest.approx(0.6, abs=1e-12)
    assert expl.importance[0] == pytest.approx(0.90, abs=1e-12)
    assert (m1.delta, m1.ratio, m1.class_change, m1.change_distance) == (0, 0, 0, 0)
    assert expl.importance[1] == 0.0
    assert expl.ranking == (0, 1)
    assert expl.classification is Classification.ANOMALOUS
    assert expl.score == 0.9


def test_explain_constant_scorer_all_zero():
    grid = two_feature_grid()
    expl = explain(lambda X: np.full(len(X), 2.0), np.array([0.3, 0.4]), grid, Weights(), 0.5)
    assert np.array_equal(expl.importance, np.zeros(2))
    assert expl.ranking == (0, 1)  # tie-break by index


def test_explain_delta_only_weights_rank_by_raw_delta():
    rng = np.random.default_rng(1)
    data = make_dataset(rng.normal(size=(80, 5)))
    grid = build_quantile_grid(data, 9)
    scorer = random_scorer(rng, 5)
    tau = fit_threshold(scorer(data.rows), 0.2)
    x = data.rows[7]
    expl = explain(scorer, x, grid, Weights(1.0, 0.0, 0.0, 0.0), tau)
    raw = [m.raw_delta for m in expl.metrics]
    expected = tuple(sorted(range(5), key=lambda j: (-raw[j], j)))
    assert expl.ranking == expected


def test_explain_budget_exactly_dk_plus_one():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 20))
        data = make_dataset(rng.normal(size=(30, d)))
        grid = build_quantile_grid(data, k)
        scorer = CountingScorer(lambda X: X.sum(axis=1))
        explain(scorer, data.rows[0], grid, Weights(), 0.0)
        assert scorer.evaluations == d * k + 1


def test_explain_deterministic():
    rng = np.random.default_rng(3)
    data = make_dataset(rng.normal(size=(50, 4)))
    grid = build_quantile_grid(data, 11)
    scorer = random_scorer(rng, 4)
    a = explain(scorer, data.rows[3], grid, Weights(), 0.1)
    b = explain(scorer, data.rows[3], grid, Weights(), 0.1)
    assert a.importance.tobytes() == b.importance.tobytes()
    assert a.ranking == b.ranking
    assert all(
        ca.scores.tobytes() == cb.scores.tobytes() for ca, cb in zip(a.curves, b.curves)
    )


@pytest.fixture(scope="module")
def fitted_detectors():
    rng = np.random.default_rng(21)
    data = make_dataset(rng.normal(size=(300, 5)))
    return data, {
        "iforest": IsolationForest.fit(data, trees=25, subsample=64, seed=3),
        "loda": Loda.fit(data, projections=20, bins=10, seed=3),
    }


@pytest.mark.parametrize("kind", ["iforest", "loda"])
def test_bound_detector_score_explains_like_any_scorer(fitted_detectors, kind):
    data, models = fitted_detectors
    det = models[kind]
    grid = build_quantile_grid(data, 7)
    scores = det.score(data.rows)
    threshold = fit_threshold(scores, 0.1)
    for i in (0, int(np.argmax(scores)), 17):
        direct = explain(det.score, data.rows[i], grid, Weights(), threshold)
        wrapped = explain(lambda b: det.score(b), data.rows[i], grid, Weights(), threshold)
        assert json.dumps(explanation_to_dict(direct)) == json.dumps(explanation_to_dict(wrapped))
    counting = CountingScorer(det.score)
    explain(counting, data.rows[0], grid, Weights(), threshold)
    assert counting.evaluations == 5 * 7 + 1
    x = data.rows[0].copy()
    x[2] = np.nan
    with pytest.raises(DataError, match=r"row 1, column 'f2'"):
        explain(det.score, x, grid, Weights(), threshold)


def test_only_the_forests_own_score_takes_the_sweep(fitted_detectors, monkeypatch):
    data, models = fitted_detectors
    forest = models["iforest"]
    calls = []
    sweep = IsolationForest.score_sweep
    monkeypatch.setattr(
        IsolationForest, "score_sweep", lambda self, *a: calls.append(1) or sweep(self, *a)
    )
    grid = build_quantile_grid(data, 5)
    explain(forest.score, data.rows[0], grid, Weights(), 0.5)
    assert len(calls) == 1
    for wrapper in (lambda b: forest.score(b), CountingScorer(forest.score), models["loda"].score):
        explain(wrapper, data.rows[0], grid, Weights(), 0.5)
    assert len(calls) == 1


def test_each_detectors_own_score_takes_its_sweep(fitted_detectors, monkeypatch):
    data, models = fitted_detectors
    loda = models["loda"]
    calls = []
    sweep = Loda.score_sweep
    monkeypatch.setattr(Loda, "score_sweep", lambda self, *a: calls.append(1) or sweep(self, *a))
    grid = build_quantile_grid(data, 5)
    explain(loda.score, data.rows[0], grid, Weights(), 0.5)
    assert len(calls) == 1
    for other in (lambda b: loda.score(b), CountingScorer(loda.score), models["iforest"].score):
        explain(other, data.rows[0], grid, Weights(), 0.5)
    assert len(calls) == 1


def reference_explanation(scorer, x, grid, weights, threshold):
    """Per-feature metrics, as explain computed them one curve at a time."""
    s_x = float(scorer(x[None, :])[0])
    rows = []
    for j in range(grid.n_features):
        vals = grid.values[j]
        v = float(x[j])
        if v <= vals[0]:
            level = 0.0
        elif v >= vals[-1]:
            level = 1.0
        else:
            hi = int(np.searchsorted(vals, v, side="left"))
            lo = hi - 1
            level = float(grid.levels[hi]) if vals[hi] == v else float(
                grid.levels[lo]
                + (v - vals[lo]) / (vals[hi] - vals[lo]) * (grid.levels[hi] - grid.levels[lo])
            )
        batch = np.repeat(x[None, :], grid.n_levels, axis=0)
        batch[:, j] = vals
        scores = np.asarray(scorer(batch), dtype=np.float64)
        low, high = float(scores.min()), float(scores.max())
        raw = high - low
        ratio = min(max((s_x - low) / raw, 0.0), 1.0) if raw > 0.0 else 0.0
        flips = (scores > threshold) != (s_x > threshold)
        if flips.any():
            change, distance = 1.0, 1.0 - float(np.abs(grid.levels[flips] - level).min())
        else:
            change, distance = 0.0, 0.0
        rows.append((level, raw, ratio, change, distance))
    levels, raw, ratio, change, distance = map(np.asarray, zip(*rows))
    delta = raw / raw.max() if raw.max() > 0.0 else np.zeros(len(raw))
    importance = (
        weights.delta * delta + weights.class_change * change
        + weights.change_distance * distance + weights.ratio * ratio
    )
    ranking = tuple(sorted(range(len(raw)), key=lambda j: (-importance[j], j)))
    return levels, np.stack([raw, ratio, change, distance, delta], axis=1), importance, ranking


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_explain_matches_the_per_feature_reference(seed, coarse):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    rows = rng.normal(size=(int(rng.integers(5, 40)), d))
    if coarse:  # ties in the grid, flat curves and tied importances
        rows = np.round(rows)
    grid = build_quantile_grid(make_dataset(rows), int(rng.integers(2, 12)))
    scorer = random_scorer(rng, d)
    if coarse:
        scorer = (lambda f: lambda X: np.round(f(X)))(scorer)
    tau = float(np.quantile(scorer(rows), 0.8))
    x = np.where(rng.random(d) < 0.5, rows[0], rng.normal(scale=2, size=d))
    weights = Weights()
    expl = explain(scorer, x, grid, weights, tau)
    levels, metrics, importance, ranking = reference_explanation(scorer, x, grid, weights, tau)
    got = np.asarray([(m.raw_delta, m.ratio, m.class_change, m.change_distance, m.delta)
                      for m in expl.metrics])
    assert expl.point_levels.tobytes() == levels.tobytes()
    assert got.tobytes() == metrics.tobytes()
    assert expl.importance.tobytes() == importance.tobytes()
    assert expl.ranking == ranking


def test_explain_self_consistency_on_grid_point():
    # identity scorer, x's feature value on the grid: the curve hits s(x) exactly
    grid = two_feature_grid()
    x = np.array([0.75, 0.4])
    expl = explain(identity_first_feature, x, grid, Weights(), 0.5)
    k = int(np.argmin(np.abs(grid.levels - expl.point_levels[0])))
    assert expl.curves[0].scores[k] == expl.score


def test_explain_flip_soundness_direct_scan():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(1, 6))
        data = make_dataset(rng.normal(size=(40, d)))
        grid = build_quantile_grid(data, int(rng.integers(3, 12)))
        scorer = random_scorer(rng, d)
        tau = float(np.median(scorer(data.rows)))
        x = data.rows[int(rng.integers(40))]
        expl = explain(scorer, x, grid, Weights(), tau)
        point_anom = expl.score > tau
        for j in range(d):
            flips = [(s > tau) != point_anom for s in expl.curves[j].scores]
            assert expl.metrics[j].class_change == (1.0 if any(flips) else 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_explain_metrics_bounded(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    data = make_dataset(rng.normal(size=(int(rng.integers(10, 50)), d)))
    grid = build_quantile_grid(data, int(rng.integers(2, 12)))
    scorer = random_scorer(rng, d)
    tau = float(np.quantile(scorer(data.rows), 0.9))
    x = rng.normal(size=d)
    expl = explain(scorer, x, grid, Weights(), tau)
    for m in expl.metrics:
        assert 0.0 <= m.delta <= 1.0
        assert 0.0 <= m.ratio <= 1.0
        assert m.class_change in (0.0, 1.0)
        assert 0.0 <= m.change_distance <= 1.0
        if m.class_change == 0.0:
            assert m.change_distance == 0.0
    assert ((expl.importance >= 0) & (expl.importance <= 1)).all()
    assert sorted(expl.ranking) == list(range(d))
    ranked = expl.importance[list(expl.ranking)]
    assert (np.diff(ranked) <= 1e-15).all()


def test_explain_rejects_dimension_mismatch():
    grid = two_feature_grid()
    with pytest.raises(ValueError, match="features"):
        explain(identity_first_feature, np.zeros(3), grid, Weights(), 0.5)


# -- JSON document ---------------------------------------------------------------


def test_explanation_document_shape():
    grid = two_feature_grid()
    expl = explain(
        identity_first_feature, np.array([0.9, 0.4]), grid, Weights(), 0.5,
        feature_names=("temp", "pressure"),
    )
    doc = explanation_to_dict(expl, point_id=17)
    assert doc["method"] == "acme_ad"
    assert doc["point_id"] == 17
    assert doc["classification"] == "anomalous"
    assert doc["weights"] == {"D": 0.3, "C": 0.3, "Q": 0.2, "R": 0.2}
    assert [f["name"] for f in doc["features"]] == ["temp", "pressure"]
    first = doc["features"][0]
    assert len(first["curve"]) == grid.n_levels
    assert first["rank"] == 1
    assert set(first["metrics"]) == {"D", "R", "C", "Q", "raw_delta"}
    assert doc["features"][1]["rank"] == 2
    import json

    json.dumps(doc)  # must be serializable as-is
