import itertools
import logging
import sys
import threading

import numpy as np
import pytest

from anomex.data import Dataset
from anomex.errors import DataError
from anomex.detectors import IsolationForest, Loda
from anomex import shap_baseline
from anomex.shap_baseline import (
    MAX_COALITIONS,
    _enumerated_coalitions,
    _shapley_kernel,
    default_coalitions,
    kernel_shap,
    sample_background,
    shap_ranking,
    shap_to_dict,
)

from conftest import CountingScorer, make_dataset


def brute_shapley(scorer, x, bg_rows):
    """Average marginal contribution over all feature orderings."""
    d = len(x)

    def coalition_value(members):
        hybrid = bg_rows.copy()
        for j in members:
            hybrid[:, j] = x[j]
        return float(np.asarray(scorer(hybrid)).mean())

    phi = np.zeros(d)
    perms = list(itertools.permutations(range(d)))
    for perm in perms:
        members = []
        prev = coalition_value(members)
        for j in perm:
            members.append(j)
            cur = coalition_value(members)
            phi[j] += cur - prev
            prev = cur
    return phi / len(perms)


# -- background sampling ---------------------------------------------------------


def test_background_full_fraction_keeps_all_rows():
    data = make_dataset(np.arange(20.0))
    bg = sample_background(data, 1.0, seed=0)
    assert bg.n_rows == 20
    assert sorted(bg.rows.ravel()) == sorted(data.rows.ravel())


def test_background_sizes_match_documented_sweeps():
    big = make_dataset(np.zeros(36500))
    assert sample_background(big, 0.05, seed=0).n_rows == 1825
    mid = make_dataset(np.zeros(2725))
    assert sample_background(mid, 0.25, seed=0).n_rows == 681
    assert sample_background(mid, 0.75, seed=0).n_rows == 2043
    assert sample_background(mid, 0.5, seed=0).n_rows == 1362


def test_background_deterministic_and_validated():
    data = make_dataset(np.arange(50.0))
    a = sample_background(data, 0.3, seed=4)
    b = sample_background(data, 0.3, seed=4)
    assert np.array_equal(a.rows, b.rows)
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(ValueError):
            sample_background(data, bad, seed=0)


# -- kernel shap -------------------------------------------------------------------


def test_linear_scorer_closed_form():
    bg = Dataset(("a", "b"), [[0.0, 0.0]])
    expl = kernel_shap(lambda X: 2 * X[:, 0] + X[:, 1], np.array([1.0, 1.0]), bg, 16, seed=0)
    assert expl.base_value == pytest.approx(0.0, abs=1e-12)
    assert expl.phi == pytest.approx([2.0, 1.0], abs=1e-9)


def test_symmetric_scorer_equal_attributions():
    rng = np.random.default_rng(0)
    bg = make_dataset(rng.normal(size=(10, 1)) * np.ones((10, 2)))  # symmetric background
    expl = kernel_shap(lambda X: X[:, 0] + X[:, 1], np.array([0.7, 0.7]), bg, 16, seed=0)
    assert expl.phi[0] == pytest.approx(expl.phi[1], abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_enumeration_matches_brute_force(d):
    rng = np.random.default_rng(d)
    bg_rows = rng.normal(size=(6, d))
    bg = make_dataset(bg_rows)
    x = rng.normal(size=d)
    scorers = [
        lambda X: X.sum(axis=1),
        lambda X: X[:, 0] * X[:, -1] + np.abs(X).sum(axis=1),
        lambda X: np.maximum.reduce([X[:, j] for j in range(X.shape[1])]),
    ]
    for scorer in scorers:
        expl = kernel_shap(scorer, x, bg, coalitions=2**d, seed=0)
        reference = brute_shapley(scorer, x, bg_rows)
        assert np.abs(expl.phi - reference).max() <= 1e-6
        assert abs(expl.base_value + expl.phi.sum() - expl.score) <= 1e-6


def test_additivity_holds_for_sampled_path():
    rng = np.random.default_rng(9)
    d = 25
    bg = make_dataset(rng.normal(size=(40, d)))
    x = rng.normal(size=d)
    expl = kernel_shap(lambda X: (X**2).sum(axis=1), x, bg, coalitions=300, seed=1)
    assert abs(expl.base_value + expl.phi.sum() - expl.score) <= 1e-6
    assert expl.coalitions == 300
    assert expl.background_size == 40


def test_single_feature_attribution_is_score_gap():
    # at d = 1 there is no interior coalition: the empty regression leaves
    # the whole gap to the one feature, bit for bit, whatever the scorer
    rng = np.random.default_rng(1)
    data = make_dataset(rng.normal(size=(200, 1)))
    forest = IsolationForest.fit(data, trees=20, subsample=64, seed=1)
    loda = Loda.fit(data, projections=5, bins=10, seed=1)
    bg = sample_background(data, 0.2, seed=1)
    for scorer in (forest.score, loda.score, lambda X: np.sin(X[:, 0])):
        for i in (0, 7):
            expl = kernel_shap(scorer, data.rows[i], bg, coalitions=2 + i, seed=i)
            assert expl.phi.tobytes() == np.asarray([expl.score - expl.base_value]).tobytes()
            assert expl.coalitions == 2


@pytest.mark.parametrize("d, enumerates", [(16, True), (17, False)])
def test_exact_enumeration_iff_the_budget_covers_every_coalition(d, enumerates, monkeypatch):
    # the budget cap, max(2^16, 2d + 2048), rules out 2^d coalitions from d = 17 on
    calls = []
    own = shap_baseline._enumerated_coalitions
    monkeypatch.setattr(shap_baseline, "_enumerated_coalitions", lambda d: calls.append(d) or own(d))
    bg = make_dataset(np.random.default_rng(d).normal(size=(2, d)))
    expl = kernel_shap(lambda X: X.sum(axis=1), np.ones(d), bg, coalitions=2**16, seed=0)
    assert calls == ([d] if enumerates else [])
    assert expl.coalitions == 2**16


def test_sampled_path_deterministic_given_seed():
    rng = np.random.default_rng(2)
    d = 20
    bg = make_dataset(rng.normal(size=(15, d)))
    x = rng.normal(size=d)
    scorer = lambda X: np.sin(X).sum(axis=1)
    a = kernel_shap(scorer, x, bg, coalitions=200, seed=7)
    b = kernel_shap(scorer, x, bg, coalitions=200, seed=7)
    assert a.phi.tobytes() == b.phi.tobytes()


def test_default_coalition_budget():
    assert default_coalitions(50) == 2148


def test_rejects_bad_inputs():
    bg = make_dataset(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        kernel_shap(lambda X: X.sum(axis=1), np.zeros(3), bg)

    def never(X):
        raise AssertionError("scored despite a rejected budget")

    # below d - 1 sampled coalitions the regression is underdetermined: at
    # d = 50 a budget of 2 used to hand the whole score gap to one feature
    for d in (1, 2, 6, 50):
        bg = make_dataset(np.zeros((3, d)))
        for budget in (0, d):
            with pytest.raises(ValueError, match=rf"must be >= d \+ 1 = {d + 1} at d={d}, got"):
                kernel_shap(never, np.zeros(d), bg, coalitions=budget)


def test_coalition_budget_is_capped_before_any_scoring():
    def never(X):
        raise AssertionError("scored despite a rejected budget")

    bg = make_dataset(np.zeros((3, 50)))
    assert max(MAX_COALITIONS, default_coalitions(50)) == MAX_COALITIONS
    for budget in (MAX_COALITIONS + 1, 10**12):
        with pytest.raises(ValueError, match=f"coalition budget must be <= {MAX_COALITIONS}"):
            kernel_shap(never, np.zeros(50), bg, coalitions=budget)
    # the bound itself is a valid budget (exact enumeration at d=2)
    bg2 = make_dataset(np.zeros((3, 2)))
    assert kernel_shap(lambda X: X.sum(axis=1), np.ones(2), bg2, MAX_COALITIONS).coalitions == 4


def test_enumerated_coalitions_match_the_per_coalition_loop():
    for d in range(2, 13):
        masks, weights = _enumerated_coalitions(d)
        ref_masks = np.zeros((2**d - 2, d), dtype=bool)
        for i in range(1, 2**d - 1):
            ref_masks[i - 1] = [(i >> j) & 1 for j in range(d)]
        ref_weights = np.asarray([_shapley_kernel(d, int(s)) for s in ref_masks.sum(axis=1)])
        assert np.array_equal(masks, ref_masks)
        assert weights.tobytes() == ref_weights.tobytes()


@pytest.fixture(scope="module")
def forest_workload():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(400, 6))
    rows[:8] += 4.0
    data = make_dataset(rows)
    return data, IsolationForest.fit(data, trees=30, subsample=64, seed=4)


@pytest.mark.parametrize("coalitions", [2**6, 50])  # exact enumeration, sampling
def test_forest_score_explains_like_any_scorer(forest_workload, coalitions, monkeypatch):
    data, forest = forest_workload
    bg = sample_background(data, 0.3, seed=1)
    walks = []
    own = IsolationForest._coalition_scorer

    def counting(self, *a):
        walks.append(1)  # the background is walked once per call
        return own(self, *a)

    monkeypatch.setattr(IsolationForest, "_coalition_scorer", counting)
    for i in (0, 3, 200):
        direct = kernel_shap(forest.score, data.rows[i], bg, coalitions, seed=i)
        wrapped = kernel_shap(lambda b: forest.score(b), data.rows[i], bg, coalitions, seed=i)
        assert direct.phi.tobytes() == wrapped.phi.tobytes()
        assert (direct.base_value, direct.score) == (wrapped.base_value, wrapped.score)
        assert direct.coalitions == wrapped.coalitions
    assert len(walks) == 3


def test_only_the_forests_own_score_takes_the_coalition_path(forest_workload, monkeypatch):
    data, forest = forest_workload
    bg = sample_background(data, 0.1, seed=2)
    monkeypatch.setattr(
        IsolationForest, "_coalition_scorer", lambda *a: pytest.fail("wrapper took the forest path")
    )
    counting = CountingScorer(forest.score)
    expl = kernel_shap(counting, data.rows[0], bg, 40, seed=0)
    # one call of n_bg rows per coalition, plus the background and the point
    assert counting.evaluations == (expl.coalitions - 1) * bg.n_rows + 1
    loda = Loda.fit(data, projections=10, bins=10, seed=0)
    assert kernel_shap(loda.score, data.rows[0], bg, 40, seed=0).coalitions == 40
    assert kernel_shap(lambda b: forest.score(b), data.rows[0], bg, 40, seed=0).coalitions == 40


def test_share_count_changes_no_result(forest_workload, monkeypatch):
    data, forest = forest_workload
    bg = sample_background(data, 0.3, seed=1)
    own = IsolationForest._coalition_scorer
    threads = []

    def recording(self, *a):
        score = own(self, *a)

        def traced(mask):
            threads.append(threading.current_thread())
            return score(mask)

        return traced

    monkeypatch.setattr(IsolationForest, "_coalition_scorer", recording)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for count in (1, 2, 3, 8):
            monkeypatch.setattr(shap_baseline, "_cpu_count", lambda: count)
            # the smallest budget d + 1 (5 sampled masks), 6 and 48 sampled
            # masks, 62 enumerated masks (d=6)
            for coalitions in (7, 8, 50, 2**6):
                del threads[:]
                expl = kernel_shap(forest.score, data.rows[3], bg, coalitions, seed=5)
                assert len(set(threads)) == min(count, coalitions - 2)
                results.setdefault(coalitions, []).append(
                    (expl.phi.tobytes(), expl.base_value, expl.score, expl.coalitions)
                )
    finally:
        sys.setswitchinterval(interval)
    for runs in results.values():
        assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("count", [2, 3, 8])
def test_a_failing_share_raises_the_lowest_coalitions_error(forest_workload, monkeypatch, count):
    data, forest = forest_workload
    bg = sample_background(data, 0.3, seed=1)
    own = IsolationForest._coalition_scorer
    last_failed = threading.Event()
    last = 2**6 - 3  # exact enumeration at d=6: coalition i is the mask of i + 1

    def failing(self, *a):
        score = own(self, *a)

        def fail(mask):
            i = int(mask @ (1 << np.arange(mask.size))) - 1
            if i == 0:  # share 0 goes on only after the last share has failed
                assert last_failed.wait(timeout=30)
            if i == 1:
                raise RuntimeError("coalition 1 failed")
            if i == last:
                last_failed.set()
                raise RuntimeError(f"coalition {last} failed")
            return score(mask)

        return fail

    monkeypatch.setattr(IsolationForest, "_coalition_scorer", failing)
    monkeypatch.setattr(shap_baseline, "_cpu_count", lambda: count)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^coalition 1 failed$"):
        kernel_shap(forest.score, data.rows[3], bg, 2**6, seed=5)
    assert threading.active_count() == before


def test_forest_path_keeps_the_scorer_input_checks(forest_workload):
    data, forest = forest_workload
    bg = sample_background(data, 0.1, seed=2)
    x = data.rows[0].copy()
    x[4] = np.inf
    with pytest.raises(DataError, match=r"IsolationForest.score: non-finite value at row 1, column 'f4'"):
        kernel_shap(forest.score, x, bg, 40, seed=0)
    with pytest.raises(ValueError, match="point has 5 features but background has 6"):
        kernel_shap(forest.score, x[:5], bg, 40, seed=0)


# -- ranking -------------------------------------------------------------------------


def test_ranking_by_absolute_value():
    assert shap_ranking(np.array([-3.0, 1.0])) == (0, 1)


def test_ranking_tie_break_by_index():
    assert shap_ranking(np.array([0.0, 0.0])) == (0, 1)
    assert shap_ranking(np.array([2.0, -2.0, 3.0])) == (2, 0, 1)


def test_document_shape():
    bg = Dataset(("a", "b"), [[0.0, 0.0]])
    expl = kernel_shap(lambda X: X[:, 0] + X[:, 1], np.array([1.0, 2.0]), bg, 16, seed=0)
    doc = shap_to_dict(expl, point_id=3, threshold=0.5)
    assert doc["method"] == "kernelshap"
    assert doc["point_id"] == 3
    assert doc["classification"] == "anomalous"
    assert len(doc["phi"]) == 2
    assert doc["background_size"] == 1
    assert doc["phi0"] + sum(doc["phi"]) == pytest.approx(doc["score"], abs=1e-9)


def test_singular_regression_logs_the_ridge_fallback(caplog):
    # d = 3 at the smallest budget, d + 1: seed 11 samples the coalition {f1}
    # twice, so the 2x2 normal system has rank 1
    rng = np.random.default_rng(0)
    bg = make_dataset(rng.normal(size=(20, 3)))
    x = np.array([1.0, -2.0, 0.5])
    with caplog.at_level(logging.WARNING, logger="anomex.shap_baseline"):
        expl = kernel_shap(lambda X: X @ np.array([1.0, 2.0, 3.0]), x, bg, coalitions=4, seed=11)
    assert [r.getMessage() for r in caplog.records] == [
        "singular coalition regression; refitting with ridge damping"
    ]
    assert caplog.records[0].name == "anomex.shap_baseline"
    assert expl.phi.sum() == pytest.approx(expl.score - expl.base_value, abs=1e-9)
