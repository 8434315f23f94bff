import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anomex.data import QuantileGrid, build_quantile_grid, fit_threshold
from anomex.detectors import (
    _BLOCK_ROWS,
    _WALK_BLOCK_ROWS,
    MAX_SUBSAMPLE,
    MODEL_FORMAT_VERSION,
    IsolationForest,
    Loda,
    average_precision,
    expected_path_length,
    load_model,
    read_model,
    save_model,
)
from anomex.errors import DataError, ModelError
from anomex.explainer import Weights, explain

from conftest import make_dataset, traced_peak


@pytest.fixture(scope="module")
def gaussian_data():
    rng = np.random.default_rng(3)
    return make_dataset(rng.normal(size=(600, 4)))


# -- isolation forest ----------------------------------------------------------


def test_if_deterministic_given_seed(gaussian_data):
    a = IsolationForest.fit(gaussian_data, trees=20, subsample=64, seed=9)
    b = IsolationForest.fit(gaussian_data, trees=20, subsample=64, seed=9)
    sa = a.score(gaussian_data.rows)
    sb = b.score(gaussian_data.rows)
    assert sa.tobytes() == sb.tobytes()


def test_if_parameter_echo():
    rng = np.random.default_rng(0)
    data = make_dataset(rng.normal(size=(10000, 3)))
    model = IsolationForest.fit(data, trees=100, subsample=256, seed=0)
    trees = model.to_dict()["trees"]
    assert model.n_trees == 100
    assert len(trees) == 100
    assert model.subsample == 256
    assert all(t["size"][0] == 256 for t in trees)
    assert not hasattr(model, "trees")


def test_if_outlier_outscores_every_inlier():
    # brute-force comparison over all points
    values = np.concatenate([np.linspace(0.0, 1.0, 60), [10.0]])
    data = make_dataset(values)
    model = IsolationForest.fit(data, trees=150, subsample=61, seed=4)
    scores = model.score(data.rows)
    assert scores[-1] > scores[:-1].max()


def test_if_distant_point_beats_duplicated_cluster():
    rows = np.concatenate([np.zeros((40, 2)), [[6.0, 6.0]]])
    model = IsolationForest.fit(make_dataset(rows), trees=100, subsample=41, seed=1)
    scores = model.score(rows)
    assert scores[-1] > scores[:-1].max()


def test_if_score_normalization_identities():
    # depth equal to the normalizer gives exactly 0.5; depth 0 gives 1
    assert 2.0 ** (-expected_path_length(256) / expected_path_length(256)) == 0.5
    assert 2.0 ** (-0.0 / expected_path_length(256)) == 1.0
    assert expected_path_length(2) == pytest.approx(1.0)
    assert expected_path_length(1) == 0.0
    assert all(expected_path_length(m) > 0 for m in range(2, 50))


def test_if_scores_bounded(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=25, subsample=64, seed=0)
    scores = model.score(gaussian_data.rows)
    assert ((scores > 0) & (scores < 1)).all()


def test_if_depth_capped(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=10, subsample=64, seed=2)
    limit = int(np.ceil(np.log2(64)))
    assert all(max(t["depth"]) <= limit for t in model.to_dict()["trees"])


def test_if_degenerate_identical_rows_still_builds():
    data = make_dataset(np.ones((30, 2)))
    model = IsolationForest.fit(data, trees=5, subsample=16, seed=0)
    scores = model.score(data.rows)
    assert np.isfinite(scores).all()


def test_if_rejects_tiny_input():
    with pytest.raises(ValueError):
        IsolationForest.fit(make_dataset([[1.0]]), trees=5, subsample=4, seed=0)


def test_if_rejects_subsample_above_the_maximum():
    data = make_dataset(np.zeros(MAX_SUBSAMPLE + 1))
    with pytest.raises(ValueError, match=f"subsample must be <= {MAX_SUBSAMPLE}"):
        IsolationForest.fit(data, trees=1, subsample=MAX_SUBSAMPLE + 1, seed=0)


def swept_batch(x, values):
    """The (d*K, d) rows score_sweep stands for: x with feature j at values[j, k]."""
    d, k = values.shape
    batch = np.repeat(x[None, :], d * k, axis=0)
    for j in range(d):
        batch[j * k : (j + 1) * k, j] = values[j]
    return batch


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    k=st.integers(2, 6),
    n=st.integers(2, 30),
    trees=st.integers(1, 8),
    constant=st.lists(st.booleans(), min_size=4, max_size=4),
    only_thresholds=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(d=1, k=2, n=2, trees=1, constant=[False] * 4, only_thresholds=False, seed=0)
@example(d=3, k=2, n=10, trees=4, constant=[True] * 4, only_thresholds=False, seed=1)  # all leaves
@example(d=3, k=6, n=20, trees=4, constant=[False] * 4, only_thresholds=True, seed=2)
# no tree splits on the constant f1, so it is on no tree's path for x
@example(d=3, k=5, n=20, trees=4, constant=[False, True, False, False], only_thresholds=False,
         seed=3)
def test_score_sweep_is_score_of_the_swept_batch(d, k, n, trees, constant, only_thresholds, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows[:, np.asarray(constant[:d])] = 1.5
    model = IsolationForest.fit(
        make_dataset(rows), trees=trees, subsample=int(rng.integers(2, n + 1)), seed=seed
    )
    thresholds = [
        v for t in model.to_dict()["trees"] for v, c in zip(t["threshold"], t["child"]) if c != -1
    ]
    # split thresholds hit the >= tie; +-1e6 lies outside the training range
    pool = np.concatenate([thresholds, rows.ravel(), [-1e6, 1e6]])
    x = pool[rng.integers(pool.size, size=d)]
    if only_thresholds and thresholds:
        pool = np.asarray(thresholds)
    # rows of values repeat values
    grid = QuantileGrid(np.sort(pool[rng.integers(pool.size, size=(d, k))], axis=1))
    expected = model.score(swept_batch(x, grid.values)).reshape(d, k)
    assert np.array_equal(model.score_sweep(x, grid), expected)


def test_score_is_blockwise_exact(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=10, subsample=64, seed=1)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(2 * _WALK_BLOCK_ROWS + 1, 4))
    one_by_one = np.concatenate([model.score(row) for row in batch])
    assert np.array_equal(model.score(batch), one_by_one)
    assert model.score(np.empty((0, 4))).shape == (0,)
    # a sweep longer than one block walks one feature per block
    grid = QuantileGrid(np.sort(rng.normal(size=(4, _BLOCK_ROWS // 2 + 1)), axis=1))
    expected = model.score(swept_batch(batch[0], grid.values)).reshape(grid.values.shape)
    assert np.array_equal(model.score_sweep(batch[0], grid), expected)


def test_score_holds_one_walker_block_beside_its_result(gaussian_data):
    # Traced peak of scoring 5000 rows on a 100-tree forest, beyond the 40 KB
    # of scores: 2.7 MB walking 1024-row blocks, 10.7 MB walking 4096-row
    # blocks (about 26 bytes a row and tree), the same at 20000 rows.
    model = IsolationForest.fit(gaussian_data, trees=100, seed=1)
    batch = np.random.default_rng(5).normal(size=(5000, 4))
    scores, peak = traced_peak(lambda: model.score(batch))
    assert peak < scores.nbytes + 4_000_000


def test_score_sweep_walks_one_row_per_threshold_interval(monkeypatch):
    # Splits are axis-parallel: in an on-path (tree, feature) pair, the tree's
    # t split thresholds on the feature cut a sweep into at most t + 1 runs
    # that each reach one leaf, so at most t + 1 rows of the pair are walked.
    rng = np.random.default_rng(11)
    data = make_dataset(rng.normal(size=(500, 20)))
    model = IsolationForest.fit(data, trees=20, subsample=64, seed=3)
    grid = build_quantile_grid(data, 51)
    x = data.rows[int(np.argmax(model.score(data.rows)))]
    pairs = bound = 0
    for tree in model.to_dict()["trees"]:
        feature, threshold, child = tree["feature"], tree["threshold"], tree["child"]
        splits = np.bincount([f for f, c in zip(feature, child) if c != -1], minlength=20)
        node, on_path = 0, set()
        while child[node] != -1:
            on_path.add(feature[node])
            node = child[node] + (x[feature[node]] >= threshold[node])
        pairs += len(on_path)
        bound += sum(1 + splits[f] for f in on_path)
    walked = []
    walk = IsolationForest._walk

    def counting(self, flat, base, node):
        walked.append(np.broadcast(base, node).size)
        return walk(self, flat, base, node)

    monkeypatch.setattr(IsolationForest, "_walk", counting)
    sweep = model.score_sweep(x, grid)
    assert pairs <= sum(walked) <= bound < pairs * 51
    monkeypatch.undo()
    assert np.array_equal(sweep, model.score(swept_batch(x, grid.values)).reshape(20, 51))


def leaves(model, batch):
    """Each row's leaf in each tree, (rows, n_trees), by walking the saved trees."""
    out = np.empty((len(batch), model.n_trees), dtype=np.int64)
    for t, tree in enumerate(model.to_dict()["trees"]):
        feature, threshold, child = tree["feature"], tree["threshold"], tree["child"]
        for i, row in enumerate(batch):
            node = 0
            while child[node] != -1:
                node = child[node] + (row[feature[node]] >= threshold[node])
            out[i, t] = node
    return out


def test_score_sweep_scores_each_distinct_row_once(monkeypatch):
    # Within a feature, every tree reaches the same leaf between two run starts
    # of the feature's on-path pairs, so only the values at slot 0 and at those
    # starts are scored; they are at least the feature's distinct leaf rows.
    rng = np.random.default_rng(11)
    data = make_dataset(rng.normal(size=(500, 20)))
    model = IsolationForest.fit(data, trees=20, subsample=64, seed=3)
    grid = build_quantile_grid(data, 51)
    values = grid.values
    x = data.rows[int(np.argmax(model.score(data.rows)))]
    d, k = values.shape
    leaf = leaves(model, swept_batch(x, values)).reshape(d, k, -1)
    distinct = sum(len(np.unique(leaf[j], axis=0)) for j in range(d))
    starts = [{0} for _ in range(d)]
    for tree in model.to_dict()["trees"]:
        feature, threshold, child = tree["feature"], tree["threshold"], tree["child"]
        node, on_path = 0, set()
        while child[node] != -1:
            on_path.add(feature[node])
            node = child[node] + (x[feature[node]] >= threshold[node])
        for f, t, c in zip(feature, threshold, child):
            slot = int(np.sum(values[f] < t))
            if c != -1 and f in on_path and slot < k:
                starts[f].add(slot)
    bound = sum(map(len, starts))
    scored = []
    score_of = IsolationForest._score_of

    def counting(self, h):
        scored.append(len(h))
        return score_of(self, h)

    monkeypatch.setattr(IsolationForest, "_score_of", counting)
    sweep = model.score_sweep(x, grid)
    assert distinct <= sum(scored) <= bound < d * k
    monkeypatch.undo()
    assert np.array_equal(sweep, model.score(swept_batch(x, values)).reshape(d, k))


def test_score_sweep_rejects_bad_input(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=5, subsample=32, seed=0)
    x, grid = gaussian_data.rows[0], QuantileGrid(np.zeros((4, 3)))
    for bad_x, bad_grid, error in [
        (gaussian_data.rows[:2], grid, ModelError),
        (np.zeros(3), grid, ModelError),
        (x, QuantileGrid(np.zeros((3, 3))), ModelError),
        (np.full(4, np.inf), grid, DataError),
    ]:
        with pytest.raises(error):
            model.score_sweep(bad_x, bad_grid)


def hybrid_rows(x, background, masks):
    """The (n_masks * n_bg, d) rows a coalition scorer stands for: masked features from x."""
    return np.concatenate([np.where(mask, x, background) for mask in masks])


def coalition_scores(model, x, background, masks):
    """The forest's coalition scorer stacked over the masks: (n_masks, n_bg)."""
    score = model._coalition_scorer(x, background)
    return np.array([score(mask) for mask in masks]).reshape(len(masks), len(background))


# features either side of the 64-bit word boundaries of a coalition bitmask
_WORD_EDGES = (0, 62, 63, 64, 65, 127, 128, 129)


@settings(max_examples=100, deadline=None)
@given(
    d=st.sampled_from([1, 63, 64, 65, 130]),
    n_bg=st.integers(1, 30),
    n_masks=st.integers(0, 6),
    trees=st.integers(1, 8),
    varying=st.sampled_from(["all", "word edges", "none"]),
    seed=st.integers(0, 2**16),
)
@example(d=1, n_bg=1, n_masks=0, trees=1, varying="all", seed=0)
@example(d=130, n_bg=1, n_masks=3, trees=8, varying="word edges", seed=1)
@example(d=64, n_bg=3, n_masks=2, trees=4, varying="none", seed=2)  # every tree a single leaf
def test_coalition_scorer_is_score_of_the_hybrid_rows(d, n_bg, n_masks, trees, varying, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(40, d))
    if varying != "all":  # constant columns are never split on
        keep = _WORD_EDGES if varying == "word edges" else ()
        rows[:, [j for j in range(d) if j not in keep]] = 1.5
    model = IsolationForest.fit(
        make_dataset(rows), trees=trees, subsample=int(rng.integers(2, 41)), seed=seed
    )
    thresholds = [
        v for t in model.to_dict()["trees"] for v, c in zip(t["threshold"], t["child"]) if c != -1
    ]
    # split thresholds hit the >= tie; +-1e6 lies outside the training range
    pool = np.concatenate([thresholds, rows.ravel(), [-1e6, 1e6]])
    x = pool[rng.integers(pool.size, size=d)]
    background = pool[rng.integers(pool.size, size=(n_bg, d))]
    masks = np.concatenate([
        np.zeros((1, d), dtype=bool),  # empty: the background's own scores
        rng.random((n_masks, d)) < rng.random((n_masks, 1)),
        np.ones((1, d), dtype=bool),  # full: x's score on every row
    ])
    expected = model.score(hybrid_rows(x, background, masks)).reshape(len(masks), n_bg)
    assert np.array_equal(coalition_scores(model, x, background, masks), expected)


def test_coalition_scorer_spans_blocks(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=10, subsample=64, seed=2)
    rng = np.random.default_rng(6)
    background = rng.normal(size=(_WALK_BLOCK_ROWS + 5, 4))
    x = gaussian_data.rows[int(np.argmax(model.score(gaussian_data.rows)))]
    masks = np.array([[True, False, False, True], [False, True, True, False]])
    expected = model.score(hybrid_rows(x, background, masks)).reshape(2, -1)
    assert np.array_equal(coalition_scores(model, x, background, masks), expected)
    assert coalition_scores(model, x, background, masks[:0]).shape == (0, _WALK_BLOCK_ROWS + 5)
    assert coalition_scores(model, x, background[:0], masks).shape == (2, 0)


def test_coalition_scorer_rejects_bad_input(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=5, subsample=32, seed=0)
    x, bg = gaussian_data.rows[0], gaussian_data.rows[:3]
    for bad_x, bad_bg, error in [
        (gaussian_data.rows[:2], bg, ModelError),
        (np.zeros(3), bg, ModelError),
        (x, np.zeros((3, 3)), ModelError),
        (np.full(4, np.nan), bg, DataError),
        (x, np.full((3, 4), np.inf), DataError),
    ]:
        with pytest.raises(error, match=r"^IsolationForest\._coalition_scorer"):
            model._coalition_scorer(bad_x, bad_bg)


def test_if_dimension_mismatch(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=5, subsample=32, seed=0)
    with pytest.raises(ModelError):
        model.score(np.zeros((3, 7)))


@pytest.mark.parametrize("kind", ["iforest", "loda"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_rejects_non_finite_rows(gaussian_data, kind, bad):
    if kind == "iforest":
        model = IsolationForest.fit(gaussian_data, trees=10, subsample=32, seed=0)
    else:
        model = Loda.fit(gaussian_data, projections=10, bins=10, seed=0)
    batch = np.zeros((3, 4))
    batch[2, 1] = bad
    with pytest.raises(DataError, match=r"non-finite value at row 3, column 'f1'"):
        model.score(batch)
    assert np.isfinite(model.score(np.zeros((3, 4)))).all()


def test_explain_rejects_nan_point_through_detector(gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=10, subsample=32, seed=0)
    grid = build_quantile_grid(gaussian_data, 5)
    x = gaussian_data.rows[0].copy()
    x[3] = np.nan
    with pytest.raises(DataError, match=r"row 1, column 'f3'"):
        explain(model.score, x, grid, Weights(), 0.5, feature_names=gaussian_data.feature_names)


# -- loda -----------------------------------------------------------------------


def test_loda_deterministic_given_seed(gaussian_data):
    a = Loda.fit(gaussian_data, projections=20, bins=30, seed=5)
    b = Loda.fit(gaussian_data, projections=20, bins=30, seed=5)
    assert np.array_equal(a.projections, b.projections)
    assert a.score(gaussian_data.rows).tobytes() == b.score(gaussian_data.rows).tobytes()


def test_loda_sparsity_rule():
    rng = np.random.default_rng(0)
    data = make_dataset(rng.normal(size=(50, 4)))
    model = Loda.fit(data, projections=40, bins=10, seed=1)
    nonzeros = (model.projections != 0).sum(axis=1)
    assert (nonzeros == 2).all()  # ceil(sqrt(4)) = 2


def test_loda_uniform_data_near_uniform_bins():
    # multinomial concentration: each bin within 3 sigma of 1/10 for n=10000
    rng = np.random.default_rng(7)
    n, bins = 10000, 10
    data = make_dataset(rng.uniform(0.0, 1.0, size=n))
    model = Loda.fit(data, projections=5, bins=bins, seed=7)
    sigma = np.sqrt(0.1 * 0.9 / n)
    for probs in model.bin_probs:
        assert probs.size == bins
        assert np.abs(probs - 1.0 / bins).max() <= 3 * sigma


def test_loda_histograms_sum_to_one(gaussian_data):
    model = Loda.fit(gaussian_data, projections=30, bins=25, seed=2)
    for probs in model.bin_probs:
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_loda_constant_scorer_on_single_bin():
    # zero-variance data: single-bin histogram with probability one
    data = make_dataset(np.full(100, 2.5))
    model = Loda.fit(data, projections=1, bins=10, seed=0)
    assert model.bin_probs[0].size == 1
    assert model.bin_probs[0][0] == 1.0
    scores = model.score(np.array([[2.5], [2.5], [99.0]]))
    assert scores[0] == scores[1] == scores[2] == 0.0  # -log(1)


def test_loda_far_point_scores_at_least_in_range_max(gaussian_data):
    model = Loda.fit(gaussian_data, projections=50, bins=20, seed=3)
    train_scores = model.score(gaussian_data.rows)
    far = np.full((1, 4), 1e6)
    assert model.score(far)[0] >= train_scores.max()


def test_loda_scores_nonnegative_and_deterministic(gaussian_data):
    model = Loda.fit(gaussian_data, projections=25, bins=15, seed=11)
    scores = model.score(gaussian_data.rows)
    assert (scores >= 0).all()
    x = gaussian_data.rows[5]
    pair = model.score(np.stack([x, x]))
    assert pair[0] == pair[1]


def test_loda_rejects_bad_params(gaussian_data):
    with pytest.raises(ValueError):
        Loda.fit(gaussian_data, projections=0, bins=10, seed=0)
    with pytest.raises(ValueError):
        Loda.fit(gaussian_data, projections=10, bins=0, seed=0)


def loda_document(projections, lo, width, probs):
    """A LODA model rebuilt from a hand-written document, as ``load_model`` would."""
    projections = np.asarray(projections, dtype=np.float64)
    return Loda.from_dict({
        "feature_names": [f"f{j}" for j in range(projections.shape[1])],
        "seed": 0,
        "projections": projections.tolist(),
        "histograms": [
            {"lo": float(a), "width": float(w), "probs": list(map(float, p))}
            for a, w, p in zip(lo, width, probs)
        ],
    })


def bin_edges(model):
    """Every bin edge lo + b*width of every projection, plus the outer ones."""
    return np.concatenate([
        model.bin_lo[i] + np.arange(-1, p.size + 2) * model.bin_width[i]
        for i, p in enumerate(model.bin_probs)
    ])


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 5),
    k=st.integers(2, 6),
    n=st.integers(2, 30),
    projections=st.integers(1, 8),
    bins=st.integers(1, 6),
    constant=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
@example(d=1, k=2, n=2, projections=1, bins=1, constant=[False] * 5, seed=0)
@example(d=3, k=2, n=10, projections=4, bins=5, constant=[True] * 5, seed=1)  # single bins
def test_loda_score_sweep_is_score_of_the_swept_batch(d, k, n, projections, bins, constant, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows[:, np.asarray(constant[:d])] = 1.5
    model = Loda.fit(make_dataset(rows), projections=projections, bins=bins, seed=seed)
    # bin edges as coordinates hit the floor tie for single-weight projections;
    # +-1e6 lies far outside the training range
    pool = np.concatenate([bin_edges(model), rows.ravel(), [-1e6, 1e6]])
    x = pool[rng.integers(pool.size, size=d)]
    grid = QuantileGrid(np.sort(pool[rng.integers(pool.size, size=(d, k))], axis=1))
    expected = model.score(swept_batch(x, grid.values)).reshape(d, k)
    assert np.array_equal(model.score_sweep(x, grid), expected)


def test_loda_score_sweep_on_dense_and_zero_projections():
    # weights of 1 put x_j itself on the projection: edges are exact coordinates
    rng = np.random.default_rng(4)
    w = rng.normal(size=(5, 4))
    w[1] = 0.0  # all-zero projection: every row in the bin of z = 0
    w[2] = [1.0, 0.0, 0.0, 0.0]
    w[3] = [0.0, -2.5, 0.0, 1e-300]
    lo = np.array([-3.0, -1.0, -2.0, -4.0, -3.5])
    width = np.array([0.5, 1.0, 0.25, 2.0, 1.0])
    probs = [rng.dirichlet(np.ones(b)) for b in (12, 1, 16, 4, 7)]
    model = loda_document(w, lo, width, probs)
    edges = bin_edges(model)
    for _ in range(20):
        x = edges[rng.integers(edges.size, size=4)]
        values = np.concatenate([edges[rng.integers(edges.size, size=(4, 30))],
                                 rng.normal(scale=5, size=(4, 5))], axis=1)
        grid = QuantileGrid(np.sort(values, axis=1))
        expected = model.score(swept_batch(x, grid.values)).reshape(grid.values.shape)
        assert np.array_equal(model.score_sweep(x, grid), expected)
    # every p = 1: scores are -0.0, the negated mean of log p, as saved score files show
    flat = loda_document(w, lo, width, [[1.0]] * 5)
    assert np.signbit(flat.score(x[None, :])).all()
    assert np.signbit(flat.score_sweep(x, grid)).all()


def test_loda_score_sweep_spans_blocks(gaussian_data):
    model = Loda.fit(gaussian_data, projections=10, bins=20, seed=1)
    rng = np.random.default_rng(5)
    x = gaussian_data.rows[0]
    # one feature per block
    grid = QuantileGrid(np.sort(rng.normal(scale=2, size=(4, _BLOCK_ROWS // 2 + 1)), axis=1))
    expected = model.score(swept_batch(x, grid.values)).reshape(grid.values.shape)
    assert np.array_equal(model.score_sweep(x, grid), expected)
    with pytest.raises(ModelError, match="one sample"):
        model.score_sweep(gaussian_data.rows[:2], grid)


def test_loda_rows_score_on_their_own(gaussian_data):
    model = Loda.fit(gaussian_data, projections=30, bins=25, seed=2)
    batch = np.random.default_rng(6).normal(scale=3, size=(3000, 4))
    scores = model.score(batch)
    assert np.array_equal(scores, np.concatenate([model.score(row) for row in batch]))
    assert model.score(np.empty((0, 4))).shape == (0,)


def test_loda_scores_match_the_dense_projection_away_from_bin_edges():
    rng = np.random.default_rng(8)
    data = make_dataset(rng.normal(size=(500, 20)))
    model = Loda.fit(data, projections=50, bins=30, seed=8)
    batch = rng.normal(scale=1.5, size=(2000, 20))
    z = batch @ model.projections.T
    q = (z - model.bin_lo) / model.bin_width
    n_bins = np.asarray([p.size for p in model.bin_probs])
    idx = np.clip(np.floor(q).astype(np.int64), 0, n_bins - 1)
    p = np.stack([model.bin_probs[i][idx[:, i]] for i in range(50)], axis=1)  # C order
    reference = -np.log(p).mean(axis=1)
    gap = np.abs(q - np.round(q)) * model.bin_width
    clear = (gap > 1e-9 * (np.abs(z) + np.abs(model.bin_lo) + 1.0)).all(axis=1)
    assert clear.mean() > 0.99
    assert np.array_equal(model.score(batch)[clear], reference[clear])


def test_loda_tiny_bin_width_sends_rows_to_their_edge_bin():
    # (z - lo) / 1e-308 overflows for |z| > 1.8: above lo is the last bin, below the first
    probs = [np.array([0.1, 0.2, 0.3, 0.4])] * 2
    model = loda_document([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1e-308, 1e-308], probs)
    batch = np.array([[5.0, 1.0], [-5.0, -2.0], [0.0, 3.0]])
    grid = QuantileGrid([[-5.0, 0.0, 5.0], [-2.0, 1.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = model.score(batch)
        sweep = model.score_sweep(batch[0], grid)
    p = np.array([[0.4, 0.4], [0.1, 0.1], [0.1, 0.4]])
    assert np.array_equal(scores, -np.log(p).mean(axis=1))
    swept = np.array([[[0.1, 0.4], [0.1, 0.4], [0.4, 0.4]], [[0.4, 0.1], [0.4, 0.4], [0.4, 0.4]]])
    assert np.array_equal(sweep, -np.log(swept).mean(axis=2))


# -- orientation on labeled synthetic data --------------------------------------


def test_both_detectors_orient_higher_is_anomalous():
    from anomex.synth import SynthSpec, generate

    data = generate(SynthSpec(2000, 50, 6, 2, 5.0, seed=1))
    normal = data.labels == 0
    for model in (
        IsolationForest.fit(data, trees=100, subsample=256, seed=0),
        Loda.fit(data, projections=100, bins=50, seed=0),
    ):
        scores = model.score(data.rows)
        assert scores[~normal].mean() > scores[normal].mean()


# -- persistence -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["iforest", "loda"])
def test_save_load_round_trip(tmp_path, gaussian_data, kind):
    if kind == "iforest":
        model = IsolationForest.fit(gaussian_data, trees=15, subsample=64, seed=6)
    else:
        model = Loda.fit(gaussian_data, projections=15, bins=20, seed=6)
    scores = model.score(gaussian_data.rows)
    tau = fit_threshold(scores, 0.1)
    path = tmp_path / "model.json"
    save_model(model, tau, 0.1, path)
    loaded, tau2, contamination = load_model(path)
    assert tau2 == tau
    assert contamination == 0.1
    assert loaded.feature_names == model.feature_names
    assert loaded.score(gaussian_data.rows).tobytes() == scores.tobytes()


@pytest.mark.parametrize("kind", ["iforest", "loda"])
def test_save_load_save_is_byte_identical(tmp_path, gaussian_data, kind):
    if kind == "iforest":
        model = IsolationForest.fit(gaussian_data, trees=15, subsample=64, seed=7)
    else:
        model = Loda.fit(gaussian_data, projections=15, bins=20, seed=7)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, 0.25, 0.1, first)
    save_model(load_model(first)[0], 0.25, 0.1, second)
    assert first.read_bytes() == second.read_bytes()


def test_forest_document_is_resaved_as_written(tmp_path, model_documents):
    # a leaf's feature and threshold are never read, yet they persist unchanged
    doc = copy.deepcopy(model_documents["iforest"][0])
    tree = doc["model"]["trees"][1]
    leaf = tree["child"].index(-1)
    tree["feature"][leaf], tree["threshold"][leaf] = 2, 7.5
    edited, resaved = tmp_path / "edited.json", tmp_path / "resaved.json"
    edited.write_text(json.dumps(doc, sort_keys=True))
    model, threshold, contamination, grid = read_model(edited)
    save_model(model, threshold, contamination, resaved, grid)
    assert resaved.read_bytes() == edited.read_bytes()


@pytest.mark.parametrize("k", [2, 3, 17, 51])
@pytest.mark.parametrize("kind", ["iforest", "loda"])
def test_stored_grid_round_trips_bit_for_bit(tmp_path, gaussian_data, kind, k):
    if kind == "iforest":
        model = IsolationForest.fit(gaussian_data, trees=5, subsample=32, seed=3)
    else:
        model = Loda.fit(gaussian_data, projections=5, bins=10, seed=3)
    grid = build_quantile_grid(gaussian_data, k)
    path = tmp_path / "model.json"
    save_model(model, 0.25, 0.1, path, grid)
    saved = read_model(path)
    assert saved.grid.values.tobytes() == grid.values.tobytes()
    assert saved.grid.levels.tobytes() == grid.levels.tobytes()
    assert (saved.threshold, saved.contamination) == (0.25, 0.1)
    # load_model keeps its three-field return
    detector, threshold, contamination = load_model(path)
    assert detector.feature_names == model.feature_names
    assert json.loads(path.read_text())["format_version"] == MODEL_FORMAT_VERSION == 2
    resaved = tmp_path / "resaved.json"
    save_model(*saved[:3], resaved, saved.grid)
    assert resaved.read_bytes() == path.read_bytes()


def test_version_1_document_loads_without_a_grid(tmp_path, model_documents):
    doc = copy.deepcopy(model_documents["iforest"][0])
    del doc["grid"]
    doc["format_version"] = 1
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    saved = read_model(path)
    assert saved.grid is None
    assert saved.detector.n_trees == 3


def test_save_model_rejects_a_grid_of_other_features(tmp_path, gaussian_data):
    model = IsolationForest.fit(gaussian_data, trees=3, subsample=16, seed=1)
    grid = build_quantile_grid(make_dataset(gaussian_data.rows[:, :2]), 5)
    with pytest.raises(ModelError, match="grid has 2 features"):
        save_model(model, 0.5, 0.1, tmp_path / "m.json", grid)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda g: g.pop(), r"'grid' must be \(3, K >= 2\)"),
        (lambda g: [row.__delitem__(slice(1, None)) for row in g], r"got shape \(3, 1\)"),
        (lambda g: g[1].__setitem__(0, float("inf")), "non-finite"),
        (lambda g: g[2].reverse(), "non-decreasing"),
        (lambda g: g[0].append(1.0), "not a numeric array"),
        (lambda g: g.__setitem__(slice(None), [1.0, 2.0]), "2-dimensional"),
    ],
    ids=["features", "one-level", "inf", "decreasing", "ragged", "flat-list"],
)
def test_bad_stored_grid_is_a_model_error(tmp_path, model_documents, edit, message):
    doc = copy.deepcopy(model_documents["iforest"][0])
    edit(doc["grid"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=message):
        load_model(path)


def test_load_model_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(ModelError):
        load_model(p)
    p.write_text("not json")
    with pytest.raises(ModelError):
        load_model(p)
    with pytest.raises(ModelError):
        load_model(tmp_path / "absent.json")


def test_load_model_rejects_unknown_version(tmp_path):
    p = tmp_path / "v99.json"
    p.write_text('{"format_version": 99, "model_type": "iforest"}')
    with pytest.raises(ModelError, match="version"):
        load_model(p)


@pytest.mark.parametrize("version", [True, 1.0, "2", None])
def test_load_model_rejects_a_version_that_is_not_an_integer(tmp_path, model_documents, version):
    doc = copy.deepcopy(model_documents["iforest"][0])
    doc["format_version"] = version
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="unsupported format version"):
        load_model(path)


def saved_document(tmp_path_factory, kind):
    rng = np.random.default_rng(11)
    data = make_dataset(rng.normal(size=(200, 3)))
    if kind == "iforest":
        model = IsolationForest.fit(data, trees=3, subsample=16, seed=2)
    else:
        model = Loda.fit(data, projections=3, bins=4, seed=2)
    path = tmp_path_factory.mktemp(kind) / "model.json"
    save_model(model, 0.5, 0.1, path, build_quantile_grid(data, 5))
    return json.loads(path.read_text()), data


@pytest.fixture(scope="module")
def model_documents(tmp_path_factory):
    return {kind: saved_document(tmp_path_factory, kind) for kind in ("iforest", "loda")}


def _paths(doc, prefix=()):
    """Every key path in a JSON document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


CORRUPT_VALUES = [None, "x", -1, 0, 1, 2, 3, 7, 16, 17, 10**6, -(10**6), 0.5, 1e308,
                  float("nan"), float("inf"), [], {}, [1, 2], True]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["iforest", "loda"]),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["drop", "set"]),
                  st.sampled_from(CORRUPT_VALUES)),
        min_size=1, max_size=3,
    ),
)
def test_corrupted_model_documents_fail_as_model_error(tmp_path, model_documents, kind, picks):
    doc, data = model_documents[kind]
    doc = copy.deepcopy(doc)
    for index, action, value in picks:
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = paths[index % len(paths)]
        container = doc
        for k in parents:
            container = container[k]
        if action == "drop":
            del container[key]
        else:
            container[key] = copy.deepcopy(value)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    try:
        model, threshold, _, grid = read_model(path)
    except ModelError:
        return
    # a grid that still loads is one to sweep: (d, K >= 2), finite, non-decreasing
    if grid is not None:
        assert grid.values.shape[0] == len(model.feature_names) and grid.n_levels >= 2
    # a document that still loads must score like a model: finite, in range
    scores = model.score(np.resize(data.rows, (5, len(model.feature_names))))
    assert np.isfinite(scores).all() and np.isfinite(threshold)
    if kind == "iforest":
        assert ((scores > 0) & (scores < 1)).all()
    else:
        assert (scores >= 0).all()


def point_deepest_split_at_root_children(doc):
    """Make the deepest internal node's children loop back up the tree."""
    tree = doc["model"]["trees"][0]
    internal = [i for i, c in enumerate(tree["child"]) if c != -1]
    deepest = max(internal, key=lambda i: tree["depth"][i])
    assert tree["depth"][deepest] >= 1
    tree["child"][deepest] = 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["model"].pop("trees"), "missing 'trees'"),
        (lambda d: d["model"]["trees"][0]["feature"].__setitem__(0, 99), "feature index"),
        (lambda d: d["model"]["trees"][1]["child"].__setitem__(0, 10**6), "child index"),
        (lambda d: d["model"]["trees"][0]["depth"].pop(), "equal length"),
        (point_deepest_split_at_root_children, "one level below"),
        (lambda d: d["model"].pop("seed"), "missing 'seed'"),
        (lambda d: d.pop("threshold"), "missing 'threshold'"),
        (lambda d: d["model"].__setitem__("subsample", 10**13), "'subsample' must be <="),
    ],
    ids=["no-trees", "feature-range", "child-range", "ragged", "child-depth", "no-seed",
         "no-threshold", "huge-subsample"],
)
def test_forest_document_errors_name_the_problem(tmp_path, model_documents, edit, message):
    doc = copy.deepcopy(model_documents["iforest"][0])
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=message):
        load_model(path)


def test_loda_document_rejects_bad_histograms(tmp_path, model_documents):
    for edit, message in [
        (lambda d: d["model"]["histograms"][0].__setitem__("width", 0.0), "positive"),
        (lambda d: d["model"]["histograms"].pop(), "one per projection"),
        (lambda d: d["model"]["projections"][0].append(1.0), "not a numeric array"),
        (lambda d: [row.append(1.0) for row in d["model"]["projections"]], r"got shape \(3, 4\)"),
    ]:
        doc = copy.deepcopy(model_documents["loda"][0])
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=message):
            load_model(path)


# -- average precision -------------------------------------------------------------


def brute_average_precision(labels, scores):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


def test_average_precision_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.normal(size=n)
        assert average_precision(labels, scores) == pytest.approx(
            brute_average_precision(list(labels), list(scores))
        )


def test_average_precision_perfect_ranking():
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.9, 0.8])
    assert average_precision(labels, scores) == 1.0
