"""Reference unsupervised anomaly detectors: Isolation Forest and LODA.

Both detectors satisfy the package-wide scoring contract: ``score(X)``
takes an (m, d) batch and returns m finite scores, higher = more
anomalous, deterministic for a fixed seed, and safe to call concurrently
once fitted; ``score_sweep`` takes a ``QuantileGrid`` as it is. Fitted
models persist to a versioned JSON document via ``save_model`` /
``load_model``; format version 2 can carry the quantile grid of the
training data, which ``read_model`` returns.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from anomex.data import Dataset, QuantileGrid
from anomex.errors import DataError, ModelError

# Swept rows per block of both score_sweeps: bounds the (rows, n_trees)
# walker matrices and the (rows, n_projections) LODA sweep matrices
# (3.3 MB each at 100) whatever the grid size. Smaller blocks measured
# slower (LODA: 1.58 against 1.42 ms per sweep).
_BLOCK_ROWS = 4096

# Rows per block of the forest's batch walkers, in ``score`` and in a
# coalition scorer; each block holds about 2 KB of temporaries a row on a
# 100-tree forest. Every row is walked on its own, so the block size
# changes no result. ``score`` on a 100-tree forest raised the traced
# peak by 2.7 MB with these blocks, against 10.7 MB with 4096-row ones,
# and 20000x50 rows took 137 against 169 ms (medians of 30 alternating
# calls, faster in all 30). In kernel_shap, with 2 shares of 2148 coalitions on a
# 2000-row background (20000x50 forest), 1024-row blocks took 5.6 s and
# added 2.8 MB to a 74 MB peak RSS, against 5.3 s and 5.3 MB for one
# block and 6.7 s and 1.5 MB for 512-row blocks.
_WALK_BLOCK_ROWS = 1024

# Cells of the (slots, M, rows) product array per block of Loda.score:
# 2 MB, cache-sized, which halved the time of a 5000-row batch against
# 4096-row blocks (M = 100, 10 slots).
_PROJECT_CELLS = 2**18

# Largest per-tree sample size; keeps the leaf-credit table built on load
# (one float per possible node size) at 8 MB.
MAX_SUBSAMPLE = 2**20


def check_forest_params(trees: int, subsample: int) -> None:
    """ValueError unless a forest can have ``trees`` trees on ``subsample``-row samples."""
    if trees < 1:
        raise ValueError(f"need at least 1 tree, got {trees}")
    if subsample < 2:
        raise ValueError(f"subsample must be >= 2, got {subsample}")
    if subsample > MAX_SUBSAMPLE:
        raise ValueError(f"subsample must be <= {MAX_SUBSAMPLE}, got {subsample}")


def check_loda_params(projections: int, bins: int) -> None:
    """ValueError unless LODA can have ``projections`` histograms of ``bins`` bins."""
    if projections < 1:
        raise ValueError(f"need at least 1 projection, got {projections}")
    if bins < 1:
        raise ValueError(f"need at least 1 bin, got {bins}")


def _check_training(data: Dataset, what: str) -> None:
    """DataError below 2 rows, or naming the first feature whose range overflows float64.

    The forest's split draws, LODA's bins and the quantile levels all
    take a feature's max - min as a finite number.
    """
    if data.n_rows < 2:
        raise DataError(f"{what}: need at least 2 training rows, got {data.n_rows}")
    lo, hi = data.rows.min(axis=0), data.rows.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(hi - lo))
    if wide.size:
        j = int(wide[0])
        raise DataError(
            f"{what}: feature {data.feature_names[j]!r} spans {float(lo[j])!r} to "
            f"{float(hi[j])!r}, a range wider than float64 holds"
        )


def _as_batch(x: np.ndarray, names: tuple[str, ...], what: str) -> np.ndarray:
    """Check a batch against the model's features; reject non-finite cells.

    A NaN would otherwise be scored silently (it fails every comparison),
    yielding a plausible but meaningless score.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    d = len(names)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ModelError(f"{what} expects samples with {d} features, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"{what}: non-finite value at row {i + 1}, column {names[j]!r}")
    return arr


def _one_point(x: np.ndarray, names: tuple[str, ...], what: str) -> np.ndarray:
    """Check one sample against the model's features; returns it as a (d,) array."""
    point = _as_batch(x, names, what)
    if point.shape[0] != 1:
        raise ModelError(f"{what} expects one sample, got {point.shape[0]}")
    return point[0]


def _sweep_input(
    x: np.ndarray, grid: QuantileGrid, names: tuple[str, ...], what: str
) -> np.ndarray:
    """Check one point and its grid's feature count; returns the point as a (d,) array."""
    point = _one_point(x, names, what)
    if grid.n_features != len(names):
        raise ModelError(f"{what}: grid has {grid.n_features} features, model has {len(names)}")
    return point


def _require_keys(doc: object, keys: Sequence[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise ModelError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ModelError(f"{what} is missing {', '.join(map(repr, missing))}")


def _integer(
    value: object, what: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{what!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ModelError(f"{what!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ModelError(f"{what!r} must be <= {maximum}, got {value}")
    return value


def _numbers(value: object, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ModelError(f"{what} is not a numeric array") from None
    if arr.ndim != ndim:
        raise ModelError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _feature_names(value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise ModelError("'feature_names' must be a non-empty list of strings")
    return tuple(value)


def expected_path_length(m: int | np.ndarray) -> np.ndarray:
    """Average unsuccessful-search depth in a random binary search tree of m points.

    Uses exact harmonic numbers, so expected_path_length(2) == 1. Values
    for m <= 1 are 0.
    """
    m_arr = np.atleast_1d(np.asarray(m, dtype=np.int64))
    top = int(m_arr.max(initial=1))
    # harmonic[i] = 1 + 1/2 + ... + 1/i, harmonic[0] = 0
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, max(top, 2)))))
    out = np.zeros(m_arr.shape, dtype=np.float64)
    big = m_arr >= 2
    mb = m_arr[big]
    out[big] = 2.0 * harmonic[mb - 1] - 2.0 * (mb - 1) / mb
    return out if np.ndim(m) else out[0]


class IsolationForest:
    """Ensemble of random binary partition trees; anomalies isolate early.

    Each tree grows on an independent uniform subsample of size psi,
    splitting a uniformly chosen non-constant feature at a uniform point
    between the node's min and max, until a single point remains or depth
    ceil(log2 psi) is reached. Truncated leaves credit the expected
    remaining depth of their subtree size.

    ``score`` maps the mean isolation depth h through 2**(-h / c(psi)),
    giving scores in (0, 1).
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        nodes: _Nodes,
        roots: np.ndarray,
        subsample: int,
        seed: int,
    ) -> None:
        self.feature_names = tuple(feature_names)
        self.subsample = int(subsample)
        self.seed = int(seed)
        self.normalizer = float(expected_path_length(self.subsample))
        self._nodes = nodes
        self._roots = roots
        self._pack()

    @property
    def n_trees(self) -> int:
        return self._roots.size

    # -- fitting ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        data: Dataset,
        trees: int = 100,
        subsample: int = 256,
        seed: int = 0,
    ) -> "IsolationForest":
        """Build ``trees`` isolation trees on subsamples of ``data``.

        Args:
            data: training set, n >= 2 rows.
            trees: ensemble size, >= 1.
            subsample: per-tree sample size psi, 2 to MAX_SUBSAMPLE;
                clamped to n.
            seed: RNG seed; equal seeds give byte-identical models.
        """
        check_forest_params(trees, subsample)
        _check_training(data, "IsolationForest.fit")
        n = data.n_rows
        psi = min(subsample, n)
        depth_limit = math.ceil(math.log2(psi))
        rng = np.random.default_rng(seed)
        grown = []
        for _ in range(trees):
            idx = rng.choice(n, size=psi, replace=False)
            grown.append(_grow_tree(data.rows[idx], rng, depth_limit))
        return cls(data.feature_names, *_concatenate(grown), psi, seed)

    # -- scoring ---------------------------------------------------------

    def _pack(self) -> None:
        """Walker tables over the node columns, for vectorized traversal.

        Leaves self-loop (child = own index, threshold = +inf), so after
        max-depth propagation steps every walker sits on its leaf and the
        precomputed depth-plus-credit can be gathered in one shot.
        """
        feature, threshold, child, size, depth = self._nodes
        credit = expected_path_length(np.arange(self.subsample + 1))
        lengths = np.diff(self._roots, append=feature.size)
        root = np.repeat(self._roots, lengths)
        leaf = child < 0
        self._feature = np.where(leaf, 0, feature)
        self._threshold = np.where(leaf, np.inf, threshold)
        self._child = np.where(leaf, np.arange(feature.size), root + child)
        self._h_final = np.where(leaf, depth + credit[size], 0.0)
        self._max_depth = int(depth.max())
        # every split node as its (feature, tree) pair, numbered feature * n_trees
        # + tree, and its threshold; sorted by pair for score_sweep
        split = np.flatnonzero(~leaf)
        tree = np.repeat(np.arange(self.n_trees), lengths)
        pair = feature[split] * self.n_trees + tree[split]
        order = np.argsort(pair, kind="stable")
        self._split_pair = pair[order]
        self._split_threshold = threshold[split][order]

    def score(self, x: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1) for a batch of samples."""
        batch = _as_batch(x, self.feature_names, "IsolationForest.score")
        m, d = batch.shape
        flat = batch.ravel()
        out = np.empty(m)
        for a in range(0, m, _WALK_BLOCK_ROWS):
            rows = np.arange(a, min(a + _WALK_BLOCK_ROWS, m))
            node = np.broadcast_to(self._roots, (rows.size, self.n_trees))
            out[a : a + rows.size] = self._score_of(self._walk(flat, rows[:, None] * d, node))
        return out

    def score_sweep(self, x: np.ndarray, grid: QuantileGrid) -> np.ndarray:
        """Scores of x with one feature at a time set to each of its grid values.

        Entry [j, k] equals ``score`` of x with feature j replaced by
        ``grid.values[j, k]``, bit for bit. A swept row differs from x in
        one coordinate, so a tree can score it differently only if x's own
        path in that tree splits on the swept feature; every other tree
        keeps x's leaf. Splits are axis-parallel, so within such a
        (feature, tree) pair all values between two consecutive split
        thresholds of that tree on that feature reach one leaf: a grid row
        is non-decreasing, so the pair's thresholds cut it into runs, and
        one walker per run reads the run's first value. Within a
        feature, a new distinct row starts at the first value and wherever
        a run of any of its pairs starts; between two such starts every
        tree reaches the same leaf. Only the distinct rows are built and
        scored, and each score is copied to every value of its row; a
        feature on no tree's path for x is one row, scored as x itself.
        """
        point = _sweep_input(x, grid, self.feature_names, "IsolationForest.score_sweep")
        d, k = grid.values.shape
        n_trees = self.n_trees

        path, h_x = self._path(point)
        split = self._child.take(path) != path  # leaves loop back on themselves
        on_path = np.zeros((d, n_trees), dtype=bool)
        on_path[self._feature.take(path[split]), np.nonzero(split)[1]] = True

        scores = np.empty((d, k))
        per_block = max(1, _BLOCK_ROWS // k)
        for a in range(0, d, per_block):
            n = min(per_block, d - a)
            swept = grid.values[a : a + n]
            # the block's on-path pairs, numbered (j - a) * n_trees + tree, and
            # the split thresholds of each
            block = on_path[a : a + n].ravel()
            pairs = np.flatnonzero(block)
            lo, hi = np.searchsorted(self._split_pair, [a * n_trees, (a + n) * n_trees])
            pair = self._split_pair[lo:hi] - a * n_trees
            mine = block.take(pair)
            pair, threshold = pair[mine], self._split_threshold[lo:hi][mine]
            # Cell (pair, slot) is numbered pair * k + slot. A run starts at slot
            # 0 of every pair and at the slot of each of its thresholds, the
            # first k with swept[j, k] >= threshold (>= goes right); a slot of
            # k starts none. A run ends where the next starts or its pair ends.
            slot = (swept.take(pair // n_trees, axis=0) < threshold[:, None]).sum(axis=1)
            start = np.sort(np.concatenate([pairs * k, (pair * k + slot)[slot < k]]))
            start = start[np.diff(start, prepend=-1) != 0]
            run_pair, run_slot = np.divmod(start, k)
            length = np.minimum(np.append(start[1:], block.size * k), (run_pair + 1) * k) - start
            feat, tree = np.divmod(run_pair, n_trees)
            # Value (j - a, slot) of the sweep is numbered (j - a) * k + slot. A
            # distinct row starts at slot 0 of every feature, whether or not any
            # tree splits on it, and at the first value of every run.
            value = feat * k + run_slot
            fresh = np.zeros(n * k, dtype=bool)
            fresh[::k] = True
            fresh[value] = True
            distinct = np.cumsum(fresh) - 1  # each value's distinct row
            first = np.flatnonzero(fresh)  # each distinct row's first value
            batch = np.tile(point, (first.size, 1))
            batch[np.arange(first.size), a + first // k] = swept.ravel()[first]
            row = distinct[value]
            h_run = self._walk(batch.ravel(), row * d, self._roots[tree])
            # a run holds its tree's cell of distinct rows row .. row + span - 1
            span = distinct[value + length - 1] + 1 - row
            cells = np.repeat((row - np.cumsum(span) + span) * n_trees + tree, span)
            h = np.tile(h_x, (first.size, 1))
            h.reshape(-1)[cells + np.arange(cells.size) * n_trees] = np.repeat(h_run, span)
            scores[a : a + n] = self._score_of(h)[distinct].reshape(n, k)
        return scores

    def _coalition_scorer(
        self, x: np.ndarray, background: np.ndarray
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Scores of the background rows with one coalition's features taken from x.

        The returned function maps a boolean (d,) mask to (n_bg,) scores:
        entry b equals ``score`` of background row b with the features in
        the mask set to x's values, bit for bit. In one tree such a hybrid
        row reaches b's leaf unless b's path splits on a coalition feature
        where x and b go different ways, and x's leaf unless x's path splits
        on a feature outside the coalition where they do. Those features are
        recorded once per (row, tree) as bitmasks; only the pairs that pass
        neither test are walked. The background is walked here, once: every
        call reuses its leaves and bitmasks, which take n_bg * n_trees * (8 +
        16 * ceil(d / 64)) bytes, and only reads them, so several threads may
        call it at once.
        """
        what = "IsolationForest._coalition_scorer"
        point = _one_point(x, self.feature_names, what)
        bg = _as_batch(background, self.feature_names, what)
        d = point.size
        # bit j % 64 of word j // 64 stands for feature j
        words = -(-d // 64)

        path, h_x = self._path(point)
        x_feature, x_threshold = self._feature.take(path), self._threshold.take(path)
        x_right = point.take(x_feature) >= x_threshold

        blocks = []
        for a in range(0, len(bg), _WALK_BLOCK_ROWS):
            block = bg[a : a + _WALK_BLOCK_ROWS]
            rows = len(block)
            base = np.arange(rows)[:, None] * d
            flat = block.ravel()
            # features on b's path where x goes the other way, then on x's path
            # where b goes the other way; leaves compare False on both sides
            off_b = np.zeros((words, rows, self.n_trees), dtype=np.uint64)
            node = np.broadcast_to(self._roots, (rows, self.n_trees))
            for _ in range(self._max_depth):
                feature, threshold = self._feature.take(node), self._threshold.take(node)
                right = flat.take(base + feature) >= threshold
                _mark(off_b, feature, right != (point.take(feature) >= threshold))
                node = self._child.take(node) + right
            h_b = self._h_final.take(node)
            off_x = np.zeros_like(off_b)
            for feature, threshold, right_x in zip(x_feature, x_threshold, x_right):
                right = flat.take(base + feature) >= threshold
                _mark(off_x, np.broadcast_to(feature, right.shape), right != right_x)
            blocks.append((a, block, h_b, off_b, off_x))

        def score_block(mask, inside, outside, block, h_b, off_b, off_x) -> np.ndarray:
            """Scores of one block's hybrid rows: b's leaf, x's leaf, or a walk."""
            # a function of its own, so no block's temporaries outlive it;
            # h is made after the walk, so it and the walk's never coexist
            leaves_b = _any_bit(off_b, inside)
            cell = np.flatnonzero(leaves_b & _any_bit(off_x, outside))
            walked = self._walk(
                np.where(mask, point, block).ravel(),
                cell // self.n_trees * d,
                self._roots.take(cell % self.n_trees),
            )
            h = np.where(leaves_b, h_x, h_b)
            h.put(cell, walked)
            return self._score_of(h)

        def score(mask: np.ndarray) -> np.ndarray:
            padded = np.zeros(words * 64, dtype=bool)
            padded[:d] = mask
            inside = np.packbits(padded, bitorder="little").view("<u8")
            outside = ~inside  # bits past d are never set in a path mask
            out = np.empty(len(bg))
            for a, block, *paths in blocks:
                out[a : a + len(block)] = score_block(mask, inside, outside, block, *paths)
            return out

        return score

    def _path(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A point's node per depth and tree, (max depth, n_trees), and its leaf credits."""
        path = np.empty((self._max_depth, self.n_trees), dtype=self._child.dtype)
        node = self._roots
        for depth in range(self._max_depth):
            path[depth] = node
            right = point.take(self._feature.take(node)) >= self._threshold.take(node)
            node = self._child.take(node) + right
        return path, self._h_final.take(node)

    def _walk(self, flat: np.ndarray, base: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Leaf credit each walker reaches from ``node``; walkers read flat[base + feature]."""
        # ndarray.take is a flat gather like indexing, with less per-call overhead
        for _ in range(self._max_depth):
            go_right = flat.take(base + self._feature.take(node)) >= self._threshold.take(node)
            node = self._child.take(node) + go_right
        return self._h_final.take(node)

    def _score_of(self, h: np.ndarray) -> np.ndarray:
        """Scores from a C-contiguous (rows, n_trees) matrix of leaf credits."""
        return np.exp2(-h.mean(axis=1) / self.normalizer)

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        columns = [column.tolist() for column in self._nodes]
        bounds = np.append(self._roots, self._nodes.feature.size).tolist()
        return {
            "feature_names": list(self.feature_names),
            "subsample": self.subsample,
            "seed": self.seed,
            "n_trees": self.n_trees,
            "trees": [
                {key: column[a:b] for key, column in zip(_Nodes._fields, columns)}
                for a, b in zip(bounds[:-1], bounds[1:])
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "IsolationForest":
        """Rebuild a forest from ``to_dict`` output; ModelError if malformed."""
        _require_keys(doc, ("feature_names", "subsample", "seed", "n_trees", "trees"), "model")
        names = _feature_names(doc["feature_names"])
        subsample = _integer(doc["subsample"], "subsample", minimum=2, maximum=MAX_SUBSAMPLE)
        n_trees = _integer(doc["n_trees"], "n_trees", minimum=1)
        trees = doc["trees"]
        if not isinstance(trees, list) or len(trees) != n_trees:
            raise ModelError(f"'trees' must be a list of n_trees={n_trees} trees")
        nodes, roots = _check_trees(trees, len(names), subsample)
        return cls(names, nodes, roots, subsample, _integer(doc["seed"], "seed"))


def _mark(bits: np.ndarray, feature: np.ndarray, where: np.ndarray) -> None:
    """Set ``feature``'s bit in the (words, rows, trees) masks wherever ``where`` holds."""
    cell = np.flatnonzero(where)
    f = feature[where]
    bits.reshape(bits.shape[0], -1)[f >> 6, cell] |= np.uint64(1) << (f & 63).astype(np.uint64)


def _any_bit(bits: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Where ``bits[w] & words[w]`` is nonzero for some w, over (words, rows, trees) masks."""
    # a uint64 cast to bool is True iff nonzero, so no uint64 temporary is made
    hit = np.bitwise_and(bits[0], words[0], out=np.empty(bits.shape[1:], bool), casting="unsafe")
    for w in range(1, len(bits)):
        hit |= np.bitwise_and(bits[w], words[w], out=np.empty_like(hit), casting="unsafe")
    return hit


class _Nodes(NamedTuple):
    """Node columns of every tree of a forest, concatenated in tree order.

    Within a tree, nodes are in breadth-first order: child[i] is the
    tree-local index of node i's left child, or -1 for a leaf, and the
    right child sits at child[i] + 1. size and depth are kept per node so
    truncated-leaf credits can be recomputed on load.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    size: np.ndarray
    depth: np.ndarray


def _concatenate(trees: Sequence[Sequence[np.ndarray]]) -> tuple[_Nodes, np.ndarray]:
    """Per-tree node columns joined into one ``_Nodes``, with each tree's root offset."""
    lengths = np.asarray([tree[0].size for tree in trees], dtype=np.int64)
    nodes = _Nodes(*(np.concatenate(column) for column in zip(*trees)))
    return nodes, np.cumsum(lengths) - lengths


def _check_trees(trees: list, n_features: int, subsample: int) -> tuple[_Nodes, np.ndarray]:
    """Validate every tree's node arrays, vectorised over their concatenation.

    Beyond the indices staying in range, a child must sit one level below
    its parent and the root at depth 0: that is what guarantees every
    walker in ``score`` reaches a leaf of its own tree. Returns the
    columns, integer ones as int64, and each tree's root offset.
    """
    columns = []
    for t, tree in enumerate(trees):
        _require_keys(tree, _Nodes._fields, f"tree {t}")
        arrays = [_numbers(tree[key], f"tree {t} {key!r}", ndim=1) for key in _Nodes._fields]
        if arrays[0].size == 0 or any(arr.size != arrays[0].size for arr in arrays):
            raise ModelError(f"tree {t}: node arrays must be non-empty and of equal length")
        columns.append(arrays)
    nodes, roots = _concatenate(columns)
    feature, threshold, child, size, depth = nodes
    lengths = np.diff(roots, append=feature.size)
    n_nodes = np.repeat(lengths, lengths)

    def fail(bad: np.ndarray, what: str) -> None:
        if bad.any():
            g = int(np.argmax(bad))
            t = int(np.searchsorted(roots, g, side="right")) - 1
            raise ModelError(f"tree {t} node {g - roots[t]}: {what}")

    for key, arr in (("feature", feature), ("child", child), ("size", size), ("depth", depth)):
        fail(~np.isfinite(arr) | (arr != np.round(arr)), f"{key!r} is not an integer")
    internal = child != -1
    fail(internal & ((child < 1) | (child > n_nodes - 2)), "child index outside the tree")
    fail((feature < 0) | (feature >= n_features), f"feature index outside [0, {n_features})")
    fail(internal & ~np.isfinite(threshold), "non-finite split threshold")
    fail((size < 1) | (size > subsample), f"size outside [1, subsample={subsample}]")
    fail((depth < 0) | (depth >= n_nodes), "depth outside the tree")
    is_root = np.zeros(depth.size, dtype=bool)
    is_root[roots] = True
    fail(is_root & (depth != 0), "root depth is not 0")
    left = (np.repeat(roots, lengths) + child)[internal].astype(np.int64)
    below = depth[internal] + 1
    misplaced = np.zeros(depth.size, dtype=bool)
    misplaced[internal] = (depth[left] != below) | (depth[left + 1] != below)
    fail(misplaced, "children are not one level below their parent")
    feature, child, size, depth = (c.astype(np.int64) for c in (feature, child, size, depth))
    return _Nodes(feature, threshold, child, size, depth), roots


def _grow_tree(points: np.ndarray, rng: np.random.Generator, depth_limit: int) -> _Nodes:
    """Grow one isolation tree over ``points`` in breadth-first layout (see ``_Nodes``)."""
    feature: list[int] = [0]
    threshold: list[float] = [0.0]
    child: list[int] = [-1]
    size: list[int] = [len(points)]
    depth: list[int] = [0]
    queue: deque[tuple[int, np.ndarray, int]] = deque([(0, np.arange(len(points)), 0)])
    while queue:
        me, idx, level = queue.popleft()
        if len(idx) <= 1 or level >= depth_limit:
            continue
        sub = points[idx]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        splittable = np.nonzero(hi > lo)[0]
        if splittable.size == 0:
            continue
        f = int(splittable[rng.integers(splittable.size)])
        p = rng.uniform(lo[f], hi[f])
        go_left = sub[:, f] < p
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:  # float edge: split landed on lo
            continue
        feature[me] = f
        threshold[me] = float(p)
        child[me] = len(feature)
        for rows in (left_idx, right_idx):
            feature.append(0)
            threshold.append(0.0)
            child.append(-1)
            size.append(len(rows))
            depth.append(level + 1)
            queue.append((len(feature) - 1, rows, level + 1))
    return _Nodes(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(child, dtype=np.int64),
        np.asarray(size, dtype=np.int64),
        np.asarray(depth, dtype=np.int64),
    )


class Loda:
    """Ensemble of one-dimensional histograms over sparse random projections.

    Each of M projection vectors has ceil(sqrt(d)) non-zero N(0, 1)
    entries. Training values projected onto each vector fill an
    equal-width histogram spanning [min, max] with add-one smoothing, so
    bin probabilities sum to 1. The anomaly score of a sample is the
    negative mean log bin probability across projections (>= 0, higher =
    more anomalous); out-of-range projections use the nearest edge bin.
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        projections: np.ndarray,
        bin_lo: np.ndarray,
        bin_width: np.ndarray,
        bin_probs: list[np.ndarray],
        seed: int,
    ) -> None:
        self.feature_names = tuple(feature_names)
        self.projections = np.asarray(projections, dtype=np.float64)
        self.bin_lo = np.asarray(bin_lo, dtype=np.float64)
        self.bin_width = np.asarray(bin_width, dtype=np.float64)
        self.bin_probs = [np.asarray(p, dtype=np.float64) for p in bin_probs]
        self.seed = int(seed)
        self._pack()

    @property
    def n_projections(self) -> int:
        return self.projections.shape[0]

    @classmethod
    def fit(
        cls,
        data: Dataset,
        projections: int = 100,
        bins: int = 100,
        seed: int = 0,
    ) -> "Loda":
        """Draw sparse random projections and histogram the projected data.

        A projection with no spread, or too little to split into ``bins``
        bins, collapses to a single-bin histogram.
        """
        check_loda_params(projections, bins)
        _check_training(data, "Loda.fit")
        n, d = data.rows.shape
        rng = np.random.default_rng(seed)
        nnz = math.ceil(math.sqrt(d))
        w = np.zeros((projections, d))
        for i in range(projections):
            cols = rng.choice(d, size=nnz, replace=False)
            w[i, cols] = rng.normal(size=nnz)
        with np.errstate(over="ignore", invalid="ignore"):
            z = data.rows @ w.T  # (n, M)
            lo = z.min(axis=0)
            hi = z.max(axis=0)
            wide = np.flatnonzero(~np.isfinite(hi - lo))
        if wide.size:  # finite features whose weighted sum overflows
            names = [data.feature_names[j] for j in np.flatnonzero(w[wide[0]])]
            raise DataError(
                f"Loda.fit: projection {int(wide[0])} of features {names} overflows float64"
            )
        bin_lo = lo.copy()
        bin_width = np.empty(projections)
        probs: list[np.ndarray] = []
        for i in range(projections):
            bin_width[i] = (hi[i] - lo[i]) / bins
            if bin_width[i] == 0:  # no spread, or too little for float64 to split into bins
                bin_width[i] = 1.0
                probs.append(np.asarray([1.0]))
                continue
            idx = np.clip((z[:, i] - lo[i]) / bin_width[i], 0, bins - 1).astype(np.int64)
            counts = np.bincount(idx, minlength=bins)
            probs.append((counts + 1.0) / (n + bins))
        return cls(data.feature_names, w, bin_lo, bin_width, probs, seed)

    def _pack(self) -> None:
        """Slot layout of the sparse projections and a flat log p table.

        ``_cols[t, i]`` and ``_weights[t, i]`` hold projection i's t-th
        nonzero weight, in column order; shorter projections are padded
        with weight 0 on column 0, which adds only a zero.
        """
        nonzero = self.projections != 0
        slots = int(nonzero.sum(axis=1).max())
        proj, col = np.nonzero(nonzero)  # row-major: column order within a projection
        slot = np.arange(proj.size) - np.searchsorted(proj, proj)
        self._cols = np.zeros((slots, self.n_projections), dtype=np.int64)
        self._weights = np.zeros((slots, self.n_projections))
        self._cols[slot, proj] = col
        self._weights[slot, proj] = self.projections[proj, col]
        n_bins = np.asarray([p.size for p in self.bin_probs], dtype=np.int64)
        self._last_bin = (n_bins - 1).astype(np.float64)
        self._bin_start = np.cumsum(n_bins) - n_bins
        self._log_p = np.log(np.concatenate(self.bin_probs))

    def _project(self, batch: np.ndarray) -> np.ndarray:
        """(rows, M) projections summed slot by slot: a row's z depends on that row alone.

        Gathers from the transposed batch, where each gather copies a
        whole column, and returns a transposed view.
        """
        terms = np.ascontiguousarray(batch.T).take(self._cols, axis=0)  # (slots, M, rows)
        terms *= self._weights[:, :, None]
        z = np.zeros((self.n_projections, batch.shape[0]))
        for term in terms:
            z += term
        return z.T

    def _log_p_at(self, z: np.ndarray, proj: slice | np.ndarray) -> np.ndarray:
        """log p of the bin each projected value falls in.

        ``proj`` indexes the projection of every entry of z, broadcasting
        against it. Positions are clipped to the edge bins while still
        floats, so a projection far outside [lo, lo + bins * width], or a
        quotient that overflows, lands in the edge bin on its own side; a
        NaN projection (inf - inf after an overflow) lands in the first.
        """
        q = (z - self.bin_lo[proj]) / self.bin_width[proj]
        np.floor(q, out=q)
        np.fmax(q, 0.0, out=q)
        np.minimum(q, self._last_bin[proj], out=q)
        return self._log_p.take(self._bin_start[proj] + q.astype(np.int64))

    def score(self, x: np.ndarray) -> np.ndarray:
        """Negative mean log bin probability across projections (>= 0)."""
        batch = _as_batch(x, self.feature_names, "Loda.score")
        out = np.empty(batch.shape[0])
        rows = max(1, _PROJECT_CELLS // max(1, self._cols.size))
        # an overflowing projection lands in an edge bin (see _log_p_at)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(0, batch.shape[0], rows):
                log_p = self._log_p_at(self._project(batch[a : a + rows]), slice(None))
                out[a : a + log_p.shape[0]] = self._score_of(log_p)
        return out

    def score_sweep(self, x: np.ndarray, grid: QuantileGrid) -> np.ndarray:
        """Scores of x with one feature at a time set to each of its grid values.

        Entry [j, k] equals ``score`` of x with feature j replaced by
        ``grid.values[j, k]``, bit for bit. A swept row differs from x in one
        coordinate, so only the projections with a nonzero weight on the
        swept feature are recomputed, in the same slot order as
        ``score``; every other projection keeps x's bin.
        """
        point = _sweep_input(x, grid, self.feature_names, "Loda.score_sweep")
        d, k = grid.values.shape
        m = self.n_projections
        out = np.empty((d, k))
        with np.errstate(over="ignore", invalid="ignore"):  # as in score
            log_p_x = self._log_p_at(self._project(point[None, :]), slice(None))[0]
            terms = point[self._cols] * self._weights  # x's product in every (slot, projection)
            # before[t]: x's projections summed over slots < t, in _project's order
            before = np.zeros_like(terms)
            np.cumsum(terms[:-1], axis=0, out=before[1:])
            slot, proj = np.nonzero(self._weights)  # ordered by slot
            feat = self._cols[slot, proj]
            per_block = max(1, _BLOCK_ROWS // k)
            for a in range(0, d, per_block):
                n = min(per_block, d - a)
                mine = (feat >= a) & (feat < a + n)
                f, s, p = feat[mine], slot[mine], proj[mine]
                # x's sum up to the swept slot plus the swept product, then the
                # later slots in order; entries swept before slot t are a prefix
                z = before[s, p][:, None] + grid.values[f] * self._weights[s, p][:, None]
                for t in range(1, terms.shape[0]):
                    behind = np.searchsorted(s, t)
                    z[:behind] += terms[t, p[:behind]][:, None]
                log_p = np.tile(log_p_x, (n * k, 1))
                at = ((f - a) * k * m + p)[:, None] + np.arange(0, k * m, m)
                log_p.reshape(-1)[at] = self._log_p_at(z, p[:, None])
                out[a : a + n] = self._score_of(log_p).reshape(n, k)
        return out

    @staticmethod
    def _score_of(log_p: np.ndarray) -> np.ndarray:
        """Scores from a (rows, M) matrix of log bin probabilities.

        The mean of a C-contiguous row sums in one fixed order. Negating
        after the mean keeps a score of -0.0 where every p is 1; the
        mean of -log p would give +0.0.
        """
        return -np.ascontiguousarray(log_p).mean(axis=1)

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "seed": self.seed,
            "projections": [[float(v) for v in row] for row in self.projections],
            "histograms": [
                {
                    "lo": float(self.bin_lo[i]),
                    "width": float(self.bin_width[i]),
                    "probs": [float(v) for v in self.bin_probs[i]],
                }
                for i in range(self.n_projections)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Loda":
        """Rebuild a LODA model from ``to_dict`` output; ModelError if malformed."""
        _require_keys(doc, ("feature_names", "seed", "projections", "histograms"), "model")
        names = _feature_names(doc["feature_names"])
        projections = _numbers(doc["projections"], "'projections'", ndim=2)
        m = projections.shape[0]
        if m < 1 or projections.shape[1] != len(names):
            raise ModelError(
                f"'projections' must be (M >= 1, {len(names)}), got shape {projections.shape}"
            )
        if not np.isfinite(projections).all():
            raise ModelError("'projections' holds a non-finite weight")
        hists = doc["histograms"]
        if not isinstance(hists, list) or len(hists) != m:
            raise ModelError(f"'histograms' must be a list of {m} histograms, one per projection")
        for i, h in enumerate(hists):
            _require_keys(h, ("lo", "width", "probs"), f"histogram {i}")
        lo = _numbers([h["lo"] for h in hists], "histogram 'lo'", ndim=1)
        width = _numbers([h["width"] for h in hists], "histogram 'width'", ndim=1)
        if not (np.isfinite(lo).all() and np.isfinite(width).all() and (width > 0).all()):
            raise ModelError("histogram 'lo' must be finite and 'width' finite and positive")
        probs = [_numbers(h["probs"], f"histogram {i} 'probs'", ndim=1) for i, h in enumerate(hists)]
        for i, p in enumerate(probs):
            if p.size == 0 or not ((p > 0) & (p <= 1)).all():
                raise ModelError(f"histogram {i} 'probs' must be non-empty and in (0, 1]")
        return cls(names, projections, lo, width, probs, _integer(doc["seed"], "seed"))


# Version 2 adds the optional "grid": the (d, K) quantile values of the
# training data. They are stored alone: a QuantileGrid derives its K
# levels from the width of its values, so they come back bit for bit.
# Version 1 documents still load, without a grid.
MODEL_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_MODEL_TYPES = {"iforest": IsolationForest, "loda": Loda}

Detector = IsolationForest | Loda


def bound_detector(scorer: object) -> Detector | None:
    """The built-in detector whose own bound ``score`` ``scorer`` is, else None.

    A wrapper around it (a lambda, an evaluation counter, a tracer) is
    not the bound method, so callers keep one scorer call per batch for it.
    """
    owner = getattr(scorer, "__self__", None)
    if isinstance(owner, Detector) and scorer == owner.score:
        return owner
    return None


class SavedModel(NamedTuple):
    """A model document: detector, threshold, contamination and training grid."""

    detector: Detector
    threshold: float
    contamination: float
    grid: QuantileGrid | None  # None in a document saved without one


def save_model(
    detector: Detector,
    threshold: float,
    contamination: float,
    path: str | Path,
    grid: QuantileGrid | None = None,
) -> None:
    """Persist a fitted detector plus its classification threshold as JSON.

    ``grid``, the quantile grid of the training data, is stored with it
    when given; explanations then sweep the training distribution.
    """
    for name, klass in _MODEL_TYPES.items():
        if isinstance(detector, klass):
            model_type = name
            break
    else:
        raise ModelError(f"unsupported detector type {type(detector).__name__}")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": model_type,
        "threshold": float(threshold),
        "contamination": float(contamination),
        "model": detector.to_dict(),
    }
    if grid is not None:
        if grid.n_features != len(detector.feature_names):
            raise ModelError(
                f"grid has {grid.n_features} features, model has {len(detector.feature_names)}"
            )
        doc["grid"] = grid.values.tolist()
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> tuple[Detector, float, float]:
    """Load a model JSON; returns (detector, threshold, contamination)."""
    return read_model(path)[:3]


def read_model(path: str | Path) -> SavedModel:
    """Load a model JSON with its training grid; ModelError if malformed.

    A stored grid must have d rows and be a valid ``QuantileGrid``: K >= 2,
    finite, and non-decreasing along each feature.
    """
    path = Path(path)
    if not path.is_file():
        raise ModelError(f"no such model file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelError(f"{path}: not a model document")
    version = doc["format_version"]
    if type(version) is not int or version not in _READABLE_VERSIONS:  # true == 1 in Python
        raise ModelError(f"{path}: unsupported format version {doc['format_version']}")
    model_type = doc.get("model_type")
    klass = _MODEL_TYPES.get(model_type) if isinstance(model_type, str) else None
    if klass is None:
        raise ModelError(f"{path}: unknown model type {doc.get('model_type')!r}")
    try:
        _require_keys(doc, ("threshold", "contamination", "model"), "model document")
        threshold = _numbers(doc["threshold"], "'threshold'", ndim=0)
        contamination = _numbers(doc["contamination"], "'contamination'", ndim=0)
        if not np.isfinite(threshold) or not 0.0 < contamination < 1.0:
            raise ModelError("'threshold' must be finite and 'contamination' in (0, 1)")
        detector = klass.from_dict(doc["model"])
        grid = _grid(doc["grid"], len(detector.feature_names)) if "grid" in doc else None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    return SavedModel(detector, float(threshold), float(contamination), grid)


def _grid(value: object, d: int) -> QuantileGrid:
    values = _numbers(value, "'grid'", ndim=2)
    if values.shape[0] != d:
        raise ModelError(f"'grid' must be ({d}, K >= 2), got shape {values.shape}")
    try:
        return QuantileGrid(values)
    except ValueError as exc:
        raise ModelError(f"'grid': {exc}") from None


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based average precision of ``scores`` against binary ``labels``.

    Ranks descending by score (ties broken by original order); AP is the
    mean, over positives, of precision at each positive's rank.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be 1-d and the same length")
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("average precision is undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    hits = np.cumsum(ranked == 1)
    ranks = np.arange(1, labels.size + 1)
    precision_at_hit = (hits / ranks)[ranked == 1]
    return float(precision_at_hit.sum() / n_pos)
