"""Overall feature importance from rank positions across all anomalies.

Every point the detector flags gets a local explanation; the per-point
feature rankings are then histogrammed by rank position. Entry [j, k] of
the resulting matrix is the fraction of flagged points whose local
ranking put feature j at position k+1, so every column sums to one.
Features that never clear a visibility cutoff at any retained position
can be merged into a synthetic ``others`` row for readable charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from anomex.data import Dataset, QuantileGrid, Scorer, checked_scores
from anomex.errors import DataError
from anomex.explainer import Weights, check_threshold, explain, validate_weights

OTHERS_NAME = "others"
DEFAULT_CUTOFF = 0.05


@dataclass(frozen=True, eq=False)
class RankHistogram:
    """Feature-by-rank-position share matrix over the explained anomalies."""

    feature_names: tuple[str, ...]
    matrix: np.ndarray  # (len(feature_names), positions), columns sum to 1
    n_anomalies: int

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.feature_names):
            raise ValueError(f"matrix shape {matrix.shape} does not match feature names")
        if self.n_anomalies < 1:
            raise ValueError("need at least one anomaly")
        if ((matrix < -1e-9) | (matrix > 1 + 1e-9)).any():
            raise ValueError("histogram entries must lie in [0, 1]")
        sums = matrix.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError(f"histogram columns must sum to 1, got {sums}")
        matrix = np.ascontiguousarray(matrix)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_positions(self) -> int:
        return self.matrix.shape[1]


def _check_positions(top_positions: int) -> None:
    if top_positions < 1:
        raise ValueError(f"top_positions must be >= 1, got {top_positions}")


def rank_histogram(
    rankings: Sequence[Sequence[int]],
    feature_names: Sequence[str],
    top_positions: int,
) -> RankHistogram:
    """Histogram feature indices over the first ``top_positions`` ranks.

    Each ranking must be a permutation prefix of the feature indices;
    every ranking contributes exactly one unit of mass per position.
    """
    names = tuple(feature_names)
    d = len(names)
    if not rankings:
        raise ValueError("no rankings to aggregate")
    _check_positions(top_positions)
    positions = min(top_positions, d)
    counts = np.zeros((d, positions))
    for ranking in rankings:
        if len(ranking) < positions:
            raise ValueError("ranking shorter than the requested positions")
        for k in range(positions):
            counts[ranking[k], k] += 1.0
    return RankHistogram(names, counts / len(rankings), len(rankings))


def overall_importance(
    scorer: Scorer,
    data: Dataset,
    grid: QuantileGrid,
    weights: Weights,
    threshold: float,
    top_positions: int | None = None,
    *,
    scores: np.ndarray | None = None,
) -> RankHistogram:
    """Explain every point scoring above the threshold; aggregate rankings.

    Flagged points are explained one after another in row order, and
    their rankings are reduced in that order. Raises DataError when the
    detector flags nothing, rather than returning an empty histogram.
    ``scores``, the scorer's scores of ``data.rows`` when the caller has
    them already, saves scoring the data again. ``top_positions``,
    ``weights`` and ``threshold`` are checked before anything is scored.
    """
    if top_positions is None:
        top_positions = min(data.n_features, 10)
    _check_positions(top_positions)
    if not isinstance(weights, Weights):
        weights = validate_weights(weights)
    check_threshold(threshold)
    if scores is None:
        scores = scorer(data.rows)
    scores = checked_scores(scores, data.n_rows, lambda i: f"row {i}")
    flagged = np.nonzero(scores > threshold)[0]
    if flagged.size == 0:
        raise DataError("no anomalies detected")
    rankings = [explain(scorer, data.rows[i], grid, weights, threshold).ranking for i in flagged]
    return rank_histogram(rankings, data.feature_names, top_positions)


def merge_others(hist: RankHistogram, cutoff: float = DEFAULT_CUTOFF) -> RankHistogram:
    """Fold features below ``cutoff`` at every position into ``others``.

    A feature is retained if it reaches the cutoff at at least one
    position; the merged row preserves column sums. With nothing to
    merge the input is returned unchanged.
    """
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    keep = hist.matrix.max(axis=1) >= cutoff
    if keep.all():
        return hist
    kept_names = [hist.feature_names[j] for j in np.nonzero(keep)[0]]
    if OTHERS_NAME in kept_names:
        raise ValueError(f"cannot merge: a feature is already named {OTHERS_NAME!r}")
    merged = np.vstack([hist.matrix[keep], hist.matrix[~keep].sum(axis=0)])
    return RankHistogram(tuple(kept_names) + (OTHERS_NAME,), merged, hist.n_anomalies)


def histogram_to_dict(hist: RankHistogram) -> dict:
    """JSON-ready document: {features, positions, matrix, n_anomalies}."""
    return {
        "features": list(hist.feature_names),
        "positions": list(range(1, hist.n_positions + 1)),
        "matrix": [[float(v) for v in row] for row in hist.matrix],
        "n_anomalies": hist.n_anomalies,
    }
