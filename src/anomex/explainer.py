"""Local what-if explanations from one-feature quantile sweeps.

To explain the anomaly score of a point x, each feature j in turn is
swept across its empirical quantile grid while every other feature stays
fixed at x's value. The resulting score trace per feature is condensed
into four bounded metrics:

- delta: score leverage — the max-minus-min of the trace, normalized
  across features by the largest such span in this explanation.
- ratio: how far the original score sits above the lowest score the
  sweep can reach, relative to the trace's span.
- class_change: 1 if some swept value lands on the other side of the
  classification threshold than x itself, else 0.
- change_distance: 1 minus the smallest quantile-level distance from
  x's own level to a level that changes the classification; 0 when no
  sweep value changes it.

Feature importance is the convex combination of the four, with weights
summing to one; features are ranked by descending importance (ties by
feature index). An explanation of a d-feature point over a K-level grid
costs exactly d*K + 1 evaluations of a generic scorer. The sweep is one
(d, K) score matrix, and the metrics of all features are computed over
it at once.

A built-in detector's own bound ``score`` (IsolationForest or Loda) is
the one exception: it reaches the same scores, bit for bit, through the
detector's ``score_sweep``, which recomputes only what the swept feature
can change: the trees whose path for x splits on it, or the projections
with a nonzero weight on it. Any wrapper around it (a lambda, an
evaluation counter, a tracer) takes the generic path and sees all
d*K + 1 evaluations. Every scorer output is checked for one finite score
per sample; anything else is a NumericError.

``PerturbationCurve`` and ``FeatureMetrics`` are per-feature views of
that matrix and of the metric columns, kept as the fields of a
``LocalExplanation`` for reports and charts; there is no per-feature
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from anomex.data import Classification, QuantileGrid, Scorer, checked_scores, classify, levels_of
from anomex.detectors import bound_detector

WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Weights:
    """Convex weights over the four metrics; must be >= 0 and sum to 1."""

    delta: float = 0.3
    class_change: float = 0.3
    change_distance: float = 0.2
    ratio: float = 0.2

    def __post_init__(self) -> None:
        vals = (self.delta, self.class_change, self.change_distance, self.ratio)
        if any(w < 0 for w in vals):
            raise ValueError(f"weights must be non-negative, got {vals}")
        total = sum(vals)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got sum={total!r}")


def validate_weights(values: Sequence[float]) -> Weights:
    """Build Weights from (delta, class_change, change_distance, ratio) order."""
    vals = [float(v) for v in values]
    if len(vals) != 4:
        raise ValueError(f"expected 4 weights, got {len(vals)}")
    return Weights(*vals)


@dataclass(frozen=True, eq=False)
class PerturbationCurve:
    """Scores obtained by sweeping one feature over the grid levels."""

    feature: int
    levels: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class FeatureMetrics:
    """One feature's metrics; ``delta`` is ``raw_delta`` normalized across
    all features of the explanation."""

    raw_delta: float
    ratio: float
    class_change: float
    change_distance: float
    delta: float


@dataclass(frozen=True, eq=False)
class LocalExplanation:
    """Full what-if record for one explained point."""

    point: np.ndarray
    score: float
    classification: Classification
    threshold: float
    weights: Weights
    feature_names: tuple[str, ...]
    point_levels: np.ndarray
    curves: tuple[PerturbationCurve, ...]
    metrics: tuple[FeatureMetrics, ...]
    importance: np.ndarray
    ranking: tuple[int, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _curve_scores(scorer: Scorer, x: np.ndarray, feature: int, grid: QuantileGrid) -> np.ndarray:
    """Scores of x, a point from ``_as_point``, with ``feature`` at each grid level."""
    batch = np.repeat(x[None, :], grid.n_levels, axis=0)
    batch[:, feature] = grid.values[feature]
    return checked_scores(
        scorer(batch), grid.n_levels,
        lambda k: f"feature {feature} at level {grid.levels[k]:g}",
    )


def _sweep_metrics(
    sweep: np.ndarray,
    point_score: float,
    threshold: float,
    levels: np.ndarray,
    point_levels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw delta, ratio, class change and change distance of every row of a (d, K) sweep."""
    lo = sweep.min(axis=1)
    raw_delta = sweep.max(axis=1) - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(raw_delta > 0.0, np.clip((point_score - lo) / raw_delta, 0.0, 1.0), 0.0)
    flips = (sweep > threshold) != (point_score > threshold)
    changes = flips.any(axis=1)
    nearest = np.where(flips, np.abs(levels - point_levels[:, None]), np.inf).min(axis=1)
    change_distance = np.where(changes, 1.0 - nearest, 0.0)
    return raw_delta, ratio, changes.astype(np.float64), change_distance


class _Ranked(NamedTuple):
    """What one explanation computes, before the per-feature views."""

    score: float
    sweep: np.ndarray  # (d, K) scores
    point_levels: np.ndarray
    metrics: tuple[np.ndarray, ...]  # raw delta, ratio, class change, change distance, delta
    importance: np.ndarray
    ranking: tuple[int, ...]


def _as_point(x: np.ndarray, grid: QuantileGrid) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != grid.n_features:
        raise ValueError(f"point has {x.size} features but grid has {grid.n_features}")
    return x


def _rank_features(
    scorer: Scorer,
    x: np.ndarray,
    grid: QuantileGrid,
    weights: Weights,
    threshold: float,
) -> _Ranked:
    """Score x and its (d, K) sweep; metrics, importance and ranking over it at once.

    ``x`` comes from ``_as_point``. Shared by ``explain`` and by callers
    that need only the ranking, which skip the per-feature objects.
    """
    s_x = float(checked_scores(scorer(x[None, :]), 1, lambda _: "the explained point")[0])
    detector = bound_detector(scorer)
    if detector is not None:
        sweep = detector.score_sweep(x, grid.values)
    else:
        sweep = np.stack([_curve_scores(scorer, x, j, grid) for j in range(grid.n_features)])

    point_levels = levels_of(grid, x)
    raw_delta, ratio, class_change, change_distance = _sweep_metrics(
        sweep, s_x, threshold, grid.levels, point_levels
    )
    max_raw = float(raw_delta.max())
    delta = raw_delta / max_raw if max_raw > 0.0 else np.zeros(grid.n_features)
    importance = (
        weights.delta * delta
        + weights.class_change * class_change
        + weights.change_distance * change_distance
        + weights.ratio * ratio
    )
    return _Ranked(
        score=s_x,
        sweep=sweep,
        point_levels=point_levels,
        metrics=(raw_delta, ratio, class_change, change_distance, delta),
        importance=importance,
        ranking=tuple(np.argsort(-importance, kind="stable").tolist()),
    )


def explain(
    scorer: Scorer,
    x: np.ndarray,
    grid: QuantileGrid,
    weights: Weights,
    threshold: float,
    *,
    feature_names: Sequence[str] | None = None,
) -> LocalExplanation:
    """Explain the anomaly score of ``x``: curves, metrics, ranking.

    Performs exactly d*K + 1 scorer evaluations (one per feature-level
    pair plus one for the point itself), except that a built-in
    detector's bound ``score`` sweeps through its ``score_sweep`` (see
    the module docstring).

    Args:
        scorer: batch scoring function, higher = more anomalous.
        x: the point to explain, shape (d,).
        grid: quantile grid built on the training data.
        weights: convex metric weights.
        threshold: classification cutoff (strictly above = anomalous).
        feature_names: labels for reports; defaults to f0..f{d-1}.
    """
    if not isinstance(weights, Weights):
        weights = validate_weights(weights)
    x = _as_point(x, grid)
    d = grid.n_features
    if feature_names is None:
        names = tuple(f"f{j}" for j in range(d))
    else:
        names = tuple(str(n) for n in feature_names)
        if len(names) != d:
            raise ValueError(f"{len(names)} feature names for {d} features")

    ranked = _rank_features(scorer, x, grid, weights, threshold)
    return LocalExplanation(
        point=x.copy(),
        score=ranked.score,
        classification=classify(ranked.score, threshold),
        threshold=threshold,
        weights=weights,
        feature_names=names,
        point_levels=ranked.point_levels,
        curves=tuple(PerturbationCurve(j, grid.levels, ranked.sweep[j]) for j in range(d)),
        metrics=tuple(FeatureMetrics(*m) for m in zip(*(c.tolist() for c in ranked.metrics))),
        importance=ranked.importance,
        ranking=ranked.ranking,
    )


def explanation_to_dict(expl: LocalExplanation, point_id: int | str | None = None) -> dict:
    """JSON-ready document for one local explanation."""
    rank_of = {j: pos + 1 for pos, j in enumerate(expl.ranking)}
    return {
        "method": "acme_ad",
        "point_id": point_id,
        "score": expl.score,
        "threshold": expl.threshold,
        "classification": expl.classification.value,
        "weights": {
            "D": expl.weights.delta,
            "C": expl.weights.class_change,
            "Q": expl.weights.change_distance,
            "R": expl.weights.ratio,
        },
        "features": [
            {
                "name": expl.feature_names[j],
                "level_of_x": float(expl.point_levels[j]),
                "curve": [
                    [float(lv), float(sc)]
                    for lv, sc in zip(expl.curves[j].levels, expl.curves[j].scores)
                ],
                "metrics": {
                    "D": expl.metrics[j].delta,
                    "R": expl.metrics[j].ratio,
                    "C": expl.metrics[j].class_change,
                    "Q": expl.metrics[j].change_distance,
                    "raw_delta": expl.metrics[j].raw_delta,
                },
                "importance": float(expl.importance[j]),
                "rank": rank_of[j],
            }
            for j in range(expl.n_features)
        ],
    }
