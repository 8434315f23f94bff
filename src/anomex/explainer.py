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
d*K + 1 evaluations; ``threads`` has no effect on the detector path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from anomex.data import Classification, QuantileGrid, Scorer, classify, levels_of
from anomex.detectors import Detector
from anomex.errors import NumericError

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
    """Per-feature metric bundle; ``delta`` is filled in by ``explain``
    because it is normalized across all features of one explanation."""

    raw_delta: float
    ratio: float
    class_change: float
    change_distance: float
    delta: float | None = None


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


def perturbation_curve(
    scorer: Scorer,
    x: np.ndarray,
    feature: int,
    grid: QuantileGrid,
) -> PerturbationCurve:
    """Score x with ``feature`` forced to each grid value, others fixed.

    Exactly one scorer evaluation per grid level; x is never mutated.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    d = grid.n_features
    if x.size != d:
        raise ValueError(f"point has {x.size} features but grid has {d}")
    if not 0 <= feature < d:
        raise ValueError(f"feature index {feature} out of range [0, {d})")
    batch = np.repeat(x[None, :], grid.n_levels, axis=0)
    batch[:, feature] = grid.values[feature]
    scores = np.asarray(scorer(batch), dtype=np.float64).ravel()
    if scores.size != grid.n_levels:
        raise NumericError(
            f"scorer returned {scores.size} scores for {grid.n_levels} samples"
        )
    finite = np.isfinite(scores)
    if not finite.all():
        k = int(np.nonzero(~finite)[0][0])
        raise NumericError(
            f"scorer returned non-finite score for feature {feature} "
            f"at level {grid.levels[k]:g}"
        )
    return PerturbationCurve(feature, grid.levels, scores)


def feature_metrics(
    curve: PerturbationCurve,
    point_score: float,
    threshold: float,
    point_level: float,
) -> FeatureMetrics:
    """Condense one perturbation curve into the raw metric bundle.

    ``delta`` stays unset here; it requires the raw spans of every other
    feature in the explanation.
    """
    scores = np.asarray(curve.scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty perturbation curve")
    columns = _sweep_metrics(
        scores[None, :], point_score, threshold, curve.levels, np.asarray([point_level])
    )
    return FeatureMetrics(*(float(c[0]) for c in columns))


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


def explain(
    scorer: Scorer,
    x: np.ndarray,
    grid: QuantileGrid,
    weights: Weights,
    threshold: float,
    *,
    feature_names: Sequence[str] | None = None,
    threads: int = 1,
) -> LocalExplanation:
    """Explain the anomaly score of ``x``: curves, metrics, ranking.

    Performs exactly d*K + 1 scorer evaluations (one per feature-level
    pair plus one for the point itself), except that a built-in
    detector's bound ``score`` sweeps through its ``score_sweep`` (see
    the module docstring). With ``threads`` > 1 per-feature curves of
    other scorers are computed concurrently; the result is identical
    either way.

    Args:
        scorer: batch scoring function, higher = more anomalous.
        x: the point to explain, shape (d,).
        grid: quantile grid built on the training data.
        weights: convex metric weights.
        threshold: classification cutoff (strictly above = anomalous).
        feature_names: labels for reports; defaults to f0..f{d-1}.
        threads: worker threads for the per-feature sweeps.
    """
    if not isinstance(weights, Weights):
        weights = validate_weights(weights)
    x = np.asarray(x, dtype=np.float64).ravel()
    d = grid.n_features
    if x.size != d:
        raise ValueError(f"point has {x.size} features but grid has {d}")
    if feature_names is None:
        names = tuple(f"f{j}" for j in range(d))
    else:
        names = tuple(str(n) for n in feature_names)
        if len(names) != d:
            raise ValueError(f"{len(names)} feature names for {d} features")

    s_x = float(np.asarray(scorer(x[None, :]), dtype=np.float64).ravel()[0])
    if not np.isfinite(s_x):
        raise NumericError("scorer returned a non-finite score for the explained point")

    def curve(j: int) -> np.ndarray:
        return perturbation_curve(scorer, x, j, grid).scores

    owner = getattr(scorer, "__self__", None)
    if isinstance(owner, Detector) and scorer == owner.score:
        # a built-in detector's own bound score, not a wrapper: same scores, less work
        sweep = owner.score_sweep(x, grid.values)
    elif threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sweep = np.stack(list(pool.map(curve, range(d))))
    else:
        sweep = np.stack([curve(j) for j in range(d)])

    point_levels = levels_of(grid, x)
    raw_delta, ratio, class_change, change_distance = _sweep_metrics(
        sweep, s_x, threshold, grid.levels, point_levels
    )
    max_raw = float(raw_delta.max())
    delta = raw_delta / max_raw if max_raw > 0.0 else np.zeros(d)
    importance = (
        weights.delta * delta
        + weights.class_change * class_change
        + weights.change_distance * change_distance
        + weights.ratio * ratio
    )
    columns = (raw_delta, ratio, class_change, change_distance, delta)
    return LocalExplanation(
        point=x.copy(),
        score=s_x,
        classification=classify(s_x, threshold),
        threshold=threshold,
        weights=weights,
        feature_names=names,
        point_levels=point_levels,
        curves=tuple(PerturbationCurve(j, grid.levels, sweep[j]) for j in range(d)),
        metrics=tuple(FeatureMetrics(*m) for m in zip(*(c.tolist() for c in columns))),
        importance=importance,
        ranking=tuple(np.argsort(-importance, kind="stable").tolist()),
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
