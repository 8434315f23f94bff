"""Model-agnostic KernelSHAP baseline with background subsampling.

Attributions come from a weighted least-squares fit over feature
coalitions: for a coalition, present features keep x's values and the
absent ones are replaced by each background row in turn, with the scores
averaged (the expectation over the background is exact, which is what
ties the cost to the background size). The empty and full coalitions are
enforced as constraints, so phi0 + sum(phi) always equals the score of x
up to solver precision.

For d <= 16 with a coalition budget of at least 2^d, all coalitions are
enumerated and weighted by the exact Shapley kernel, which makes the
result equal to brute-force Shapley values. Otherwise interior
coalitions are sampled with probability proportional to the kernel mass
of their size.

A generic scorer is called once per coalition on all the hybrid rows.
An Isolation Forest's own bound ``score`` is the one exception: it
reaches the same values, bit for bit, through the path-local scorer
behind the forest's ``score_coalitions``: it walks the background once,
then scores one coalition at a time, walking a (row, tree) pair only
when the hybrid row can leave both the background row's path and x's
path. Any wrapper around it (a lambda, an evaluation counter, a tracer)
and LODA keep one call per coalition. Either way the cost stays linear
in the background size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from anomex.data import Dataset, Scorer, checked_scores
from anomex.detectors import IsolationForest, bound_detector
from anomex.errors import NumericError

EXACT_ENUMERATION_MAX_D = 16
RIDGE_DAMPING = 1e-8

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ShapExplanation:
    """Additive attribution of one point's score over the background."""

    base_value: float  # mean score over the background
    phi: np.ndarray  # per-feature attributions, length d
    score: float  # score of the explained point
    coalitions: int  # coalition evaluations, trivial ones included
    background_size: int


def default_coalitions(d: int) -> int:
    return 2 * d + 2048


def sample_background(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform sample without replacement of floor(fraction * n) rows (>= 1)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = data.n_rows
    size = max(1, math.floor(fraction * n))
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=size, replace=False)
    labels = data.labels[idx] if data.labels is not None else None
    return Dataset(data.feature_names, data.rows[idx], labels)


def _shapley_kernel(d: int, size: int) -> float:
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _enumerated_coalitions(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every interior coalition, the i-th one being i in binary, and its kernel weight."""
    masks = ((np.arange(1, 2**d - 1)[:, None] >> np.arange(d)) & 1).astype(bool)
    kernel = np.asarray([0.0] + [_shapley_kernel(d, s) for s in range(1, d)])
    return masks, kernel[masks.sum(axis=1)]


def kernel_shap(
    scorer: Scorer,
    x: np.ndarray,
    background: Dataset,
    coalitions: int | None = None,
    seed: int = 0,
) -> ShapExplanation:
    """Estimate Shapley attributions of ``scorer`` at ``x``.

    Args:
        scorer: batch scoring function.
        x: point to explain, shape (d,).
        background: dataset defining the masked-feature expectation.
        coalitions: evaluation budget; defaults to 2d + 2048. Budgets of
            at least 2^d (d <= 16) switch to exact enumeration.
        seed: RNG seed for coalition sampling.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    d = background.n_features
    if x.size != d:
        raise ValueError(f"point has {x.size} features but background has {d}")
    if coalitions is None:
        coalitions = default_coalitions(d)
    if coalitions < 2:
        raise ValueError(f"coalition budget must be >= 2, got {coalitions}")

    bg = background.rows
    base_value = float(checked_scores(scorer(bg), len(bg), lambda b: f"background row {b}").mean())
    score = float(checked_scores(scorer(x[None, :]), 1, lambda _: "the explained point")[0])

    if d == 1:
        # Constraint alone determines the single attribution.
        return ShapExplanation(base_value, np.asarray([score - base_value]), score, 2, len(bg))

    exact = d <= EXACT_ENUMERATION_MAX_D and coalitions >= 2**d
    if exact:
        masks, weights = _enumerated_coalitions(d)
    else:
        rng = np.random.default_rng(seed)
        interior = coalitions - 2
        size_mass = np.asarray([(d - 1) / (s * (d - s)) for s in range(1, d)])
        size_mass /= size_mass.sum()
        drawn_sizes = rng.choice(np.arange(1, d), size=interior, p=size_mass)
        masks = np.zeros((interior, d), dtype=bool)
        for i, s in enumerate(drawn_sizes):
            masks[i, rng.choice(d, size=int(s), replace=False)] = True
        # Sampling frequency already carries the kernel, so fit weights are flat.
        weights = np.ones(interior)

    values = np.empty(len(masks))
    for i, v in enumerate(_coalition_scores(scorer, x, bg, masks)):
        values[i] = checked_scores(
            v, len(bg), lambda b: f"coalition {i} on background row {b}"
        ).mean()

    phi = _constrained_wls(masks, values, weights, base_value, score)
    n_evals = len(masks) + 2
    return ShapExplanation(base_value, phi, score, n_evals, len(bg))


def _coalition_scores(
    scorer: Scorer, x: np.ndarray, bg: np.ndarray, masks: np.ndarray
) -> Iterator[np.ndarray]:
    """Background scores of each coalition's hybrid rows, in mask order.

    A forest's own bound ``score`` evaluates them path-locally: it walks
    the background once, then scores one mask at a time. Any other scorer
    gets one call per coalition.
    """
    forest = bound_detector(scorer)
    if isinstance(forest, IsolationForest):
        yield from map(forest._coalition_scorer(x, bg), masks)
        return
    hybrid = np.empty_like(bg)
    for mask in masks:
        hybrid[:] = bg
        hybrid[:, mask] = x[mask]
        yield scorer(hybrid)


def _constrained_wls(
    masks: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    base_value: float,
    score: float,
) -> np.ndarray:
    """Weighted least squares with the full-coalition sum constraint.

    The last attribution is eliminated through sum(phi) = score - base,
    leaving an unconstrained (d-1)-variable problem. A singular normal
    system falls back to ridge damping.
    """
    z = masks.astype(np.float64)
    d = z.shape[1]
    gap = score - base_value
    a = z[:, :-1] - z[:, -1:]
    b = values - base_value - z[:, -1] * gap
    aw = a * weights[:, None]
    gram = aw.T @ a
    rhs = aw.T @ b
    try:
        head = np.linalg.solve(gram, rhs)
        if not np.isfinite(head).all():
            raise np.linalg.LinAlgError("non-finite WLS solution")
    except np.linalg.LinAlgError:
        logger.warning("singular coalition regression; refitting with ridge damping")
        head = np.linalg.solve(gram + RIDGE_DAMPING * np.eye(d - 1), rhs)
        if not np.isfinite(head).all():
            raise NumericError("coalition regression failed even with ridge damping")
    return np.concatenate([head, [gap - head.sum()]])


def shap_ranking(phi: np.ndarray) -> tuple[int, ...]:
    """Feature order by descending absolute attribution, ties by index."""
    phi = np.asarray(phi, dtype=np.float64).ravel()
    if not np.isfinite(phi).all():
        raise ValueError("attributions must be finite")
    mag = np.abs(phi)
    return tuple(sorted(range(phi.size), key=lambda j: (-mag[j], j)))


def shap_to_dict(
    expl: ShapExplanation,
    point_id: int | str | None = None,
    threshold: float | None = None,
) -> dict:
    """JSON-ready document mirroring the local-explanation envelope."""
    doc = {
        "method": "kernelshap",
        "point_id": point_id,
        "score": expl.score,
        "phi0": expl.base_value,
        "phi": [float(v) for v in expl.phi],
        "coalitions": expl.coalitions,
        "background_size": expl.background_size,
    }
    if threshold is not None:
        doc["threshold"] = threshold
        doc["classification"] = "anomalous" if expl.score > threshold else "normal"
    return doc
