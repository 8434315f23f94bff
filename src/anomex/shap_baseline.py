"""Model-agnostic KernelSHAP baseline with background subsampling.

Attributions come from a weighted least-squares fit over feature
coalitions: for a coalition, present features keep x's values and the
absent ones are replaced by each background row in turn, with the scores
averaged (the expectation over the background is exact, which is what
ties the cost to the background size). The empty and full coalitions are
enforced as constraints, so phi0 + sum(phi) always equals the score of x
up to solver precision.

With a coalition budget of at least 2^d, all coalitions are enumerated
and weighted by the exact Shapley kernel, which makes the result equal
to brute-force Shapley values; the budget cap allows that up to d = 16.
Otherwise interior coalitions are sampled with probability proportional
to the kernel mass of their size.

A generic scorer is called once per coalition on all the hybrid rows,
in mask order, on the calling thread. An Isolation Forest's own bound
``score`` is the one exception: it reaches the same values, bit for bit,
through the forest's path-local ``_coalition_scorer``: it walks the
background once, then scores one coalition at a time, walking a (row,
tree) pair only when the hybrid row can leave both the background row's
path and x's path. Its coalitions are split into
contiguous shares, one per CPU the process may run on, scored in
parallel: the calling thread takes the first share and a worker thread
each of the others. Every coalition's value is the same mean of the same
scores whichever thread computes it, so the share count changes no bit
of the result, and an error is the one the serial loop would raise. Any
wrapper around the forest's ``score`` (a lambda, an evaluation counter,
a tracer) and LODA keep the serial loop, since a user callable makes no
thread-safety promise. Either way the cost stays linear in the
background size.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from anomex.data import Dataset, Scorer, check_background_fraction, checked_scores, classify
from anomex.detectors import IsolationForest, bound_detector
from anomex.errors import NumericError

# Largest coalition budget, unless the default for d is larger; it leaves
# room for exact enumeration at d = 16.
MAX_COALITIONS = 2**16
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


def coalition_budget(coalitions: int | None, d: int) -> int:
    """The coalition budget at d features (None: 2d + 2048); ValueError if out of range."""
    if coalitions is None:
        return default_coalitions(d)
    # below d - 1 sampled coalitions the regression over the d - 1 free
    # attributions is underdetermined, and the ridge fallback would pick one
    if coalitions < d + 1:
        raise ValueError(
            f"coalition budget must be >= d + 1 = {d + 1} at d={d}, got {coalitions}"
        )
    limit = max(MAX_COALITIONS, default_coalitions(d))
    if coalitions > limit:
        raise ValueError(f"coalition budget must be <= {limit} at d={d}, got {coalitions}")
    return coalitions


def sample_background(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform sample without replacement of floor(fraction * n) rows (>= 1)."""
    check_background_fraction(fraction)
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
        coalitions: evaluation budget, at least d + 1; defaults to
            2d + 2048. Budgets of at least 2^d switch to exact enumeration.
        seed: RNG seed for coalition sampling.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    d = background.n_features
    if x.size != d:
        raise ValueError(f"point has {x.size} features but background has {d}")
    coalitions = coalition_budget(coalitions, d)

    bg = background.rows
    base_value = float(checked_scores(scorer(bg), len(bg), lambda b: f"background row {b}").mean())
    score = float(checked_scores(scorer(x[None, :]), 1, lambda _: "the explained point")[0])

    if coalitions >= 2**d:
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

    values = _coalition_values(scorer, x, bg, masks)
    phi = _constrained_wls(masks, values, weights, base_value, score)
    n_evals = len(masks) + 2
    return ShapExplanation(base_value, phi, score, n_evals, len(bg))


def _coalition_values(
    scorer: Scorer, x: np.ndarray, bg: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Mean background score of each coalition's hybrid rows, in mask order.

    A forest's own bound ``score`` evaluates them path-locally: it walks
    the background once, then scores the coalitions in shares, one per
    CPU. Any other scorer gets one call per coalition, in mask order, on
    the calling thread, since a user callable makes no thread-safety
    promise.
    """
    values = np.empty(len(masks))

    def mean(i: int, scores: object) -> None:
        values[i] = checked_scores(
            scores, len(bg), lambda b: f"coalition {i} on background row {b}"
        ).mean()

    forest = bound_detector(scorer)
    if isinstance(forest, IsolationForest):
        score = forest._coalition_scorer(x, bg)
        _in_shares(lambda i: mean(i, score(masks[i])), len(masks))
        return values
    hybrid = np.empty_like(bg)
    for i, mask in enumerate(masks):
        hybrid[:] = bg
        hybrid[:, mask] = x[mask]
        mean(i, scorer(hybrid))
    return values


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_shares(task: Callable[[int], None], n: int) -> None:
    """Run ``task(i)`` for i < n in contiguous shares, one per CPU.

    The calling thread runs the first share and a worker thread each of
    the others. When a task raises, the shares after it stop at their
    next task, while those before it run on, since one of their tasks may
    raise too. Once every worker has joined, the error of the lowest
    failing index is raised: the one a serial loop would have raised.
    """
    shares = max(1, min(_cpu_count(), n))
    bounds = [n * s // shares for s in range(shares + 1)]
    failures: list[tuple[int, BaseException]] = []

    def run(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            if any(j < i for j, _ in failures):
                return
            try:
                task(i)
            except BaseException as exc:  # re-raised below if no lower index failed
                failures.append((i, exc))
                return

    workers = [threading.Thread(target=run, args=bounds[s : s + 2]) for s in range(1, shares)]
    try:
        for worker in workers:
            worker.start()
        run(bounds[0], bounds[1])
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


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
        doc["classification"] = classify(expl.score, threshold).value
    return doc
