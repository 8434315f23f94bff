"""Synthetic datasets with a known root-cause feature.

Normals are drawn from a zero-mean Gaussian with unit marginal variances
and mild random cross-feature correlations; anomalies are drawn the same
way and then shifted along one designated feature by a multiple of its
standard deviation. The generator is a pure function of its spec, so a
seed pins the output byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anomex.data import Dataset

# Scale of the random correlation perturbation; keeps typical
# off-diagonal correlations below ~0.3.
_CORRELATION_SCALE = 0.35

# Rows drawn and correlated per step of ``generate``: the raw normals
# and their product then take a block or two beside the result, not a
# second copy of it (a 16 MB traced peak for the 8 MB 20000x50 matrix in
# one step, 10.3 MB in blocks). Normals are drawn in C order, so blocks
# read the same stream. The last block takes the remainder, so no block
# is shorter than this: a product of a few rows takes other BLAS kernels
# (gemv for one row), whose sums can differ in the last bit.
_DRAW_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SynthSpec:
    n_normal: int
    n_anomalies: int
    d: int
    root_feature: int
    shift: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_normal < 1 or self.n_anomalies < 1:
            raise ValueError("need at least one normal and one anomalous row")
        if self.d < 1:
            raise ValueError(f"need at least one feature, got d={self.d}")
        if not 0 <= self.root_feature < self.d:
            raise ValueError(f"root_feature {self.root_feature} out of range [0, {self.d})")
        if not np.isfinite(self.shift) or self.shift < 0:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")


def generate(spec: SynthSpec) -> Dataset:
    """Sample a labeled dataset per ``spec`` (label 1 = anomalous).

    Normal rows come first, anomalous rows after; anomalies differ from
    the base distribution only by the shift on the root feature.
    """
    rng = np.random.default_rng(spec.seed)
    corr = _random_correlation(spec.d, rng)
    chol = np.linalg.cholesky(corr)
    total = spec.n_normal + spec.n_anomalies
    rows = np.empty((total, spec.d))
    a = 0
    while a < total:
        b = a + _DRAW_BLOCK_ROWS if total - a >= 2 * _DRAW_BLOCK_ROWS else total
        rows[a:b] = rng.standard_normal((b - a, spec.d)) @ chol.T
        a = b
    rows[spec.n_normal:, spec.root_feature] += spec.shift
    labels = np.zeros(total, dtype=np.int64)
    labels[spec.n_normal:] = 1
    names = tuple(f"f{j}" for j in range(spec.d))
    return Dataset(names, rows, labels)


def _random_correlation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-diagonal covariance with mild random off-diagonal structure."""
    if d == 1:
        return np.ones((1, 1))
    bump = rng.normal(size=(d, d)) * (_CORRELATION_SCALE / np.sqrt(d))
    cov = np.eye(d) + bump @ bump.T
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)
