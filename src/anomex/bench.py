"""Latency harness for single-explanation timing and scaling sweeps.

A warm-up run is always performed and discarded, and the reported
seconds are the median over at least three repeats. The quantile sweep
runs on the calling thread alone. KernelSHAP on an Isolation Forest's
own ``score`` scores its coalitions on every CPU the process may run on
(see ``shap_baseline``), so a speedup of the sweep over that baseline
understates the one against a serial KernelSHAP. A ``TimingRecord``
holds what the reports show and nothing more: it serializes to CSV
(method, background_size, n, d, K, coalitions, seconds) and to a text
table.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from anomex.data import Dataset, QuantileGrid, Scorer, build_quantile_grid, fit_threshold
from anomex.explainer import Weights, explain
from anomex.shap_baseline import kernel_shap, sample_background

METHOD_QUANTILE_SWEEP = "acme_ad"
METHOD_KERNELSHAP = "kernelshap"
_METHODS = (METHOD_QUANTILE_SWEEP, METHOD_KERNELSHAP)

MIN_REPEATS = 3


@dataclass(frozen=True)
class TimingRecord:
    method: str
    n: int
    d: int
    background_size: int | None
    quantile_levels: int
    coalitions: int | None
    seconds: float

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.seconds > 0:
            raise ValueError(f"elapsed seconds must be positive, got {self.seconds}")


@dataclass(frozen=True, eq=False)
class BenchSetup:
    """Everything one timed explanation needs besides the scorer and x."""

    grid: QuantileGrid
    weights: Weights
    threshold: float
    n: int
    seed: int
    background: Dataset | None = None
    coalitions: int | None = None


def time_single_explanation(
    method: str,
    scorer: Scorer,
    x: np.ndarray,
    setup: BenchSetup,
    repeats: int = MIN_REPEATS,
) -> TimingRecord:
    """Median wall time of one local explanation, warm-up discarded.

    The explanation output is sanity-checked (ranking is a permutation /
    additivity holds) and then dropped; only the timing survives.
    """
    if repeats < MIN_REPEATS:
        raise ValueError(f"need at least {MIN_REPEATS} repeats, got {repeats}")
    x = np.asarray(x, dtype=np.float64).ravel()
    d = x.size

    if method == METHOD_QUANTILE_SWEEP:
        def run():
            expl = explain(scorer, x, setup.grid, setup.weights, setup.threshold)
            assert sorted(expl.ranking) == list(range(d))
            return expl
    elif method == METHOD_KERNELSHAP:
        if setup.background is None:
            raise ValueError("kernelshap timing needs a background dataset")

        def run():
            expl = kernel_shap(scorer, x, setup.background, setup.coalitions, setup.seed)
            assert abs(expl.base_value + expl.phi.sum() - expl.score) <= 1e-6
            return expl
    else:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")

    result = run()  # warm-up, discarded
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)

    return TimingRecord(
        method=method,
        n=setup.n,
        d=d,
        background_size=(setup.background.n_rows if method == METHOD_KERNELSHAP else None),
        quantile_levels=setup.grid.n_levels,
        coalitions=(result.coalitions if method == METHOD_KERNELSHAP else None),
        seconds=float(statistics.median(times)),
    )


def background_sweep(
    scorer: Scorer,
    x: np.ndarray,
    data: Dataset,
    fractions: Sequence[float],
    setup: BenchSetup,
    repeats: int = MIN_REPEATS,
) -> list[TimingRecord]:
    """KernelSHAP timing over ascending background fractions of ``data``."""
    fracs = [float(f) for f in fractions]
    if fracs != sorted(fracs):
        raise ValueError("fractions must be sorted ascending")
    records = []
    for frac in fracs:
        bg = sample_background(data, frac, setup.seed)
        records.append(
            time_single_explanation(
                METHOD_KERNELSHAP, scorer, x, replace(setup, background=bg), repeats
            )
        )
    return records


def dimension_sweep(
    detector_factory: Callable[[int], tuple[Scorer, Dataset, np.ndarray]],
    d_values: Sequence[int],
    n: int,
    *,
    quantile_levels: int = 51,
    weights: Weights | None = None,
    contamination: float = 0.05,
    repeats: int = MIN_REPEATS,
    seed: int = 0,
) -> list[TimingRecord]:
    """Quantile-sweep explanation time across dimensionalities.

    ``detector_factory(d)`` must return (scorer, training data with d
    features and n rows, point to explain).
    """
    dims = [int(v) for v in d_values]
    if dims != sorted(dims):
        raise ValueError("d values must be sorted ascending")
    weights = weights or Weights()
    records = []
    for d in dims:
        scorer, data, x = detector_factory(d)
        if data.n_features != d or data.n_rows != n:
            raise ValueError(
                f"factory returned {data.n_rows}x{data.n_features} data, expected {n}x{d}"
            )
        grid = build_quantile_grid(data, quantile_levels)
        threshold = fit_threshold(scorer(data.rows), contamination)
        setup = BenchSetup(grid=grid, weights=weights, threshold=threshold, n=n, seed=seed)
        records.append(
            time_single_explanation(METHOD_QUANTILE_SWEEP, scorer, x, setup, repeats)
        )
    return records


def records_to_csv(records: Sequence[TimingRecord]) -> str:
    """CSV text with the fixed column set; absent fields stay empty."""
    lines = ["method,background_size,n,d,K,coalitions,seconds"]
    for r in records:
        bg = "" if r.background_size is None else str(r.background_size)
        co = "" if r.coalitions is None else str(r.coalitions)
        lines.append(f"{r.method},{bg},{r.n},{r.d},{r.quantile_levels},{co},{r.seconds:.6f}")
    return "\n".join(lines) + "\n"


def format_table(records: Sequence[TimingRecord]) -> str:
    """Aligned text table: method, background size, elapsed seconds."""
    rows = [("method", "background size", "elapsed time (s)")]
    for r in records:
        if r.background_size is None:
            bg = f"{r.n} (100%)" if r.method == METHOD_QUANTILE_SWEEP else "-"
        else:
            bg = f"{r.background_size} ({r.background_size / r.n:.0%})"
        rows.append((r.method, bg, f"{r.seconds:.2f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    out = []
    for idx, row in enumerate(rows):
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            out.append("-" * (sum(widths) + 4))
    return "\n".join(out) + "\n"


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys); returns (slope, intercept, r2)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matched points")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
