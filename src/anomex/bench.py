"""Latency harness for single-explanation timing and scaling sweeps.

``time_explain`` times the quantile sweep and ``time_kernel_shap`` the
KernelSHAP baseline, each taking only what its method reads;
``background_sweep`` runs the latter over fractions of the data. A
warm-up run is always performed and discarded, and the reported seconds
are the median over at least three repeats. The quantile sweep runs on
the calling thread alone. KernelSHAP on an Isolation Forest's own
``score`` scores its coalitions on every CPU the process may run on
(see ``shap_baseline``), so a speedup of the sweep over that baseline
understates the one against a serial KernelSHAP. A ``TimingRecord``
holds what the reports show and nothing more: it serializes to CSV
(method, background_size, n, d, K, coalitions, seconds), where K is
empty on KernelSHAP rows and coalitions on sweep rows, and to a text
table.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from anomex.data import Dataset, QuantileGrid, Scorer, check_background_fraction
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
    quantile_levels: int | None
    coalitions: int | None
    seconds: float

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.seconds > 0:
            raise ValueError(f"elapsed seconds must be positive, got {self.seconds}")


def _median_seconds(run: Callable[[], object], repeats: int) -> tuple[object, float]:
    """One discarded warm-up, then the median wall time of ``repeats`` calls.

    Returns the warm-up's result with the median.
    """
    if repeats < MIN_REPEATS:
        raise ValueError(f"need at least {MIN_REPEATS} repeats, got {repeats}")
    result = run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return result, float(statistics.median(times))


def time_explain(
    scorer: Scorer,
    x: np.ndarray,
    grid: QuantileGrid,
    threshold: float,
    n: int,
    repeats: int = MIN_REPEATS,
) -> TimingRecord:
    """Median wall time of one quantile-sweep explanation at ``Weights()``.

    Each ranking is checked to be a permutation and then dropped. ``n``
    is the row count the record reports.
    """
    d = grid.n_features

    def run():
        expl = explain(scorer, x, grid, Weights(), threshold)
        assert sorted(expl.ranking) == list(range(d))

    _, seconds = _median_seconds(run, repeats)
    return TimingRecord(METHOD_QUANTILE_SWEEP, n, d, None, grid.n_levels, None, seconds)


def time_kernel_shap(
    scorer: Scorer,
    x: np.ndarray,
    background: Dataset,
    n: int,
    coalitions: int | None = None,
    seed: int = 0,
    repeats: int = MIN_REPEATS,
) -> TimingRecord:
    """Median wall time of one KernelSHAP explanation over ``background``.

    Each result is checked for additivity and then dropped. ``n`` is the
    row count the record reports; its coalition count is the warm-up's.
    """
    def run():
        expl = kernel_shap(scorer, x, background, coalitions, seed)
        assert abs(expl.base_value + expl.phi.sum() - expl.score) <= 1e-6
        return expl

    result, seconds = _median_seconds(run, repeats)
    return TimingRecord(METHOD_KERNELSHAP, n, background.n_features, background.n_rows, None,
                        result.coalitions, seconds)


def background_sweep(
    scorer: Scorer,
    x: np.ndarray,
    data: Dataset,
    fractions: Sequence[float],
    coalitions: int | None = None,
    seed: int = 0,
    repeats: int = MIN_REPEATS,
) -> list[TimingRecord]:
    """KernelSHAP timing over ascending background fractions of ``data``.

    Every fraction is checked before anything is sampled or timed.
    """
    fracs = [float(f) for f in fractions]
    if fracs != sorted(fracs):
        raise ValueError("fractions must be sorted ascending")
    for frac in fracs:
        check_background_fraction(frac)
    return [
        time_kernel_shap(
            scorer, x, sample_background(data, frac, seed), data.n_rows, coalitions, seed, repeats
        )
        for frac in fracs
    ]


def records_to_csv(records: Sequence[TimingRecord]) -> str:
    """CSV text with the fixed column set; absent fields stay empty."""
    lines = ["method,background_size,n,d,K,coalitions,seconds"]
    for r in records:
        bg = "" if r.background_size is None else str(r.background_size)
        k = "" if r.quantile_levels is None else str(r.quantile_levels)
        co = "" if r.coalitions is None else str(r.coalitions)
        lines.append(f"{r.method},{bg},{r.n},{r.d},{k},{co},{r.seconds:.6f}")
    return "\n".join(lines) + "\n"


def format_table(records: Sequence[TimingRecord]) -> str:
    """Aligned text table: method, background size, elapsed seconds."""
    rows = [("method", "background size", "elapsed time (s)")]
    for r in records:
        bg = f"{r.n} (100%)" if r.background_size is None else (
            f"{r.background_size} ({r.background_size / r.n:.0%})")
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
