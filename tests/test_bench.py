import math

import numpy as np
import pytest

from anomex.bench import (
    METHOD_KERNELSHAP,
    METHOD_QUANTILE_SWEEP,
    TimingRecord,
    background_sweep,
    format_table,
    linear_fit,
    records_to_csv,
    time_explain,
    time_kernel_shap,
)
from anomex.data import build_quantile_grid, fit_threshold
from anomex.shap_baseline import sample_background

from conftest import CountingScorer, make_dataset


def busy_scorer(per_row_loops=200):
    """Per-row cost independent of dimensionality (touches one column)."""

    def scorer(X):
        out = np.empty(len(X))
        for i in range(len(X)):
            acc = X[i, 0]
            for _ in range(per_row_loops):
                acc = math.sin(acc + 1.0)
            out[i] = acc
        return out

    return scorer


def quick_setup(data, k=15):
    scorer = lambda X: X.sum(axis=1)
    return scorer, build_quantile_grid(data, k), fit_threshold(scorer(data.rows), 0.1)


def test_record_well_formed_for_constant_scorer():
    rng = np.random.default_rng(0)
    data = make_dataset(rng.normal(size=(40, 3)))
    grid = build_quantile_grid(data, 8)
    rec = time_explain(lambda X: np.ones(len(X)), data.rows[0], grid, 0.5, 40)
    assert rec.method == METHOD_QUANTILE_SWEEP
    assert rec.seconds > 0
    assert rec.background_size is None
    assert rec.coalitions is None
    assert rec.quantile_levels == 8
    assert (rec.n, rec.d) == (40, 3)


def test_repeats_floor_enforced():
    rng = np.random.default_rng(1)
    data = make_dataset(rng.normal(size=(20, 2)))
    scorer, grid, tau = quick_setup(data)
    with pytest.raises(ValueError):
        time_explain(scorer, data.rows[0], grid, tau, data.n_rows, repeats=2)


@pytest.mark.timing
def test_doubling_levels_roughly_doubles_sweep_time():
    rng = np.random.default_rng(2)
    data = make_dataset(rng.normal(size=(60, 6)))
    scorer = busy_scorer(400)
    times = {}
    for k in (30, 60):
        grid = build_quantile_grid(data, k)
        times[k] = time_explain(scorer, data.rows[0], grid, 0.0, 60, repeats=5).seconds
    ratio = times[60] / times[30]
    assert 1.6 <= ratio <= 2.6


def test_background_sweep_monotone_on_toy_workload():
    rng = np.random.default_rng(4)
    data = make_dataset(rng.normal(size=(4000, 4)))
    scorer = busy_scorer(60)
    records = background_sweep(scorer, data.rows[0], data, (0.05, 0.2, 0.8), 24, repeats=3)
    assert [r.background_size for r in records] == [200, 800, 3200]
    times = [r.seconds for r in records]
    assert times[0] < times[1] < times[2]
    slope, _, r2 = linear_fit([r.background_size for r in records], times)
    assert slope > 0
    assert r2 >= 0.9


def test_background_sweep_rejects_unsorted():
    rng = np.random.default_rng(5)
    data = make_dataset(rng.normal(size=(50, 2)))
    with pytest.raises(ValueError, match="ascending"):
        background_sweep(lambda X: X.sum(axis=1), data.rows[0], data, (0.5, 0.1), 8)


def test_background_sweep_checks_every_fraction_before_timing():
    # the 10% background used to be timed in full before 2.0 was rejected
    data = make_dataset(np.random.default_rng(6).normal(size=(50, 2)))
    scorer = CountingScorer(lambda X: X.sum(axis=1))
    with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got 2.0"):
        background_sweep(scorer, data.rows[0], data, (0.1, 2.0), 8)
    assert scorer.evaluations == 0


def test_csv_layout():
    rec = TimingRecord(METHOD_KERNELSHAP, 100, 5, 50, None, 64, 0.25)
    rec2 = TimingRecord(METHOD_QUANTILE_SWEEP, 100, 5, None, 11, None, 0.1)
    csv_text = records_to_csv([rec, rec2])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "method,background_size,n,d,K,coalitions,seconds"
    assert lines[1] == "kernelshap,50,100,5,,64,0.250000"
    assert lines[2] == "acme_ad,,100,5,11,,0.100000"


def test_table_layout_mentions_background_share():
    rec = TimingRecord(METHOD_KERNELSHAP, 1000, 5, 100, None, 64, 0.25)
    table = format_table([rec])
    assert "background size" in table
    assert "100 (10%)" in table
    assert "0.25" in table


def test_linear_fit_recovers_exact_line():
    slope, intercept, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_records_reproducible_in_structure():
    rng = np.random.default_rng(7)
    data = make_dataset(rng.normal(size=(80, 3)))
    scorer, grid, tau = quick_setup(data)

    def snapshot():
        a = time_explain(scorer, data.rows[0], grid, tau, data.n_rows)
        b = time_kernel_shap(
            scorer, data.rows[0], sample_background(data, 0.5, seed=0), data.n_rows, 16
        )
        return a, b

    first = snapshot()
    second = snapshot()
    for r1, r2 in zip(first, second):
        for field in ("method", "n", "d", "background_size", "quantile_levels", "coalitions"):
            assert getattr(r1, field) == getattr(r2, field)


def test_shape_dependent_gap_narrowing():
    # Wide-but-short data narrows the speed gap versus tall-but-narrow data:
    # the sweep pays per feature, the baseline per background row.
    from anomex.detectors import IsolationForest
    from anomex.synth import SynthSpec, generate

    def gap(n, d):
        data = generate(SynthSpec(n - max(1, n // 100), max(1, n // 100), d, 0, 4.0, seed=1))
        model = IsolationForest.fit(data, trees=50, subsample=128, seed=1)
        scores = model.score(data.rows)
        tau = fit_threshold(scores, 0.05)
        x = data.rows[int(np.argmax(scores))]
        ours = time_explain(model.score, x, build_quantile_grid(data, 51), tau, data.n_rows)
        theirs = time_kernel_shap(
            model.score, x, sample_background(data, 0.1, seed=1), data.n_rows, 128, seed=1
        )
        return theirs.seconds / ours.seconds

    tall_narrow = gap(n=8000, d=20)
    wide_short = gap(n=800, d=60)
    assert tall_narrow > wide_short
    assert tall_narrow > 1.0  # the sweep still wins on both shapes here
