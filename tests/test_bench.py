import math

import numpy as np
import pytest

from anomex.bench import (
    METHOD_KERNELSHAP,
    METHOD_QUANTILE_SWEEP,
    BenchSetup,
    TimingRecord,
    background_sweep,
    dimension_sweep,
    format_table,
    linear_fit,
    records_to_csv,
    time_single_explanation,
)
from anomex.data import build_quantile_grid, fit_threshold
from anomex.explainer import Weights

from conftest import make_dataset


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


def quick_setup(data, k=15, **kw):
    grid = build_quantile_grid(data, k)
    scorer = kw.pop("scorer", lambda X: X.sum(axis=1))
    tau = fit_threshold(scorer(data.rows), 0.1)
    return scorer, BenchSetup(
        grid=grid, weights=Weights(), threshold=tau, n=data.n_rows, seed=0, **kw,
    )


def test_record_well_formed_for_constant_scorer():
    rng = np.random.default_rng(0)
    data = make_dataset(rng.normal(size=(40, 3)))
    grid = build_quantile_grid(data, 8)
    setup = BenchSetup(grid=grid, weights=Weights(), threshold=0.5, n=40, seed=0)
    rec = time_single_explanation(
        METHOD_QUANTILE_SWEEP, lambda X: np.ones(len(X)), data.rows[0], setup
    )
    assert rec.method == METHOD_QUANTILE_SWEEP
    assert rec.seconds > 0
    assert rec.background_size is None
    assert rec.coalitions is None
    assert rec.quantile_levels == 8
    assert (rec.n, rec.d) == (40, 3)


def test_repeats_floor_enforced():
    rng = np.random.default_rng(1)
    data = make_dataset(rng.normal(size=(20, 2)))
    scorer, setup = quick_setup(data)
    with pytest.raises(ValueError):
        time_single_explanation(METHOD_QUANTILE_SWEEP, scorer, data.rows[0], setup, repeats=2)


@pytest.mark.timing
def test_doubling_levels_roughly_doubles_sweep_time():
    rng = np.random.default_rng(2)
    data = make_dataset(rng.normal(size=(60, 6)))
    scorer = busy_scorer(400)
    times = {}
    for k in (30, 60):
        grid = build_quantile_grid(data, k)
        setup = BenchSetup(grid=grid, weights=Weights(), threshold=0.0, n=60, seed=0)
        times[k] = time_single_explanation(
            METHOD_QUANTILE_SWEEP, scorer, data.rows[0], setup, repeats=5
        ).seconds
    ratio = times[60] / times[30]
    assert 1.6 <= ratio <= 2.6


def test_kernelshap_timing_needs_background():
    rng = np.random.default_rng(3)
    data = make_dataset(rng.normal(size=(30, 3)))
    scorer, setup = quick_setup(data)
    with pytest.raises(ValueError, match="background"):
        time_single_explanation(METHOD_KERNELSHAP, scorer, data.rows[0], setup)


def test_background_sweep_monotone_on_toy_workload():
    rng = np.random.default_rng(4)
    data = make_dataset(rng.normal(size=(4000, 4)))
    scorer, setup = quick_setup(data, scorer=busy_scorer(60), coalitions=24)
    records = background_sweep(scorer, data.rows[0], data, (0.05, 0.2, 0.8), setup, repeats=3)
    assert [r.background_size for r in records] == [200, 800, 3200]
    times = [r.seconds for r in records]
    assert times[0] < times[1] < times[2]
    slope, _, r2 = linear_fit([r.background_size for r in records], times)
    assert slope > 0
    assert r2 >= 0.9


def test_background_sweep_rejects_unsorted():
    rng = np.random.default_rng(5)
    data = make_dataset(rng.normal(size=(50, 2)))
    scorer, setup = quick_setup(data, coalitions=8)
    with pytest.raises(ValueError, match="ascending"):
        background_sweep(scorer, data.rows[0], data, (0.5, 0.1), setup)


def test_dimension_sweep_single_value():
    rng = np.random.default_rng(6)

    def factory(d):
        data = make_dataset(rng.normal(size=(30, d)))
        return (lambda X: X.sum(axis=1)), data, data.rows[0]

    records = dimension_sweep(factory, [4], 30, quantile_levels=6, repeats=3, seed=1)
    assert len(records) == 1
    assert records[0].d == 4
    assert records[0].method == METHOD_QUANTILE_SWEEP


def test_csv_layout():
    rec = TimingRecord(METHOD_KERNELSHAP, 100, 5, 50, 11, 64, 0.25)
    rec2 = TimingRecord(METHOD_QUANTILE_SWEEP, 100, 5, None, 11, None, 0.1)
    csv_text = records_to_csv([rec, rec2])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "method,background_size,n,d,K,coalitions,seconds"
    assert lines[1] == "kernelshap,50,100,5,11,64,0.250000"
    assert lines[2] == "acme_ad,,100,5,11,,0.100000"


def test_table_layout_mentions_background_share():
    rec = TimingRecord(METHOD_KERNELSHAP, 1000, 5, 100, 11, 64, 0.25)
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
    scorer, setup = quick_setup(data, coalitions=16)

    def snapshot():
        a = time_single_explanation(METHOD_QUANTILE_SWEEP, scorer, data.rows[0], setup)
        bg_setup = quick_setup(data, coalitions=16)[1]
        from anomex.shap_baseline import sample_background
        from dataclasses import replace

        b = time_single_explanation(
            METHOD_KERNELSHAP, scorer, data.rows[0],
            replace(bg_setup, background=sample_background(data, 0.5, seed=0)),
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
    from dataclasses import replace

    from anomex.data import build_quantile_grid as bqg
    from anomex.detectors import IsolationForest
    from anomex.shap_baseline import sample_background
    from anomex.synth import SynthSpec, generate

    def gap(n, d):
        data = generate(SynthSpec(n - max(1, n // 100), max(1, n // 100), d, 0, 4.0, seed=1))
        model = IsolationForest.fit(data, trees=50, subsample=128, seed=1)
        scores = model.score(data.rows)
        tau = fit_threshold(scores, 0.05)
        x = data.rows[int(np.argmax(scores))]
        setup = BenchSetup(grid=bqg(data, 51), weights=Weights(), threshold=tau,
                           n=data.n_rows, seed=1, coalitions=128)
        ours = time_single_explanation(
            METHOD_QUANTILE_SWEEP, model.score, x, setup, repeats=3
        )
        theirs = time_single_explanation(
            METHOD_KERNELSHAP, model.score, x,
            replace(setup, background=sample_background(data, 0.1, seed=1)), repeats=3,
        )
        return theirs.seconds / ours.seconds

    tall_narrow = gap(n=8000, d=20)
    wide_short = gap(n=800, d=60)
    assert tall_narrow > wide_short
    assert tall_narrow > 1.0  # the sweep still wins on both shapes here
