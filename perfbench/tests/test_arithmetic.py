"""The benchmark's own arithmetic: percentiles, self time, failure share, evaluation counts.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import run as bench_run
import workloads
from checks import FirstSeen, check_histogram_doc, check_shap_doc
from stats import failed_frac, percentile, quartile_spread, summarize, tail_percentile
from tracing import Span, Tracer, self_time

from anomex.data import build_quantile_grid
from anomex.detectors import Loda
from anomex.synth import SynthSpec, generate


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert percentile(values, 50) == 5
    assert percentile(values, 10) == 1
    assert percentile(values, 95) == 10
    assert percentile(values, 100) == 10
    assert percentile([7.5], 95) == 7.5


def test_p95_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1, 200)), 95) is None
    values = list(range(1, 201))
    p95 = tail_percentile(values, 95)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10


def test_summarize_reports_count_and_gates_p95():
    small = summarize([3.0, 1.0, 2.0, 4.0])
    assert small == {"p50": 2.5, "p95": None, "n": 4}
    big = summarize([float(v) for v in range(1, 401)])
    assert big["n"] == 400 and big["p95"] == 380.0 and big["p50"] == 200.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    # exclusive quartiles of 5 points: 10.5 and 13.5 around a median of 12
    assert quartile_spread(values) == pytest.approx(3.0 / 12.0)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # children overlap on [2, 3]; covered = [1, 5] + [7, 8] = 5
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert self_time((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(8.0)
    assert self_time((0.0, 10.0), [(11.0, 12.0), (4.0, 4.0)]) == pytest.approx(10.0)
    assert self_time((0.0, 10.0), []) == pytest.approx(10.0)


def test_tracer_self_times_use_direct_children_only():
    t = Tracer(True)
    t.spans = [
        Span("explainer.explain", 0.0, 10.0, None, 1),
        Span("detectors.score", 1.0, 4.0, 0, 1, {"rows": 1}),
        Span("inner", 2.0, 3.0, 1, 1),  # grandchild: already inside its parent
        Span("detectors.score", 6.0, 7.0, 0, 1, {"rows": 51}),
    ]
    assert t.self_times("explainer.explain") == [pytest.approx(6.0)]


def test_tracer_links_parents_and_counts_scored_rows():
    t = Tracer(True)
    t.new_op("cycle")
    score = t.scorer(lambda batch: [0.0] * len(batch))
    with t.span("explainer.explain") as outer:
        score([[0.0]] * 3)
        score([[0.0]] * 4)
    assert outer.counts["scored_rows"] == 7
    assert [s.parent for s in t.spans] == [None, 0, 0]
    assert {s.op for s in t.spans} == {1}
    assert len(t.named("detectors.score", kind="cycle")) == 2
    assert t.named("detectors.score", kind="setup") == []


def test_disabled_tracer_records_nothing_and_passes_scorer_through():
    t = Tracer(False)

    def score(batch):
        return batch

    assert t.scorer(score) is score
    with t.span("x"):
        pass
    assert t.spans == []


# -- failures ----------------------------------------------------------------


def test_failed_frac():
    assert failed_frac(5, 0) == 0.0
    assert failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_attempt_counts_raises_and_reported_problems():
    run = workloads.Run(Tracer(False))
    assert run.attempt("ok", lambda: [])
    assert not run.attempt("bad output", lambda: ["wrong"])

    def boom():
        raise RuntimeError("boom")

    assert not run.attempt("raises", boom)
    assert (run.attempted, run.failed) == (3, 2)
    assert failed_frac(run.attempted, run.failed) == pytest.approx(2 / 3)


def test_output_checks_flag_bad_documents():
    good = {"positions": [1, 2], "matrix": [[0.5, 1.0], [0.5, 0.0]]}
    assert check_histogram_doc(good) == []
    bad = {"positions": [1, 2], "matrix": [[0.5, 1.0], [0.4, 0.0]]}
    assert len(check_histogram_doc(bad)) == 1
    assert check_shap_doc({"phi0": 0.25, "phi": [0.5, 0.25], "score": 1.0}) == []
    assert check_shap_doc({"phi0": 0.25, "phi": [0.5, 0.25], "score": 1.1}) != []
    seen = FirstSeen()
    assert seen.check("a", b"x") == [] and seen.check("a", b"x") == []
    assert seen.check("a", b"y") != []


# -- evaluation count in a traced run ----------------------------------------


@pytest.fixture(scope="module")
def small_model():
    data = generate(SynthSpec(190, 10, 6, 0, 4.0, seed=3))
    det = Loda.fit(data, projections=10, bins=10, seed=3)
    grid = build_quantile_grid(data, workloads.K_LEVELS)
    threshold = float(sorted(det.score(data.rows))[-5])
    return data, det, grid, threshold


def test_traced_explain_costs_d_times_k_plus_one(small_model):
    data, det, grid, threshold = small_model
    run = workloads.Run(Tracer(True))
    run.tracer.new_op("cycle")
    rankings = []
    assert workloads._explain_op(run, run.tracer.scorer(det.score), data, 0, grid, threshold, rankings)
    (span,) = run.tracer.named("explainer.explain")
    assert span.counts["scored_rows"] == data.n_features * workloads.K_LEVELS + 1
    assert run.failed == 0 and len(rankings) == 1


def test_traced_run_fails_an_explanation_with_extra_evaluations(small_model, monkeypatch):
    data, det, grid, threshold = small_model
    real_explain = workloads.explain

    def wasteful(scorer, x, *args, **kwargs):
        scorer(x[None, :])
        return real_explain(scorer, x, *args, **kwargs)

    monkeypatch.setattr(workloads, "explain", wasteful)
    run = workloads.Run(Tracer(True))
    run.tracer.new_op("cycle")
    assert not workloads._explain_op(run, run.tracer.scorer(det.score), data, 0, grid, threshold, [])
    assert run.failed == 1


def test_layer_metrics_report_evals_per_explanation(small_model):
    data, det, grid, threshold = small_model
    run = workloads.Run(Tracer(True))
    scorer = run.tracer.scorer(det.score)
    for i in range(3):
        run.tracer.new_op("cycle")
        workloads._explain_op(run, scorer, data, i, grid, threshold, [])
    run.cycles = 3
    metrics = bench_run.layer_metrics(run, n_rows=data.n_rows)
    assert metrics["explainer.evals_per_explanation"] == data.n_features * workloads.K_LEVELS + 1
    assert metrics["detectors.score_rows"] == data.n_features * workloads.K_LEVELS + 1
    assert metrics["detectors.score_calls"] == data.n_features + 1
    assert metrics["detectors.bulk_score_s"] == 0.0
    assert metrics["detectors.sweep_score_s"] > 0.0
    assert set(metrics) | {"trace.overhead_pct"} == {m for m, _, _ in bench_run.PER_LAYER}


def test_layer_metrics_split_sweep_and_bulk_by_origin():
    run = workloads.Run(Tracer(True))
    run.tracer.new_op("cycle")
    run.tracer.spans = [
        Span("shap_baseline.kernel_shap", 0.0, 10.0, None, 1, {"coalitions": 256}),
        Span("detectors.score", 1.0, 2.0, 0, 1, {"rows": 20}),  # background batch
        Span("explainer.explain", 3.0, 6.0, None, 1),
        Span("detectors.score", 4.0, 4.5, 2, 1, {"rows": 51}),  # sweep
        Span("detectors.score", 7.0, 11.0, None, 1, {"rows": 100}),  # whole data set
    ]
    run.cycles = 1
    metrics = bench_run.layer_metrics(run, n_rows=100)
    assert metrics["detectors.bulk_score_s"] == pytest.approx(2.5)
    assert metrics["detectors.bulk_us_per_row"] == pytest.approx(5.0 / 120 * 1e6)
    assert metrics["detectors.sweep_score_s"] == pytest.approx(0.5)
    assert metrics["detectors.score_calls"] == 3
    assert metrics["shap_baseline.self_s"] == pytest.approx(9.0)


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    config = json.loads((Path(bench_run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == bench_run.PER_LAYER
    assert tuple(w["name"] for w in config["workloads"]) == bench_run.WORKLOADS
