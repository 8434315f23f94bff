"""The three benchmark workloads, driven from outside the anomex package.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. A *cycle* is one full turn of
that loop (a CLI session, an explain-everything pass, or one point's
KernelSHAP and explanations). After the first cycle, another starts only
if it would end within the run's time, judged by the previous cycle's
duration; so a run lasts about ``--seconds`` whatever the cycle length.

Only public functions of ``anomex.data``, ``.synth``, ``.detectors``,
``.explainer``, ``.aggregate``, ``.shap_baseline`` and ``.viz`` are
called, and of an explanation only ``.ranking``, ``.importance``,
``.score`` and the ``*_to_dict`` documents are read, so internal
refactors of those modules leave this file untouched. No call passes a
thread count.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from anomex.aggregate import histogram_to_dict, merge_others, overall_importance, rank_histogram
from anomex.data import build_quantile_grid, fit_threshold, load_csv, save_csv
from anomex.detectors import IsolationForest, Loda, load_model, save_model
from anomex.explainer import explain, explanation_to_dict, validate_weights
from anomex.shap_baseline import kernel_shap, sample_background, shap_to_dict
from anomex.synth import SynthSpec, generate
from anomex.viz import render_rank_bars, render_whatif

from checks import (
    FirstSeen,
    check_explanation_doc,
    check_histogram_doc,
    check_ranking,
    check_shap_doc,
)
from tracing import Tracer

WEIGHTS = validate_weights((0.3, 0.3, 0.2, 0.2))
K_LEVELS = 51
ROOT_FEATURE = 0
SHIFT = 4.0
# Generous for a step that takes ~7 s; keeps a hung child inside the
# run's 180 s limit.
CLI_STEP_TIMEOUT_S = 60
TRACE_OVERHEAD_PAIRS = 30


class Run:
    """Samples, attempt counts and the tracer of one benchmark run."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.seen = FirstSeen()

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def attempt(self, label: str, op: Callable[[], list[str]]) -> bool:
        """Run one operation; it fails if it raises or reports a problem."""
        self.attempted += 1
        try:
            problems = op()
        except Exception as exc:  # an operation's failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {label} failed: {p}", file=sys.stderr)
        return not problems


def _evals_problem(span, expected: int, tracer: Tracer) -> list[str]:
    if not tracer.enabled:
        return []
    got = span.counts.get("scored_rows", 0)
    return [] if got == expected else [f"{got} scorer evaluations, expected d*K + 1 = {expected}"]


def _explain_op(run: Run, scorer, data, i: int, grid, threshold: float, out: list) -> bool:
    """Explain row ``i``; on success append its ranking to ``out``."""
    x = data.rows[i]
    d = data.n_features

    def op() -> list[str]:
        t0 = time.perf_counter()
        with run.tracer.span("explainer.explain") as span:
            expl = explain(scorer, x, grid, WEIGHTS, threshold, feature_names=data.feature_names)
        wall = time.perf_counter() - t0
        problems = check_ranking(expl.ranking, d)
        problems += check_explanation_doc(explanation_to_dict(expl, point_id=int(i)))
        problems += run.seen.check(
            f"ranking:{i}", repr(expl.ranking).encode() + expl.importance.tobytes()
        )
        problems += _evals_problem(span, d * K_LEVELS + 1, run.tracer)
        if not problems:
            run.add("explain", wall)
            out.append(expl.ranking)
        return problems

    return run.attempt(f"explain row {i}", op)


def _root_share(rankings: list) -> str:
    top = sum(1 for r in rankings if r[0] == ROOT_FEATURE)
    return f"{top}/{len(rankings)} explanations rank the shifted feature f{ROOT_FEATURE} first"


def trace_overhead_pct(score, x, grid, threshold: float) -> float:
    """Traced minus untraced explain time, as a percentage of untraced.

    Calls alternate so both sides see the same machine conditions; the
    probe's spans go to a throwaway tracer.
    """
    probe = Tracer(True)
    traced_score = probe.scorer(score)
    plain, traced = [], []
    for _ in range(TRACE_OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        explain(score, x, grid, WEIGHTS, threshold)
        plain.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with probe.span("explainer.explain"):
            explain(traced_score, x, grid, WEIGHTS, threshold)
        traced.append(time.perf_counter() - t0)
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base * 100.0


# -- cli-iforest-20k ---------------------------------------------------------


@dataclass
class CliState:
    seed: int
    work: Path
    env: dict
    probe: tuple = ()


class CliIforest:
    """One ``anomex`` subprocess per step of synth -> fit -> score -> explain x3 -> overall."""

    name = "cli-iforest-20k"
    n_normal, n_anomalies, d = 19800, 200, 50
    explain_samples = "cli_explain_s"
    rss_of = resource.RUSAGE_CHILDREN
    contamination = 0.01
    explain_rows = 3

    def __init__(self, src: Path, work: Path) -> None:
        self.src = src
        self.work = work
        self.cli = [sys.executable, "-m", "anomex.cli"]

    def setup(self, run: Run, seed: int) -> CliState:
        """Everything before the first session: the work directory and one interpreter start."""
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.src))
        t0 = time.perf_counter()
        with run.tracer.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c", "import anomex"], env=env, check=True,
                timeout=CLI_STEP_TIMEOUT_S, stdout=subprocess.DEVNULL,
            )
        run.add("cli.startup", time.perf_counter() - t0)
        return CliState(seed, self.work, env)

    def _step(self, run: Run, st: CliState, key: str, argv: list[str], artifacts: list[Path],
              check: Callable[[], list[str]] | None = None) -> float | None:
        """Run one CLI step; returns its wall time, or None if it failed."""
        walls = []

        def op() -> list[str]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                self.cli + argv, env=st.env, cwd=st.work, capture_output=True,
                text=True, timeout=CLI_STEP_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
            problems = []
            for path in artifacts:
                problems += run.seen.check(f"{key}:{path.name}", path.read_bytes())
            if check is not None:
                problems += check()
            if not problems:
                walls.append(wall)
                run.notes[f"cli {key}"] = proc.stdout.strip()
            return problems

        run.attempt(f"cli {key}", op)
        return walls[0] if walls else None

    def cycle(self, run: Run, st: CliState) -> None:
        """One session; when tracing, each step is replayed in process right after it runs."""
        w = st.work
        seed = str(st.seed)
        csv, model, scores = w / "data.csv", w / "model.json", w / "scores.csv"
        replay = _CliReplay(run.tracer, st, self) if run.tracer.enabled else None
        session: dict[str, float] = {}

        def step(key, argv, artifacts, check=None, redo=None) -> bool:
            wall = self._step(run, st, key.split(":")[0], argv, artifacts, check)
            if wall is None:
                return False
            session[key] = wall
            if replay is not None:
                redo_wall = replay.run(run, key, redo)
                if redo_wall is None:
                    return False
                run.add("cli.overhead", wall - redo_wall)
            return True

        if not step("synth", [
            "synth", "--n", str(self.n_normal), "--anomalies", str(self.n_anomalies),
            "--dims", str(self.d), "--root", str(ROOT_FEATURE), "--shift", str(SHIFT),
            "--seed", seed, "--out", str(csv),
        ], [csv], redo=replay and replay.synth):
            return
        if not step("fit", [
            "fit", "--input", str(csv), "--model", "iforest",
            "--contamination", str(self.contamination), "--seed", seed,
            "--out", str(model), "--has-labels",
        ], [model], redo=replay and replay.fit):
            return
        if not step("score", [
            "score", "--model", str(model), "--input", str(csv), "--out", str(scores), "--has-labels",
        ], [scores], redo=replay and replay.score):
            return
        for row in self._top_rows(scores):
            out, svg = w / f"explain-{row}.json", w / f"explain-{row}.svg"
            if not step(f"explain:{row}", [
                "explain", "--model", str(model), "--input", str(csv), "--row", str(row),
                "--out", str(out), "--svg", str(svg), "--has-labels",
            ], [out, svg], lambda out=out: check_explanation_doc(json.loads(out.read_text())),
                    redo=replay and (lambda row=row: replay.explain(row))):
                return
        out, svg = w / "overall.json", w / "overall.svg"
        if not step("overall", [
            "overall", "--model", str(model), "--input", str(csv),
            "--out", str(out), "--svg", str(svg), "--has-labels",
        ], [out, svg], lambda: check_histogram_doc(json.loads(out.read_text())),
                redo=replay and replay.overall):
            return
        for key, wall in session.items():
            run.add(f"cli_{key.split(':')[0]}_s", wall)
        run.add("cycle", sum(session.values()))

    def _top_rows(self, scores: Path) -> list[int]:
        """The highest-scoring rows of the score output, ties by row index."""
        ranked = []
        for line in scores.read_text(encoding="utf-8").splitlines()[1:]:
            row, score, _ = line.split(",")
            ranked.append((-float(score), int(row)))
        return [row for _, row in sorted(ranked)[: self.explain_rows]]

    def report(self, run: Run) -> list[tuple[str, list[float], str]]:
        """Workload-specific timings for the human-readable table: (name, samples, unit)."""
        rows = [("cli_session_s", run.samples["cycle"], "s")]
        for key in ("synth", "fit", "score", "explain", "overall"):
            rows.append((f"cli_{key}_s", run.samples[f"cli_{key}_s"], "s"))
        return rows


class _CliReplay:
    """In-process, traced redo of each CLI step through the calls its subcommand makes.

    The subcommands' own worker threads are not reproduced: the replay
    calls ``explain`` and ``overall_importance`` with their defaults.
    """

    def __init__(self, tracer: Tracer, st: CliState, wl: CliIforest) -> None:
        self.t = tracer
        self.st = st
        self.wl = wl
        rd = st.work / "replay"
        rd.mkdir(exist_ok=True)
        self.csv, self.model = rd / "data.csv", rd / "model.json"

    def run(self, run: Run, key: str, body: Callable[[], None]) -> float | None:
        """Time ``body`` as one traced operation; returns its wall time or None on failure."""
        walls = []

        def op() -> list[str]:
            self.t.new_op("cycle")
            t0 = time.perf_counter()
            with self.t.span(f"cli.{key.split(':')[0]}"):
                body()
            walls.append(time.perf_counter() - t0)
            return []

        run.attempt(f"replay {key}", op)
        return walls[0] if walls else None

    def _load(self):
        with self.t.span("data.load_csv", bytes=self.csv.stat().st_size):
            return load_csv(self.csv, has_labels=True)

    def _loaded(self):
        with self.t.span("detectors.model_load"):
            det, threshold, _ = load_model(self.model)
        return det, threshold, self._load()

    def synth(self) -> None:
        wl = self.wl
        with self.t.span("synth.generate"):
            data = generate(SynthSpec(wl.n_normal, wl.n_anomalies, wl.d, ROOT_FEATURE, SHIFT,
                                      self.st.seed))
        with self.t.span("data.save_csv"):
            save_csv(data, self.csv)

    def fit(self) -> None:
        data = self._load()
        with self.t.span("detectors.fit"):
            det = IsolationForest.fit(data, seed=self.st.seed)
        threshold = fit_threshold(self.t.scorer(det.score)(data.rows), self.wl.contamination)
        with self.t.span("detectors.model_save"):
            save_model(det, threshold, self.wl.contamination, self.model)

    def score(self) -> None:
        det, _, data = self._loaded()
        self.t.scorer(det.score)(data.rows)

    def explain(self, row: int) -> None:
        det, threshold, data = self._loaded()
        with self.t.span("data.grid"):
            grid = build_quantile_grid(data, K_LEVELS)
        with self.t.span("explainer.explain"):
            expl = explain(self.t.scorer(det.score), data.rows[row], grid, WEIGHTS, threshold,
                           feature_names=data.feature_names)
        # Built and serialised as the subcommand does; the replay does not write it.
        json.dumps(explanation_to_dict(expl, point_id=row), indent=2, sort_keys=True)
        with self.t.span("viz.render_whatif") as span:
            span.counts["bytes"] = len(render_whatif(expl, top_k=10).encode())
        self.st.probe = (det.score, data.rows[row], grid, threshold)

    def overall(self) -> None:
        det, threshold, data = self._loaded()
        with self.t.span("data.grid"):
            grid = build_quantile_grid(data, K_LEVELS)
        with self.t.span("aggregate.overall") as span:
            hist = overall_importance(self.t.scorer(det.score), data, grid, WEIGHTS, threshold)
        span.counts["flagged"] = hist.n_anomalies
        merged = merge_others(hist)
        # Built and serialised as the subcommand does; the replay does not write it.
        json.dumps(histogram_to_dict(merged), indent=2, sort_keys=True)
        with self.t.span("viz.render_rank_bars") as span:
            span.counts["bytes"] = len(render_rank_bars(merged).encode())


# -- explain-loda-wide -----------------------------------------------------------


@dataclass
class ModelState:
    data: object
    detector: object
    threshold: float
    grid: object
    points: np.ndarray
    background: object = None

    @property
    def probe(self) -> tuple:
        """Arguments of ``trace_overhead_pct``: the first point explained."""
        return self.detector.score, self.data.rows[self.points[0]], self.grid, self.threshold


class ExplainLodaWide:
    """Explain every LODA-flagged point of a wide set, then aggregate and chart."""

    name = "explain-loda-wide"
    n_normal, n_anomalies, d = 4900, 100, 100
    explain_samples = "explain"
    rss_of = resource.RUSAGE_SELF
    projections, bins = 100, 100
    contamination = 0.02

    def setup(self, run: Run, seed: int) -> ModelState:
        t = run.tracer
        with t.span("synth.generate"):
            data = generate(SynthSpec(self.n_normal, self.n_anomalies, self.d,
                                      ROOT_FEATURE, SHIFT, seed))
        with t.span("detectors.fit"):
            det = Loda.fit(data, projections=self.projections, bins=self.bins, seed=seed)
        scores = t.scorer(det.score)(data.rows)
        threshold = fit_threshold(scores, self.contamination)
        with t.span("data.grid"):
            grid = build_quantile_grid(data, K_LEVELS)
        return ModelState(data, det, threshold, grid, np.nonzero(scores > threshold)[0])

    def cycle(self, run: Run, st: ModelState) -> None:
        t = run.tracer
        scorer = t.scorer(st.detector.score)
        names = st.data.feature_names
        walls_before = len(run.samples["explain"])
        rankings: list = []
        for i in st.points:
            t.new_op("cycle")
            if not _explain_op(run, scorer, st.data, int(i), st.grid, st.threshold, rankings):
                return
        explain_wall = sum(run.samples["explain"][walls_before:])
        run.notes["root"] = _root_share(rankings)
        walls = []

        def overall() -> list[str]:
            t0 = time.perf_counter()
            with t.span("aggregate.overall") as span:
                hist = overall_importance(scorer, st.data, st.grid, WEIGHTS, st.threshold)
            wall = time.perf_counter() - t0
            span.counts["flagged"] = hist.n_anomalies
            doc = histogram_to_dict(hist)
            problems = check_histogram_doc(doc)
            problems += run.seen.check("overall", json.dumps(doc).encode())
            direct = rank_histogram(rankings, names, hist.n_positions)
            if not np.array_equal(direct.matrix, hist.matrix):
                problems.append("overall_importance disagrees with the per-point rankings")
            if not problems:
                run.add("overall", wall)
                run.add("explanations_per_s", hist.n_anomalies / wall)
                walls.append(wall)
            return problems

        def rank_bars() -> list[str]:
            t0 = time.perf_counter()
            with t.span("aggregate.rank_histogram"):
                hist = merge_others(rank_histogram(rankings, names, min(self.d, 10)))
            with t.span("viz.render_rank_bars") as span:
                svg = render_rank_bars(hist).encode()
            wall = time.perf_counter() - t0
            span.counts["bytes"] = len(svg)
            problems = check_histogram_doc(histogram_to_dict(hist))
            problems += run.seen.check("rank_bars.svg", svg)
            if not problems:
                walls.append(wall)
            return problems

        t.new_op("cycle")
        if not run.attempt("overall", overall):
            return
        t.new_op("cycle")
        if not run.attempt("rank bars", rank_bars):
            return
        run.add("cycle", explain_wall + sum(walls))

    def report(self, run: Run) -> list[tuple[str, list[float], str]]:
        return [
            ("explain_ms", [v * 1e3 for v in run.samples["explain"]], "ms"),
            ("explanations_per_s", run.samples["explanations_per_s"], "1/s"),
            ("overall_s", run.samples["overall"], "s"),
            ("pass_s", run.samples["cycle"], "s"),
        ]

# -- shap-iforest-20k ------------------------------------------------------------


class ShapIforest:
    """KernelSHAP, then repeated quantile-sweep explanations, of the top-scoring points in turn."""

    name = "shap-iforest-20k"
    n_normal, n_anomalies, d = 19800, 200, 50
    explain_samples = "explain"
    rss_of = resource.RUSAGE_SELF
    contamination = 0.01
    background_frac = 0.1
    coalitions = 256
    # Cycling over a few points revisits each, which exercises the
    # determinism check within one run.
    n_points = 4
    # A run holds only ~8 KernelSHAP calls; repeating the cheap explain
    # gives its median enough samples.
    explain_repeats = 8

    def setup(self, run: Run, seed: int) -> ModelState:
        t = run.tracer
        with t.span("synth.generate"):
            data = generate(SynthSpec(self.n_normal, self.n_anomalies, self.d,
                                      ROOT_FEATURE, SHIFT, seed))
        with t.span("detectors.fit"):
            det = IsolationForest.fit(data, seed=seed)
        scores = t.scorer(det.score)(data.rows)
        threshold = fit_threshold(scores, self.contamination)
        background = sample_background(data, self.background_frac, seed)
        with t.span("data.grid"):
            grid = build_quantile_grid(data, K_LEVELS)
        top = np.argsort(-scores, kind="stable")[: self.n_points]
        return ModelState(data, det, threshold, grid, top, background)

    def cycle(self, run: Run, st: ModelState) -> None:
        t = run.tracer
        scorer = t.scorer(st.detector.score)
        i = int(st.points[run.cycles % len(st.points)])
        walls = []

        def shap() -> list[str]:
            t0 = time.perf_counter()
            with t.span("shap_baseline.kernel_shap") as span:
                expl = kernel_shap(scorer, st.data.rows[i], st.background, self.coalitions, seed=i)
            wall = time.perf_counter() - t0
            span.counts["coalitions"] = expl.coalitions
            doc = shap_to_dict(expl, point_id=i, threshold=st.threshold)
            problems = check_shap_doc(doc)
            problems += run.seen.check(f"shap:{i}", json.dumps(doc).encode())
            if not problems:
                run.add("shap", wall)
                walls.append(wall)
            return problems

        t.new_op("cycle")
        if not run.attempt(f"kernel_shap row {i}", shap):
            return
        rankings: list = []
        for _ in range(self.explain_repeats):
            t.new_op("cycle")
            if not _explain_op(run, scorer, st.data, i, st.grid, st.threshold, rankings):
                return
        run.add("cycle", walls[0] + sum(run.samples["explain"][-self.explain_repeats:]))

    def report(self, run: Run) -> list[tuple[str, list[float], str]]:
        return [
            ("shap_s", run.samples["shap"], "s"),
            ("explain_ms", [v * 1e3 for v in run.samples["explain"]], "ms"),
        ]
