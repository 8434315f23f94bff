"""anomex benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explain-loda-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
loop with spans around every call into anomex and prints the per-layer
metrics. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only if every operation passed its
output check. Spans are written to ``.perfbench_work/``.
"""

import os

# One BLAS thread in this process and in every CLI child it starts, so
# the CLI's default worker threads plus this client stay within two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import failed_frac, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cli-iforest-20k", "explain-loda-wide", "shap-iforest-20k")
SETUP_REPEATS = 5
# Per-run limit for one workload child under ``--workload all``.
CHILD_TIMEOUT_S = 600

# (name, unit, better); kept equal to BENCHMARK.json by the tests.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cycle_p50_s", "s", "lower"),
    ("explain_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("data.load_csv_s", "s", "lower"),
    ("data.load_csv_mb_per_s", "MB/s", "higher"),
    ("data.save_csv_s", "s", "lower"),
    ("data.grid_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("detectors.fit_s", "s", "lower"),
    ("detectors.model_save_s", "s", "lower"),
    ("detectors.model_load_s", "s", "lower"),
    ("detectors.score_calls", "count", "lower"),
    ("detectors.score_rows", "count", "lower"),
    ("detectors.sweep_score_s", "s", "lower"),
    ("detectors.sweep_us_per_row", "us", "lower"),
    ("detectors.bulk_score_s", "s", "lower"),
    ("detectors.bulk_us_per_row", "us", "lower"),
    ("explainer.explain_s", "s", "lower"),
    ("explainer.self_s", "s", "lower"),
    ("explainer.evals_per_explanation", "count", "lower"),
    ("aggregate.overall_s", "s", "lower"),
    ("aggregate.self_s", "s", "lower"),
    ("aggregate.flagged", "count", "lower"),
    ("shap_baseline.kernel_shap_s", "s", "lower"),
    ("shap_baseline.self_s", "s", "lower"),
    ("shap_baseline.coalitions", "count", "lower"),
    ("viz.render_whatif_s", "s", "lower"),
    ("viz.render_rank_bars_s", "s", "lower"),
    ("viz.svg_bytes", "bytes", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(run, n_rows: int) -> dict[str, float]:
    """Per-layer numbers from the spans of a traced run; 0 where a layer is not used.

    A score call is *bulk* when it scores the whole ``n_rows`` data set
    or a KernelSHAP background batch; every other call is a *sweep*
    made by ``explain`` or ``overall_importance``. Call and row counts
    are per completed cycle; times are medians per call.
    """
    t = run.tracer
    sweep, bulk = [], []
    for s in t.named("detectors.score"):
        under_shap = s.parent is not None and t.spans[s.parent].name == "shap_baseline.kernel_shap"
        (bulk if under_shap or s.counts["rows"] == n_rows else sweep).append(s)
    in_cycles = t.named("detectors.score", kind="cycle")
    loads = t.named("data.load_csv")
    explains = t.named("explainer.explain")
    svgs = t.named("viz.render_whatif") + t.named("viz.render_rank_bars")

    def us_per_row(spans) -> float:
        rows = sum(s.counts["rows"] for s in spans)
        return sum(s.duration for s in spans) / rows * 1e6 if rows else 0.0

    return {
        "data.load_csv_s": t.median("data.load_csv"),
        "data.load_csv_mb_per_s": _median([s.counts["bytes"] / s.duration / 1e6 for s in loads]),
        "data.save_csv_s": t.median("data.save_csv"),
        "data.grid_s": t.median("data.grid"),
        "synth.generate_s": t.median("synth.generate"),
        "detectors.fit_s": t.median("detectors.fit"),
        "detectors.model_save_s": t.median("detectors.model_save"),
        "detectors.model_load_s": t.median("detectors.model_load"),
        "detectors.score_calls": len(in_cycles) / run.cycles,
        "detectors.score_rows": sum(s.counts["rows"] for s in in_cycles) / run.cycles,
        "detectors.sweep_score_s": _median([s.duration for s in sweep]),
        "detectors.sweep_us_per_row": us_per_row(sweep),
        "detectors.bulk_score_s": _median([s.duration for s in bulk]),
        "detectors.bulk_us_per_row": us_per_row(bulk),
        "explainer.explain_s": t.median("explainer.explain"),
        "explainer.self_s": _median(t.self_times("explainer.explain")),
        "explainer.evals_per_explanation": _median([s.counts.get("scored_rows", 0) for s in explains]),
        "aggregate.overall_s": t.median("aggregate.overall"),
        "aggregate.self_s": _median(t.self_times("aggregate.overall")),
        "aggregate.flagged": _median([s.counts["flagged"] for s in t.named("aggregate.overall")]),
        "shap_baseline.kernel_shap_s": t.median("shap_baseline.kernel_shap"),
        "shap_baseline.self_s": _median(t.self_times("shap_baseline.kernel_shap")),
        "shap_baseline.coalitions": _median(
            [s.counts["coalitions"] for s in t.named("shap_baseline.kernel_shap")]
        ),
        "viz.render_whatif_s": t.median("viz.render_whatif"),
        "viz.render_rank_bars_s": t.median("viz.render_rank_bars"),
        "viz.svg_bytes": _median([s.counts["bytes"] for s in svgs]),
        "cli.startup_s": t.median("cli.startup"),
        "cli.overhead_s": _median(run.samples["cli.overhead"]),
    }


def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.6g}"


def _print_table(rows) -> None:
    for name, values, unit in rows:
        if values:
            s = summarize(values)
            print(f"  {name:<34} p50 {_fmt(s['p50']):>12} {unit:<6} p95 {_fmt(s['p95']):>12}  n={s['n']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "anomex" / "__init__.py").is_file():
        print(f"perfbench: no anomex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anomex

    if not Path(anomex.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported anomex from {anomex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    wl = {
        "cli-iforest-20k": lambda: workloads.CliIforest(SRC, scratch),
        "explain-loda-wide": workloads.ExplainLodaWide,
        "shap-iforest-20k": workloads.ShapIforest,
    }[name]()
    run = workloads.Run(Tracer(trace))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            run.tracer.new_op("setup")
            t0 = time.perf_counter()
            state = wl.setup(run, seed)
            setups.append(time.perf_counter() - t0)
        deadline = time.perf_counter() + seconds
        last = 0.0
        while run.cycles == 0 or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            wl.cycle(run, state)
            last = time.perf_counter() - t0
            if run.failed:
                break
            run.cycles += 1
        if trace and run.failed == 0:
            overhead = workloads.trace_overhead_pct(*state.probe)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {name} seed {seed} trace {int(trace)}: {run.cycles} cycles")
    for key, note in sorted(run.notes.items()):
        print(f"  note {key}: {note}")
    ok = run.failed == 0
    metrics = {}
    if trace:
        spec = PER_LAYER
        run.tracer.dump(WORK / f"trace-{name}-seed{seed}.json")
        if ok:
            metrics = layer_metrics(run, wl.n_normal + wl.n_anomalies)
            metrics["trace.overhead_pct"] = overhead
    else:
        spec = END_TO_END
        if ok:
            metrics = {
                "setup_s": statistics.median(setups),
                "cycle_p50_s": statistics.median(run.samples["cycle"]),
                "explain_p50_ms": statistics.median(run.samples[wl.explain_samples]) * 1e3,
                "peak_rss_mb": resource.getrusage(wl.rss_of).ru_maxrss / 1024.0,
            }
            _print_table(wl.report(run))
    print(f"  {'failed_frac':<34} {_fmt(failed_frac(run.attempted, run.failed))} "
          f"({run.failed}/{run.attempted})")
    for metric, unit, _ in spec:
        if metric in metrics:
            print(f"  {metric:<34} {_fmt(metrics[metric])} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u, _ in spec if m in metrics},
    }))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
        if proc.returncode == 2 or not lines:
            return code
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
