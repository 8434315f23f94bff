"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workload shap-iforest-20k --seeds 1-5 --out /tmp/x.json

Runs ``run.py`` once per (workload, seed) with tracing off, in series,
then once per workload with tracing on, and writes per workload and
metric the median, the quartiles and the spread (Q3 - Q1) / median that
BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS
from stats import quartile_spread

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    seeds = _seeds(args.seeds)
    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": quartile_spread(vals), "values": vals}
        traced = _run(workload, seeds[0], seconds, 1)
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
