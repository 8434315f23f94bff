"""Alternating parent/change pairs of the benchmark, written as one JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --out BENCH_11.json \
        shap-iforest-20k=10 explain-loda-wide=5 cli-iforest-20k=5

Each ``WORKLOAD=PAIRS`` argument asks for that many pairs of
``python3 perfbench/run.py --workload WORKLOAD --seed S --trace 0`` runs,
at the benchmark's default length:
one in an export of the parent commit (``git archive``, into a temporary
directory) and one in the working tree, uncommitted edits included. The
first pair of each workload runs the parent first, the next the change
first, and so on; every pair has a seed of its own, counted up from
``--first-seed`` across all workloads. One more pair per workload, change
first, runs on ``--held-out-seed``. Workloads run one after another, never
two at once, so they do not share the CPUs.

Before each pair a CPU-capacity probe times a fixed pure-Python loop
alone and then two copies of it at once, each in its own interpreter, and
the pair records the ratio of the two wall times as ``cpu_probe``: about
1.0 while the box gives two CPUs, about 2.0 while it gives one, so a
reader can tell a slower host from slower code.

The file holds the last JSON line of every run under
``workloads[W]["pairs"]`` and ``["held_out"]``, and per end-to-end metric
of BENCHMARK.json the medians and quartiles of each side
(``statistics.quantiles(n=4)``), the change's median over the parent's
minus one, how many pairs read lower with the change, and a verdict
(see ``verdict``). It is rewritten after every run, so an interrupted
session keeps what it measured. A run that exits non-zero, or whose
last line is not a JSON object reporting ``"correct": true``, stops
everything with its stderr tail; it is never counted as a sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-run limit: 40 s of cycles plus setup, warm-up and the last cycle.
RUN_TIMEOUT_S = 900
# Characters of a failed run's stderr shown in the error.
STDERR_TAIL = 2000
# Share of pairs the change must win for a gain (choosing-metrics, section 8).
GAIN_SHARE = 0.9
# The probe's loop: pure Python, no I/O, about 0.2 s on one CPU of a 2-vCPU
# VM, so each interpreter holds one CPU for as long as it runs.
PROBE_LOOP = "sum(i * i for i in range(3_000_000))"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_commit(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into`` (git archive, no .git)."""
    archive = into / "tree.tar"
    _git("archive", "--format=tar", f"--output={archive}", rev)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``checkout``; its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:  # a malformed last line fails like any other run
            pass
    if not isinstance(result, dict) or result.get("correct") is not True:
        last = lines[-1] if lines else None
        raise RuntimeError(
            f"{workload} seed {seed} in {checkout} failed (exit code {proc.returncode}, "
            f"last line {last!r}); stderr ends:\n{proc.stderr[-STDERR_TAIL:]}"
        )
    return result


def loops_wall_s(count: int) -> float:
    """Wall time of ``count`` interpreters running PROBE_LOOP at once."""
    start = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, "-c", PROBE_LOOP]) for _ in range(count)]
    for proc in procs:
        if proc.wait() != 0:
            raise RuntimeError(f"the CPU probe's loop exited with code {proc.returncode}")
    return time.perf_counter() - start


def cpu_probe() -> dict:
    """One loop alone, then two at once: their wall times and the ratio of two to one."""
    one = loops_wall_s(1)
    two = loops_wall_s(2)
    return {"one_loop_s": one, "two_loops_s": two, "two_over_one": two / one}


def run_pair(checkouts: dict[str, Path], workload: str, seed: int, first: str) -> dict:
    pair = {"seed": seed, "first": first, "cpu_probe": cpu_probe()}
    for side in (first, "change" if first == "parent" else "parent"):
        pair[side] = run_bench(checkouts[side], workload, seed)
        print(f"{workload} seed {seed} {side}: "
              f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
    return pair


def _value(run: dict, metric: str) -> float | None:
    entry = run["metrics"].get(metric)
    return None if entry is None else entry["value"]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json (all lower-is-better): each side's
    median and quartiles, the ratio of the medians, in how many pairs the change
    reads lower, and a verdict."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        both = [(_value(p["parent"], name), _value(p["change"], name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if len(both) < 2:  # statistics.quantiles needs two samples
            continue
        entry = {}
        for side, values in zip(("parent", "change"), zip(*both)):
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry |= {f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3}
        entry["change_over_parent"] = entry["change_median"] / entry["parent_median"] - 1
        entry["change_lower_in_pairs"] = sum(b < a for a, b in both)
        entry["pairs"] = len(both)
        entry["verdict"] = verdict(entry, metric["bound"])
        out[name] = entry
    return out


def verdict(entry: dict, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``no change`` for one summarized metric.

    A gain is a change lower in at least GAIN_SHARE of the pairs whose
    median is below the parent's by more than the parent's Q3 - Q1. Worse
    is a median above the parent's by more than ``bound`` of it.
    Unresolved is a parent whose Q3 - Q1 is wider than ``bound`` of its
    median, so a change within the bound cannot be told from noise.
    """
    parent, change = entry["parent_median"], entry["change_median"]
    spread = entry["parent_q3"] - entry["parent_q1"]
    if entry["change_lower_in_pairs"] >= GAIN_SHARE * entry["pairs"] and parent - change > spread:
        return "gain"
    if change - parent > bound * parent:
        return "worse"
    if spread > bound * parent:
        return "unresolved"
    return "no change"


def held_out_ratios(pair: dict, metrics: list[dict]) -> dict:
    ratios = {}
    for metric in metrics:
        a, b = _value(pair["parent"], metric["name"]), _value(pair["change"], metric["name"])
        if a is not None and b is not None:
            ratios[metric["name"]] = b / a - 1
    return ratios


def box() -> dict:
    """The machine the pairs ran on (Linux: read from /proc)."""
    info = {}
    for path in ("/proc/cpuinfo", "/proc/meminfo"):
        for line in Path(path).read_text().splitlines():
            key, _, value = line.partition(":")
            info.setdefault(key.strip(), value.strip())
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": info["model name"],
        "memory_gb": round(int(info["MemTotal"].split()[0]) / 2**20),
        "os": f"{platform.system()} {'.'.join(platform.release().split('.')[:2])}",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": 1,  # perfbench/run.py pins it
    }


def _plan(spec: str) -> tuple[str, int]:
    workload, _, pairs = spec.partition("=")
    if not workload or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS with PAIRS >= 1, got {spec!r}")
    return workload, int(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", nargs="+", type=_plan, metavar="WORKLOAD=PAIRS")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--held-out-seed", type=int, default=4242)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    doc = {
        "description": (
            "Last JSON line of each `python3 perfbench/run.py --workload <name> --seed <seed> "
            "--trace 0` run (default --seconds 40) at the parent commit (a git archive "
            "export) and in the working tree, in alternating pairs: the first pair of each "
            "workload runs the parent first, the next the change first, and so on. `held_out` "
            f"is one more pair per workload on seed {args.held_out_seed}, change first. "
            "`cpu_probe` of a pair, taken before its runs, is the wall time of two "
            "concurrent copies of a fixed pure-Python loop over that of one alone: about "
            "1.0 with two usable CPUs, about 2.0 with one. "
            "Written by tools/bench_pairs.py."
        ),
        "parent_commit": _git("rev-parse", "--short", args.parent),
        "box": box(),
        "workloads": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    seed = args.first_seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export_commit(args.parent, Path(tmp))
        checkouts = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload, count in args.plan:
            entry = doc["workloads"][workload] = {"seeds": [], "summary": {}, "pairs": []}
            for i in range(count):
                first = "parent" if i % 2 == 0 else "change"
                entry["pairs"].append(run_pair(checkouts, workload, seed, first))
                entry["seeds"].append(seed)
                entry["summary"] = summarize(entry["pairs"], metrics)
                seed += 1
                save()
        for workload, _ in args.plan:
            pair = run_pair(checkouts, workload, args.held_out_seed, "change")
            doc["workloads"][workload]["held_out"] = {
                "seed": args.held_out_seed,
                "pairs": [pair],
                "change_over_parent": held_out_ratios(pair, metrics),
            }
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
