"""tools/bench_pairs.py: verdicts from hand-made pairs; no benchmark is run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "explain_p50_ms", "better": "lower", "bound": 0.25}]


def pairs_of(parent, change):
    run = lambda v: {"correct": True, "metrics": {"explain_p50_ms": {"value": v, "unit": "ms"}}}
    return [{"parent": run(a), "change": run(b)} for a, b in zip(parent, change)]


def summary(parent, change):
    return bench_pairs.summarize(pairs_of(parent, change), METRICS)["explain_p50_ms"]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_spread():
    parent = [850, 840, 860, 830, 870, 845, 855, 835, 865, 850]
    change = [350, 360, 340, 355, 345, 350, 365, 335, 360, 352]
    entry = summary(parent, change)
    assert entry["change_lower_in_pairs"] == 10 and entry["pairs"] == 10
    assert entry["verdict"] == "gain"
    # 8 of 10 lower is not a gain, however large the gap
    assert summary(parent, change[:8] + [900, 900])["verdict"] == "no change"


def test_a_gap_within_the_parent_spread_is_no_gain():
    parent = [800, 900, 1000, 800, 900, 1000, 800, 900, 1000, 900]
    change = [v - 10 for v in parent]  # lower in every pair, by 10 ms
    entry = summary(parent, change)
    assert entry["change_lower_in_pairs"] == 10
    assert entry["parent_q3"] - entry["parent_q1"] > 10
    assert entry["verdict"] == "no change"


def test_worse_past_the_bound():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert summary(parent, [v * 1.3 for v in parent])["verdict"] == "worse"
    assert summary(parent, [v * 1.2 for v in parent])["verdict"] == "no change"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [400, 830, 450, 810, 500, 820, 470, 800, 460, 790]
    change = [v * 1.05 for v in parent]
    entry = summary(parent, change)
    assert (entry["parent_q3"] - entry["parent_q1"]) > 0.25 * entry["parent_median"]
    assert entry["verdict"] == "unresolved"


def test_a_metric_missing_from_a_run_is_left_out():
    pairs = pairs_of([1.0, 2.0], [1.0, 2.0])
    del pairs[0]["change"]["metrics"]["explain_p50_ms"]
    assert bench_pairs.summarize(pairs, METRICS) == {}


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (1, '{"correct": true, "metrics": {}}\n'),
        (0, '{"correct": false, "metrics": {}}\n'),
        (0, ""),
        (0, "not json\n"),
        (0, "[1, 2]\n"),
    ],
    ids=["exit-code", "incorrect", "silent", "not-json", "not-an-object"],
)
def test_run_bench_refuses_a_failed_run(monkeypatch, tmp_path, returncode, stdout):
    def fake_run(*args, **kwargs):
        return subprocess.CompletedProcess(args, returncode, stdout, "boom: output check failed")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError, match="boom: output check failed"):
        bench_pairs.run_bench(tmp_path, "cli-iforest-20k", 1)


def test_run_bench_returns_a_correct_run(monkeypatch, tmp_path):
    line = '{"correct": true, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}'

    def fake_run(*args, **kwargs):
        return subprocess.CompletedProcess(args, 0, "table\n" + line + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_bench(tmp_path, "cli-iforest-20k", 1)["metrics"]["setup_s"]["value"] == 0.1


def test_cpu_probe_is_the_ratio_of_two_concurrent_loops_to_one(monkeypatch):
    walls = {1: 0.2, 2: 0.43}
    monkeypatch.setattr(bench_pairs, "loops_wall_s", lambda count: walls[count])
    assert bench_pairs.cpu_probe() == {
        "one_loop_s": 0.2, "two_loops_s": 0.43, "two_over_one": pytest.approx(2.15),
    }


class FakeLoop:
    """A Popen stand-in that logs its start and its wait, and exits with ``code``."""

    def __init__(self, log, argv, code=0):
        log.append(("start", argv))
        self.log, self.returncode = log, code

    def wait(self):
        self.log.append(("wait",))
        return self.returncode


def test_loops_wall_s_starts_every_loop_before_waiting(monkeypatch):
    log = []
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", lambda argv: FakeLoop(log, argv))
    assert bench_pairs.loops_wall_s(2) >= 0
    start = ("start", [bench_pairs.sys.executable, "-c", bench_pairs.PROBE_LOOP])
    assert log == [start, start, ("wait",), ("wait",)]


def test_loops_wall_s_refuses_a_failed_loop(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", lambda argv: FakeLoop([], argv, 1))
    with pytest.raises(RuntimeError, match="exited with code 1"):
        bench_pairs.loops_wall_s(1)


def test_each_pair_records_a_cpu_probe(monkeypatch, tmp_path):
    probe = {"one_loop_s": 0.2, "two_loops_s": 0.2, "two_over_one": 1.0}
    monkeypatch.setattr(bench_pairs, "cpu_probe", lambda: probe)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, workload, seed: {
        "correct": True, "metrics": {}, "checkout": str(checkout)})
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    pair = bench_pairs.run_pair(checkouts, "cli-iforest-20k", 7, "change")
    assert pair["cpu_probe"] == probe
    assert pair["parent"]["checkout"] == str(checkouts["parent"])
    assert pair["change"]["checkout"] == str(checkouts["change"])
