import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from anomex import bench
from anomex.data import Dataset


class CountingScorer:
    """Wraps a batch scorer and counts per-sample evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.evaluations = 0

    def __call__(self, batch):
        batch = np.atleast_2d(batch)
        self.evaluations += batch.shape[0]
        return self.fn(batch)


@pytest.fixture(autouse=True)
def thread_clock_for_timing_tests(request, monkeypatch):
    """``timing`` tests time ``anomex.bench`` on the calling thread's CPU clock.

    Their ratios then leave out the time other processes hold the CPU,
    which the wall clock counts on a busy box. The clock still counts
    cache and frequency effects of that load, so this makes the ratios
    steadier, not exact.
    """
    if request.node.get_closest_marker("timing"):
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=time.thread_time))


@pytest.fixture
def counting():
    return CountingScorer


def make_dataset(rows, names=None, labels=None):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    if names is None:
        names = tuple(f"f{j}" for j in range(rows.shape[1]))
    return Dataset(tuple(names), rows, labels)


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw allocated while it ran.

    numpy reports its array buffers to tracemalloc, so the peak counts
    every temporary array; it repeats exactly from run to run.
    """
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def random_scorer(rng, d):
    """A random smooth scorer family for fuzzing; higher = more anomalous."""
    kind = rng.integers(4)
    w = rng.normal(size=d)
    b = float(rng.normal())
    if kind == 0:
        return lambda X: X @ w + b
    if kind == 1:
        return lambda X: (X**2) @ np.abs(w) + b
    if kind == 2:
        c = rng.normal(size=d)
        return lambda X: np.abs((X - c) @ w)
    freq = float(rng.uniform(0.5, 3.0))
    return lambda X: np.sin(freq * (X @ w)) + b
