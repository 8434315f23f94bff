"""In-memory spans recorded around the benchmark's calls into anomex.

A span has a name, start and end (``perf_counter`` seconds), the index
of the span that was open when it started, the id of the operation it
belongs to (one explanation, one CLI step, one set-up) and free-form
counts. Nothing here is imported by anomex; the spans are written out
as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

SCORE_SPAN = "detectors.score"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(interval: tuple[float, float], children: Sequence[tuple[float, float]]) -> float:
    """Length of ``interval`` minus the part of it covered by any child interval.

    Children are clipped to the interval and overlapping children are
    counted once.
    """
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children)
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (hi - lo) - covered


class Tracer:
    """Records spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op_kinds: dict[int, str] = {}
        self._op = 0

    def new_op(self, kind: str) -> int:
        """Start a new operation id of ``kind``; later spans belong to it."""
        self._op += 1
        self.op_kinds[self._op] = kind
        return self._op

    @contextlib.contextmanager
    def span(self, name: str, **counts) -> Iterator[Span]:
        """Time the body as one span; callers may add to the yielded span's counts.

        A score span adds its row count to its parent's ``scored_rows``,
        which is how the evaluations of one explanation are counted.
        """
        if not self.enabled:
            yield Span(name, 0.0, 0.0, None, self._op, counts)
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent, self._op, counts)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if name == SCORE_SPAN and parent is not None:
                parent_counts = self.spans[parent].counts
                parent_counts["scored_rows"] = parent_counts.get("scored_rows", 0) + counts["rows"]

    def scorer(self, score: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        """The scorer itself when tracing is off, else a wrapper that spans each call."""
        if not self.enabled:
            return score

        def traced(batch: np.ndarray) -> np.ndarray:
            with self.span(SCORE_SPAN, rows=len(batch)):
                return score(batch)

        return traced

    def named(self, name: str, kind: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those of operations of one kind."""
        return [
            s for s in self.spans
            if s.name == name and (kind is None or self.op_kinds.get(s.op) == kind)
        ]

    def self_times(self, name: str) -> list[float]:
        """Each ``name`` span's duration minus the time its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return [
            self_time((s.start, s.end), children.get(i, []))
            for i, s in enumerate(self.spans)
            if s.name == name
        ]

    def median(self, name: str) -> float:
        """Median duration of the ``name`` spans, 0 when there are none."""
        durations = [s.duration for s in self.named(name)]
        return statistics.median(durations) if durations else 0.0

    def dump(self, path: Path) -> None:
        doc = {"op_kinds": self.op_kinds, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
