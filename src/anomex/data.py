"""Datasets, empirical quantile grids, and score thresholding.

Everything downstream works with three primitives defined here:

- ``Dataset``: a row-major float64 matrix with named features and an
  optional binary label column (1 = anomalous) kept apart from the
  features.
- ``QuantileGrid``: per-feature empirical quantiles at K probability
  levels — the alphabet every what-if perturbation draws its values from.
- a threshold fitted on training scores that separates Normal from
  Anomalous; classification is strict (a score exactly on the threshold
  is Normal).

All types are immutable after construction and safe for concurrent
readers.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from anomex.errors import DataError

# Scoring contract used throughout: a batch of samples (m, d) maps to a
# vector of m finite scores, higher = more anomalous. Detectors expose a
# ``score`` method with this shape; any callable works.
Scorer = Callable[[np.ndarray], np.ndarray]


class Classification(enum.Enum):
    NORMAL = "normal"
    ANOMALOUS = "anomalous"


def classify(score: float, threshold: float) -> Classification:
    """Anomalous iff the score is strictly above the threshold."""
    return Classification.ANOMALOUS if score > threshold else Classification.NORMAL


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named feature matrix, optionally with a binary label vector.

    Invariants enforced at construction: every cell finite, n >= 1,
    d >= 1, feature names unique and matching the column count, labels
    (when present) in {0, 1} with one entry per row.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.feature_names)
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"rows must be 2-dimensional, got shape {rows.shape}")
        n, d = rows.shape
        if n < 1 or d < 1:
            raise DataError(f"dataset must have at least one row and one feature, got {n}x{d}")
        if len(names) != d:
            raise DataError(f"{len(names)} feature names for {d} columns")
        if len(set(names)) != len(names):
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise DataError(f"duplicate feature names: {dupes}")
        bad = ~np.isfinite(rows)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"non-finite value at row {i + 1}, column {names[j]!r}")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise DataError(f"labels must have shape ({n},), got {labels.shape}")
            if not np.isin(labels, (0, 1)).all():
                raise DataError("labels must be 0 or 1")
            labels = _freeze(labels.astype(np.int64))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


LABEL_COLUMN = "label"


def load_csv(path: str | Path, has_labels: bool = False) -> Dataset:
    """Read a UTF-8, comma-separated file with a mandatory header row.

    With ``has_labels`` the trailing column must be named ``label`` and
    hold 0/1 values; it is split off from the features. Cells must parse
    as finite numbers; any syntax ``float()`` accepts is accepted.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            header = [h.strip() for h in header]
            values = _parse_plain_body(fh, len(header))
            if values is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                raw_rows = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: line {_first_non_utf8_line(path)} is not valid UTF-8") from None

    if has_labels:
        if header[-1] != LABEL_COLUMN:
            raise DataError(f"{path}: expected trailing {LABEL_COLUMN!r} column, got {header[-1]!r}")
        names = header[:-1]
        if not names:
            raise DataError(f"{path}: no feature columns besides {LABEL_COLUMN!r}")
    else:
        names = header

    if values is None:
        if not raw_rows:
            raise DataError(f"{path}: no data rows")
        values = _parse_cells(path, header, raw_rows)

    if has_labels:
        labels = values[:, -1]
        if not np.isin(labels, (0.0, 1.0)).all():
            i = int(np.nonzero(~np.isin(labels, (0.0, 1.0)))[0][0])
            raise DataError(f"{path}: label at row {i + 1} is not 0 or 1")
        return Dataset(tuple(names), values[:, :-1], labels.astype(np.int64))
    return Dataset(tuple(names), values)


def _first_non_utf8_line(path: Path) -> int:
    """1-based line of the first byte sequence that is not UTF-8.

    The text reader decodes in chunks, so the position its error reports
    is relative to a chunk; decoding the whole file again gives the line.
    """
    raw = path.read_bytes()
    bad = len(raw)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.start
    return raw.count(b"\n", 0, bad) + 1


def _parse_plain_body(lines: Iterator[str], width: int) -> np.ndarray | None:
    """Parse the rows after the header in one numpy call, or return None.

    Succeeds only on a body of unquoted decimal cells that yields at least
    one row, exactly ``width`` columns and no non-finite value; numpy
    rounds like ``float()``, so the values are bit-identical to
    ``_parse_cells``. Anything else returns None and the caller falls back
    to ``_parse_cells``, which accepts every syntax ``float()`` does and
    words the error for a bad row or cell.
    """
    lines = _reject_unlike_csv(lines)
    try:
        # Blank lines are skipped by csv.reader and by loadtxt alike; peeking
        # past them avoids loadtxt's "input contained no data" warning.
        first = next((line for line in lines if line.strip("\r\n")), None)
        if first is None:
            return None
        # comments=None: with numpy's default a '#...' row would be dropped
        values = np.loadtxt(
            itertools.chain((first,), lines),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        )
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _reject_unlike_csv(lines: Iterator[str]) -> Iterator[str]:
    """Pass lines through, raising ValueError where loadtxt and csv differ.

    loadtxt strips ASCII \\x1c-\\x1f around a cell as whitespace, but
    ``float()`` rejects them; csv.reader raises on a cell longer than
    ``csv.field_size_limit()``, which loadtxt parses. Such lines must take
    the per-cell path, which behaves as the csv module does.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if (
            len(line) > limit
            or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line
        ):
            raise ValueError("line needs the per-cell path")
        yield line


def _parse_cells(path: Path, header: list[str], raw_rows: list[list[str]]) -> np.ndarray:
    """Convert csv.reader rows cell by cell, naming the first bad row or cell."""
    width = len(header)
    values = np.empty((len(raw_rows), width), dtype=np.float64)
    for i, row in enumerate(raw_rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 1}, column {header[j]!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: non-finite cell at row {i + 1}, column {header[j]!r}")
            values[i, j] = v
    return values


_SAVE_BLOCK_ROWS = 1024


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write ``data`` in the same CSV dialect ``load_csv`` reads.

    Floats are written with repr so a load round-trips bit-exactly. The
    bytes match ``csv.writer`` (excel dialect): numeric cells never need
    quoting, so body rows are joined directly, ``_SAVE_BLOCK_ROWS`` at a
    time to keep memory flat.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        header = list(data.feature_names)
        if data.labels is not None:
            header.append(LABEL_COLUMN)
        csv.writer(fh).writerow(header)
        for a in range(0, data.n_rows, _SAVE_BLOCK_ROWS):
            block = data.rows[a : a + _SAVE_BLOCK_ROWS].tolist()
            lines = [",".join(map(repr, row)) for row in block]
            if data.labels is not None:
                labels = data.labels[a : a + _SAVE_BLOCK_ROWS].tolist()
                lines = [f"{line},{label}" for line, label in zip(lines, labels)]
            fh.write("\r\n".join(lines) + "\r\n")


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Per-feature empirical quantile table over K probability levels.

    ``values[j, k]`` is the empirical quantile of feature j at
    ``levels[k]``; levels are strictly increasing and span [0, 1], so
    column 0 holds feature minima and column K-1 feature maxima.
    """

    levels: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("levels must be a 1-d sequence with at least two entries")
        if not (np.diff(levels) > 0).all():
            raise ValueError("levels must be strictly increasing")
        if levels[0] != 0.0 or levels[-1] != 1.0:
            raise ValueError("levels must start at 0 and end at 1")
        if values.ndim != 2 or values.shape[1] != levels.size:
            raise ValueError(f"values must be (d, {levels.size}), got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("quantile values must be finite")
        if (np.diff(values, axis=1) < 0).any():
            raise ValueError("quantile values must be non-decreasing per feature")
        object.__setattr__(self, "levels", _freeze(levels))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n_levels(self) -> int:
        return self.levels.size

    @property
    def n_features(self) -> int:
        return self.values.shape[0]


def build_quantile_grid(data: Dataset, k_levels: int = 51) -> QuantileGrid:
    """Tabulate empirical quantiles of every feature at K evenly spaced levels.

    Quantiles interpolate linearly between order statistics, so K = 3
    yields (minimum, median, maximum) per feature. Each column is sorted
    on its own first: the order statistics are the same, and selecting
    them from a sorted copy is cheaper than from the raw column.
    """
    if k_levels < 2:
        raise ValueError(f"need at least 2 quantile levels, got {k_levels}")
    levels = np.linspace(0.0, 1.0, k_levels)
    values = np.empty((data.n_features, k_levels))
    for j in range(data.n_features):
        values[j] = np.quantile(np.sort(data.rows[:, j]), levels, overwrite_input=True)
    return QuantileGrid(levels, values)


def value_at(grid: QuantileGrid, feature: int, level: float) -> float:
    """Quantile value of ``feature`` at ``level`` (clamped to [0, 1])."""
    lv = min(max(float(level), 0.0), 1.0)
    return float(np.interp(lv, grid.levels, grid.values[feature]))


def level_of(grid: QuantileGrid, feature: int, value: float) -> float:
    """Empirical CDF position of ``value`` within the feature's training values.

    Inverse linear interpolation on the grid; values outside the observed
    range clamp to 0 or 1. On flat stretches of the quantile function the
    lowest matching level is returned.
    """
    return float(_levels(grid.values[feature][None, :], grid.levels, np.asarray([float(value)]))[0])


def levels_of(grid: QuantileGrid, point: np.ndarray) -> np.ndarray:
    """``level_of`` for every feature at once: the (d,) levels of one point."""
    point = np.asarray(point, dtype=np.float64).ravel()
    if point.size != grid.n_features:
        raise ValueError(f"point has {point.size} features but grid has {grid.n_features}")
    return _levels(grid.values, grid.levels, point)


def _levels(values: np.ndarray, levels: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise inverse interpolation of v[j] on the non-decreasing row values[j]."""
    if not np.isfinite(v).all():
        raise ValueError("a non-finite value has no quantile level")
    # count of grid values below v: searchsorted(side="left") on every row
    hi = np.minimum((values < v[:, None]).sum(axis=1), levels.size - 1)
    lo = np.maximum(hi - 1, 0)
    rows = np.arange(v.size)
    at_hi, at_lo = values[rows, hi], values[rows, lo]
    with np.errstate(divide="ignore", invalid="ignore"):  # rows where v sits outside or on a value
        frac = (v - at_lo) / (at_hi - at_lo)
        inside = levels[lo] + frac * (levels[hi] - levels[lo])
    out = np.where(at_hi == v, levels[hi], inside)
    out[v >= values[:, -1]] = 1.0
    out[v <= values[:, 0]] = 0.0
    return out


def fit_threshold(train_scores: Sequence[float] | np.ndarray, contamination: float) -> float:
    """Score cutoff at the (1 - contamination) quantile of training scores.

    Classification against the returned value is strict: a sample is
    Anomalous iff its score is greater than the threshold.
    """
    scores = np.asarray(train_scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise ValueError("cannot fit a threshold on empty scores")
    if not np.isfinite(scores).all():
        raise ValueError("training scores must be finite")
    if not 0.0 < contamination < 1.0:
        raise ValueError(f"contamination must be in (0, 1), got {contamination}")
    return float(np.quantile(scores, 1.0 - contamination))
