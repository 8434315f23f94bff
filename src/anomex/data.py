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

CSV files are read whole by ``load_csv``. ``load_csv_row`` reads the
header and one row only, with the same values and error texts for what
it reads; the other rows are not validated.

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

from anomex.errors import DataError, NumericError

# Scoring contract used throughout: a batch of samples (m, d) maps to a
# vector of m finite scores, higher = more anomalous. Detectors expose a
# ``score`` method with this shape; any callable works.
Scorer = Callable[[np.ndarray], np.ndarray]


def checked_scores(scores: object, n: int, where: Callable[[int], str]) -> np.ndarray:
    """A scorer's output for an n-row batch as float64, held to the contract.

    NumericError unless it holds exactly n scores, all finite; ``where(i)``
    names the sample behind the first non-finite score.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size != n:
        raise NumericError(f"scorer returned {scores.size} scores for {n} samples")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(f"scorer returned a non-finite score for {where(int(bad[0]))}")
    return scores


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
        _check_unique(names)
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


def _check_unique(names: Sequence[str]) -> None:
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise DataError(f"duplicate feature names: {dupes}")


LABEL_COLUMN = "label"


class RowOutOfRange(IndexError):
    """A row index outside a file's rows; ``n_rows`` is how many it has."""

    def __init__(self, index: int, n_rows: int) -> None:
        super().__init__(f"row {index} out of range [0, {n_rows})")
        self.n_rows = n_rows


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

    names = _feature_columns(path, header, has_labels)
    if values is None:
        if not raw_rows:
            raise DataError(f"{path}: no data rows")
        values = _parse_cells(path, header, raw_rows)
    return _dataset(path, names, values, has_labels)


def _feature_columns(path: Path, header: list[str], has_labels: bool) -> list[str]:
    """The feature names of a stripped header row; checks the label column."""
    if not has_labels:
        return header
    last = header[-1] if header else ""
    if last != LABEL_COLUMN:
        raise DataError(f"{path}: expected trailing {LABEL_COLUMN!r} column, got {last!r}")
    if len(header) == 1:
        raise DataError(f"{path}: no feature columns besides {LABEL_COLUMN!r}")
    return header[:-1]


def _dataset(
    path: Path, names: list[str], values: np.ndarray, has_labels: bool, first: int = 0
) -> Dataset:
    """A Dataset of parsed cells whose row 0 is the file's row ``first``; checks labels."""
    if not has_labels:
        return Dataset(tuple(names), values)
    labels = values[:, -1]
    if not np.isin(labels, (0.0, 1.0)).all():
        i = int(np.nonzero(~np.isin(labels, (0.0, 1.0)))[0][0])
        raise DataError(f"{path}: label at row {first + i + 1} is not 0 or 1")
    return Dataset(tuple(names), values[:, :-1], labels.astype(np.int64))


# Bytes read per step of load_csv_row's scan for its row: per-step Python
# is negligible at this size, and memory stays flat. On the 20 MB 20000x50
# criterion-7 file an `anomex explain` process peaks at 38 MB this way; a
# prototype that read and split the whole file peaked at 73 MB.
_ROW_SCAN_BYTES = 1 << 20

# Bytes that send load_csv_row to load_csv: with them, records may not be
# the lines split at b"\n". A quote can hold a line break; str.splitlines
# breaks lines at \x1c-\x1f, and load_csv sends them down its per-cell path.
_UNLIKE_CSV = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def load_csv_row(path: str | Path, index: int, has_labels: bool = False) -> Dataset:
    """Row ``index`` of ``load_csv(path, has_labels)``, as a one-row Dataset.

    Only the header and that row are parsed: the file is scanned in binary
    chunks for its line breaks, and the two lines go through the csv
    reader, cell checks and label check of ``load_csv``, so values, error
    messages and row numbers are the same. Rows that are not read are not
    validated. Where csv.reader may split records other than at line
    breaks (a quote, a bare \\r, a blank line, a \\x1c-\\x1f byte or a line
    longer than ``csv.field_size_limit()`` in the scanned part) or a line
    read is not UTF-8, the whole file goes through ``load_csv`` instead.

    RowOutOfRange if there is no row ``index``; every line is then counted.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    scan = _scan_for_row(path, index)
    if scan is not None:
        header_line, row_line, n_rows = scan
        lines = [header_line] if row_line is None else [header_line, row_line]
        try:
            head, *cells = csv.reader([line.decode("utf-8") for line in lines])
        except (UnicodeDecodeError, csv.Error):
            scan = None
    if scan is None:
        data = load_csv(path, has_labels=has_labels)
        if not 0 <= index < data.n_rows:
            raise RowOutOfRange(index, data.n_rows)
        labels = None if data.labels is None else data.labels[index : index + 1]
        return Dataset(data.feature_names, data.rows[index : index + 1], labels)
    header = [h.strip() for h in head]
    names = _feature_columns(path, header, has_labels)
    if row_line is None:
        if n_rows == 0:
            raise DataError(f"{path}: no data rows")
        _check_unique(names)  # as load_csv's Dataset would
        raise RowOutOfRange(index, n_rows)
    return _dataset(path, names, _parse_cells(path, header, cells, first=index), has_labels,
                    first=index)


def _scan_for_row(path: Path, index: int) -> tuple[bytes, bytes | None, int] | None:
    """The header line, row ``index``'s line or None, and the rows counted.

    Lines keep their line break. Without row ``index`` the count is that
    of every row in the file. None where a chunk read is not plain (see
    ``_plain_line_ends``) or the file has no header line.
    """
    limit = csv.field_size_limit()
    target = index + 1 if index >= 0 else -1  # line number; the header is line 0
    header = None
    seen = 0  # lines before `block`
    carry = b""  # the unfinished line at the end of the last chunk
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(_ROW_SCAN_BYTES)
            if chunk:
                block = carry + chunk
                cut = block.rfind(b"\n") + 1
                block, carry = block[:cut], block[cut:]
                if len(carry) > limit:
                    return None
            else:
                block = carry  # the last line, which lacks a line break
            ends = _plain_line_ends(block, limit)
            if ends is None:
                return None
            if header is None and ends.size:
                header = block[: ends[0] + 1]
            k = target - seen
            if 0 <= k < ends.size:
                start = ends[k - 1] + 1 if k else 0
                return header, block[start : ends[k] + 1], 0
            seen += ends.size
            if not chunk:
                return None if header is None else (header, None, seen - 1)


def _plain_line_ends(block: bytes, limit: int) -> np.ndarray | None:
    """Where each line of ``block`` ends, or None unless every line is plain.

    ``block`` holds whole lines from a line start; a line ends at its
    b"\\n", or at the end of ``block`` if it has none. A plain line is not
    blank, holds no byte of ``_UNLIKE_CSV``, has a \\r only before its
    \\n and is at most ``limit`` bytes long, so csv.reader makes it one
    record and none of its cells exceeds ``csv.field_size_limit()``.
    """
    if not block:
        return np.empty(0, dtype=np.intp)
    if any(s in block for s in _UNLIKE_CSV):
        return None
    a = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, a.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    terminated = ends[ends < a.size]
    crlf = np.count_nonzero(a[terminated[terminated > 0] - 1] == ord("\r"))
    if (
        np.count_nonzero(a == ord("\r")) != crlf  # a bare \r ends a record
        or (lengths == 0).any()
        or ((lengths == 1) & (a[starts] == ord("\r"))).any()
        or (lengths > limit).any()
    ):
        return None
    return ends


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


def _parse_cells(
    path: Path, header: list[str], raw_rows: list[list[str]], first: int = 0
) -> np.ndarray:
    """Convert csv.reader rows cell by cell, naming the first bad row or cell.

    ``raw_rows[0]`` is the file's row ``first``, for the row numbers.
    """
    width = len(header)
    values = np.empty((len(raw_rows), width), dtype=np.float64)
    for i, row in enumerate(raw_rows, start=first):
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
            values[i - first, j] = v
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
