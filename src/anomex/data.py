"""Datasets, empirical quantile grids, and score thresholding.

Everything downstream works with three primitives defined here:

- ``Dataset``: a row-major float64 matrix with named features and an
  optional binary label column (1 = anomalous) kept apart from the
  features.
- ``QuantileGrid``: per-feature empirical quantiles at the K levels
  ``linspace(0, 1, K)`` — the alphabet every what-if perturbation draws
  its values from, checked once, when the grid is built.
- a threshold fitted on training scores that separates Normal from
  Anomalous; classification is strict (a score exactly on the threshold
  is Normal).

One reader serves ``load_csv`` (every row) and ``load_csv_row`` (the
header and one row, the others not validated). A plain file (see
``_record`` for its header line, ``_plain_line_ends`` for the rest) is
scanned in binary blocks: a whole read parses each block with
``np.loadtxt`` into arrays sized once, a row read stops at its row, and
neither holds more of the file than one block. Any other file takes the
exact path, csv.reader record by record, where a row read still reads
every record but parses only its own.

All types are immutable after construction and safe for concurrent
readers.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

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
    return _read(path, None, has_labels)


def load_csv_row(path: str | Path, index: int, has_labels: bool = False) -> Dataset:
    """Row ``index`` of ``load_csv(path, has_labels)``, as a one-row Dataset.

    Only the header and that row are parsed, with the values, error
    messages and row numbers of ``load_csv``; the other rows are not
    validated. A plain file is read up to that row and no further.

    RowOutOfRange if there is no row ``index``; every line is then counted.
    """
    return _read(path, index, has_labels)


def _read(path: str | Path, index: int | None, has_labels: bool) -> Dataset:
    """Every row of ``path`` (``index`` None) or its row ``index``, checked.

    ``_read_plain`` reads a plain file, ``_read_exact`` any file it
    refuses; the checks below then word every error the same way.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        header, n_rows, body = _read_plain(path, index, has_labels)
    except ValueError:
        header, n_rows, body = _read_exact(path, index)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    names = _feature_columns(path, header, has_labels)
    if n_rows == 0:
        raise DataError(f"{path}: no data rows")
    first = 0 if index is None else index
    if not 0 <= first < n_rows:
        _check_unique(names)  # as a whole read's Dataset would
        raise RowOutOfRange(first, n_rows)
    if isinstance(body, list):  # records, parsed and checked cell by cell
        values = _parse_cells(path, header, body, first)
        body = (values[:, :-1], values[:, -1]) if has_labels else (values, None)
    return _dataset(path, names, *body, first)


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
    path: Path, names: list[str], features: np.ndarray, labels: np.ndarray | None, first: int
) -> Dataset:
    """A Dataset of parsed cells whose row 0 is the file's row ``first``; checks labels."""
    if labels is None:
        return Dataset(tuple(names), features)
    bad = np.flatnonzero(~np.isin(labels, (0.0, 1.0)))
    if bad.size:
        raise DataError(f"{path}: label at row {first + int(bad[0]) + 1} is not 0 or 1")
    return Dataset(tuple(names), features, labels.astype(np.int64))


def _read_exact(path: Path, index: int | None) -> tuple[list[str] | None, int, list]:
    """The header, row count and records of ``path``, all read by csv.reader.

    Every record is read, so a csv.Error or a line that is not UTF-8 is a
    DataError wherever it is; only row ``index`` (or every row) is kept.
    """
    kept, n_rows = [], 0
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            for record in reader:
                if record:  # csv.reader makes a blank line an empty record
                    if index is None or n_rows == index:
                        kept.append(record)
                    n_rows += 1
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: line {_first_non_utf8_line(path)} is not valid UTF-8") from None
    return header, n_rows, kept


def _read_plain(
    path: Path, index: int | None, has_labels: bool
) -> tuple[list[str], int, tuple[np.ndarray, np.ndarray | None] | list]:
    """The header, row count and body of a plain file, from its line scan.

    A whole read parses each scanned block with its own ``np.loadtxt`` into
    a feature array and, with ``has_labels``, a label vector of the last
    column, both allocated once for the body's line count; a row read
    decodes row ``index`` only and stops there, counting ``index + 1`` rows.
    ValueError wherever ``_read_exact`` must read the file instead.
    """
    with path.open("rb") as fh:
        line = fh.readline()
        if not line:
            raise ValueError("an empty file")
        header = _record(line)
        if index is not None:
            seen = 0  # rows before `block`
            for block, starts, ends in _plain_blocks(fh):
                k = index - seen
                if 0 <= k < starts.size:
                    return header, index + 1, [_record(block[starts[k] : ends[k]])]
                seen += starts.size
            return header, seen, []
        body = fh.tell()
        buf = bytearray(_ROW_SCAN_BYTES)
        bound = 1  # rows, blank lines too
        while n := fh.readinto(buf):
            bound += buf.count(b"\n", 0, n)
        fh.seek(body)
        width = len(header)
        n_features = width - 1 if has_labels else width  # -1 fails, for _read_exact to word
        features = np.empty((bound, n_features))
        labels = np.empty(bound) if has_labels else None
        n_rows = 0
        for block, starts, ends in _plain_blocks(fh):
            # comments=None: with numpy's default a '#...' row would be dropped
            values = np.loadtxt(
                (block[s:e].decode() for s, e in zip(starts.tolist(), ends.tolist())),
                delimiter=",", comments=None, dtype=np.float64, ndmin=2,
            )
            # numpy rounds like float(), so finite values of the right width are
            # bit-identical to _parse_cells'; anything else needs its error text
            if values.shape[1] != width or not np.isfinite(values).all():
                raise ValueError("the body needs the per-cell checks")
            rows = slice(n_rows, n_rows + values.shape[0])
            features[rows] = values[:, :n_features]
            if labels is not None:
                labels[rows] = values[:, -1]
            n_rows = rows.stop
    if n_rows == 0:
        return header, 0, []
    return header, n_rows, (features[:n_rows], None if labels is None else labels[:n_rows])


def _record(line: bytes) -> list[str]:
    """The csv.reader record of one line; ValueError unless it ends there.

    csv.Error here is a bare \\r, which ends a record early, or a cell over
    the field limit; a line break in a cell is a quote left open.
    """
    try:
        (record,) = csv.reader([line.decode("utf-8")])
    except csv.Error as exc:
        raise ValueError(exc) from None
    if any("\n" in cell for cell in record):
        raise ValueError("a record that goes on past its line")
    return record


# Bytes read per step of the line scan: per-step Python is negligible at
# this size, and memory stays flat. On the 20 MB 20000x50 criterion-7 file
# an `anomex explain` process peaks at 38 MB this way; a prototype that
# read and split the whole file peaked at 73 MB.
_ROW_SCAN_BYTES = 1 << 20

# Bytes that make a line not plain. A quote can hold a line break or a
# comma; loadtxt strips \x1c-\x1f around a cell as whitespace, which
# float() rejects.
_UNLIKE_CSV = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_blocks(fh: BinaryIO) -> Iterator[tuple[bytearray, np.ndarray, np.ndarray]]:
    """Blocks of whole lines from ``fh``, with where their non-blank lines start and end.

    A block is the head of one ``_ROW_SCAN_BYTES`` buffer, reused from
    step to step, so it is valid until the next step. Each step moves the
    unfinished line at the end of the last block to the front of the
    buffer and fills the rest from ``fh``; the block ends after the last
    line break. A block of blank lines only is not yielded. ValueError at
    the first line that is not plain.
    """
    limit = csv.field_size_limit()
    buf = bytearray(_ROW_SCAN_BYTES)
    scratch = np.empty(len(buf), dtype=bool)  # for the byte comparisons of a block
    held = 0  # bytes of the unfinished line at the front of buf
    while True:
        if held == len(buf):  # a line this long is plain only under a raised limit
            buf.extend(bytes(len(buf)))
            scratch = np.empty(len(buf), dtype=bool)
        n = fh.readinto(memoryview(buf)[held:])
        end = held + n
        cut = buf.rfind(b"\n", 0, end) + 1 if n else end
        if end - cut > limit:
            raise ValueError("a line longer than csv.field_size_limit()")
        starts, ends = _plain_line_ends(buf, cut, limit, scratch)
        if starts.size:
            yield buf, starts, ends
        if not n:
            return
        held = end - cut
        buf[:held] = buf[cut:end]


def _plain_line_ends(
    buf: bytearray, size: int, limit: int, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each non-blank line of ``buf[:size]`` starts and ends; ValueError unless all are plain.

    ``buf[:size]`` holds whole lines from a line start; a line ends at its
    b"\\n" (not at the \\x0b, \\x0c, \\x85 or \\u2028 of str.splitlines,
    which csv.reader keeps in a cell), or at ``size``. A blank line
    (empty, or a lone \\r before its \\n) is skipped, as csv.reader
    skips it. A plain line holds no byte of ``_UNLIKE_CSV``, has a \\r only
    before its \\n and is at most ``limit`` bytes long, so csv.reader makes
    it one record, none of whose cells exceeds ``csv.field_size_limit()``.
    ``scratch`` holds at least ``size`` booleans, overwritten here.
    """
    if not size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    a = np.frombuffer(buf, dtype=np.uint8, count=size)
    hits = scratch[:size]
    ends = np.flatnonzero(np.equal(a, ord("\n"), out=hits))
    crlf = np.count_nonzero(a[ends[ends > 0] - 1] == ord("\r"))
    bare_cr = np.count_nonzero(np.equal(a, ord("\r"), out=hits)) != crlf
    if bare_cr or any(buf.find(s, 0, size) >= 0 for s in _UNLIKE_CSV):
        raise ValueError("a quote, a \\x1c-\\x1f byte or a bare \\r, which ends a record")
    if buf[size - 1] != ord("\n"):
        ends = np.append(ends, size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if (lengths > limit).any():
        raise ValueError("a line longer than csv.field_size_limit()")
    blank = (lengths == 0) | ((lengths == 1) & (a[starts] == ord("\r")))
    return starts[~blank], ends[~blank]


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


# Rows formatted per write of save_csv. Against 1024 rows, 256 cut an
# `anomex synth` process of the 20000x50 criterion-7 file from 53.3 to
# 47.5 MB peak RSS, wrote the same bytes and took no longer (a median of
# 0.70 against 0.78 s over 12 alternating saves).
_SAVE_BLOCK_ROWS = 256


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
    """Per-feature empirical quantile table at the K levels ``linspace(0, 1, K)``.

    ``values[j, k]`` is the empirical quantile of feature j at ``levels[k]``,
    so column 0 holds feature minima and column K-1 feature maxima. Values
    are (d, K >= 2), finite and non-decreasing along each feature.
    """

    values: np.ndarray
    levels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 2:
            raise ValueError(f"quantile values must be (d, K >= 2), got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("quantile values hold a non-finite value")
        if (np.diff(values, axis=1) < 0).any():
            raise ValueError("quantile values must be non-decreasing along each feature")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "levels", _freeze(np.linspace(0.0, 1.0, values.shape[1])))

    @property
    def n_levels(self) -> int:
        return self.levels.size

    @property
    def n_features(self) -> int:
        return self.values.shape[0]


def build_quantile_grid(data: Dataset, k_levels: int = 51) -> QuantileGrid:
    """Tabulate empirical quantiles of every feature at K >= 2 evenly spaced levels.

    Quantiles interpolate linearly between order statistics, so K = 3
    yields (minimum, median, maximum) per feature. Each column is sorted
    on its own first: the order statistics are the same, and selecting
    them from a sorted copy is cheaper than from the raw column.
    """
    levels = np.linspace(0.0, 1.0, k_levels)
    values = np.empty((data.n_features, k_levels))
    for j in range(data.n_features):
        values[j] = np.quantile(np.sort(data.rows[:, j]), levels, overwrite_input=True)
    return QuantileGrid(values)


def _feature_values(grid: QuantileGrid, feature: int) -> np.ndarray:
    """Row ``feature`` of the grid; ValueError outside [0, d), which numpy would wrap."""
    if not 0 <= feature < grid.n_features:
        raise ValueError(f"feature {feature} out of range [0, {grid.n_features})")
    return grid.values[feature]


def value_at(grid: QuantileGrid, feature: int, level: float) -> float:
    """Quantile value of ``feature`` at a finite ``level`` (clamped to [0, 1])."""
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    lv = min(max(float(level), 0.0), 1.0)
    return float(np.interp(lv, grid.levels, _feature_values(grid, feature)))


def level_of(grid: QuantileGrid, feature: int, value: float) -> float:
    """Empirical CDF position of ``value`` within the feature's training values.

    Inverse linear interpolation on the grid; values outside the observed
    range clamp to 0 or 1. On flat stretches of the quantile function the
    lowest matching level is returned.
    """
    row = _feature_values(grid, feature)[None, :]
    return float(_levels(row, grid.levels, np.asarray([float(value)]))[0])


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
    with np.errstate(all="ignore"):  # rows where v sits outside, on or far from a value
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


def check_background_fraction(fraction: float) -> None:
    """ValueError unless ``fraction``, a share of a dataset's rows, is in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
