import contextlib
import csv
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anomex.data
from anomex.data import (
    Dataset,
    Classification,
    QuantileGrid,
    RowOutOfRange,
    build_quantile_grid,
    classify,
    fit_threshold,
    level_of,
    levels_of,
    load_csv,
    load_csv_row,
    save_csv,
    value_at,
)
from anomex.errors import DataError

from conftest import make_dataset


# -- CSV ingestion -----------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    data = load_csv(p)
    assert data.feature_names == ("a", "b")
    assert data.n_rows == 2 and data.n_features == 2
    assert np.array_equal(data.rows, [[1.0, 2.0], [3.0, 4.0]])
    assert data.labels is None


def test_load_csv_label_split(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,1\n")
    data = load_csv(p, has_labels=True)
    assert data.feature_names == ("a", "b")
    assert data.n_features == 2
    assert np.array_equal(data.labels, [0, 1])


def test_load_csv_rejects_nan_with_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n1,NaN\n")
    with pytest.raises(DataError, match=r"row 2.*'b'"):
        load_csv(p)


def test_load_csv_rejects_non_numeric_with_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\nx,2\n")
    with pytest.raises(DataError, match=r"'x'.*row 1.*'a'"):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_duplicate_names(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,a\n1,2\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(p)


def test_load_csv_scientific_notation(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a\n1e-3\n-2.5E2\n")
    data = load_csv(p)
    assert np.allclose(data.rows.ravel(), [1e-3, -250.0])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = make_dataset(rng.normal(size=(20, 3)), labels=rng.integers(0, 2, 20))
    p = tmp_path / "rt.csv"
    save_csv(data, p)
    back = load_csv(p, has_labels=True)
    assert np.array_equal(back.rows, data.rows)
    assert np.array_equal(back.labels, data.labels)
    assert back.feature_names == data.feature_names


def test_dataset_rejects_infinite_cell():
    with pytest.raises(DataError, match="non-finite"):
        make_dataset([[1.0], [np.inf]])


def test_dataset_rows_immutable():
    data = make_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        data.rows[0, 0] = 5.0


# -- CSV differential tests ---------------------------------------------------
#
# load_csv/save_csv parse and write the body with numpy; the references
# below are the csv-module implementations they replaced, cell by cell.
# Bytes, values and error texts must match them exactly.


def reference_save_csv(data, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(data.feature_names)
        if data.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(data.n_rows):
            row = [repr(float(v)) for v in data.rows[i]]
            if data.labels is not None:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)


def reference_load_csv(path, has_labels=False):
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        raw_rows = [row for row in reader if row]
    if has_labels:
        if header[-1] != "label":
            raise DataError(f"{path}: expected trailing 'label' column, got {header[-1]!r}")
        names = header[:-1]
        if not names:
            raise DataError(f"{path}: no feature columns besides 'label'")
    else:
        names = header
    if not raw_rows:
        raise DataError(f"{path}: no data rows")
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
    if has_labels:
        labels = values[:, -1]
        if not np.isin(labels, (0.0, 1.0)).all():
            i = int(np.nonzero(~np.isin(labels, (0.0, 1.0)))[0][0])
            raise DataError(f"{path}: label at row {i + 1} is not 0 or 1")
        return Dataset(tuple(names), values[:, :-1], labels.astype(np.int64))
    return Dataset(tuple(names), values)


def load_outcome(loader, path, has_labels):
    """What a loader did: the exact bytes it returned, or its error text."""
    try:
        data = loader(path, has_labels=has_labels)
    except (DataError, csv.Error) as exc:
        return ("error", type(exc).__name__, str(exc))
    labels = None if data.labels is None else data.labels.tobytes()
    return ("ok", data.feature_names, data.rows.shape, data.rows.tobytes(), labels)


# repr switches to scientific notation below 1e-4 and at 1e16; subnormals
# and the largest finite magnitudes stress the shortest-repr round trip.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
    1e308, -1e308, 1.7976931348623157e308, 1e-05, 9.999999999999999e-06,
    0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1.0000000000000002e16,
    0.1, -123.456, 1.0,
]
csv_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
# header cells csv.writer must quote (comma, quote, line breaks), plus plain ones
csv_names = st.sampled_from(
    ["a", "b,c", 'say "hi"', "two\nlines", "cr\rname", "ünï", "x y", "#hash", "1e5"]
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(csv_floats, min_size=d, max_size=d), min_size=1, max_size=12),
            st.lists(csv_names, min_size=d, max_size=d, unique=True),
        )
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_save_csv_matches_csv_writer_and_round_trips(table, with_labels, rnd):
    rows, names = table
    labels = [rnd.randint(0, 1) for _ in rows] if with_labels else None
    data = Dataset(tuple(names), np.asarray(rows, dtype=np.float64), labels)
    with tempfile.TemporaryDirectory() as tmp:
        fast, ref = Path(tmp) / "fast.csv", Path(tmp) / "ref.csv"
        save_csv(data, fast)
        reference_save_csv(data, ref)
        assert fast.read_bytes() == ref.read_bytes()
        back = load_csv(fast, has_labels=with_labels)
        assert back.feature_names == data.feature_names
        assert back.rows.tobytes() == data.rows.tobytes()
        assert (back.labels is None) == (labels is None)
        if labels is not None:
            assert back.labels.tolist() == labels
        assert load_outcome(load_csv, fast, with_labels) == load_outcome(
            reference_load_csv, fast, with_labels
        )


def test_save_csv_spans_several_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * anomex.data._SAVE_BLOCK_ROWS + 3
    data = make_dataset(rng.normal(size=(n, 3)), labels=rng.integers(0, 2, n))
    save_csv(data, tmp_path / "fast.csv")
    reference_save_csv(data, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


MALFORMED_BODIES = {
    "nan_cell": "1,2\nNaN,4\n",
    "inf_cell": "1,2\n3,-inf\n",
    "overflow_to_inf": "1,2\n1e400,4\n",
    "underscore_digits": "1_0,2\n3,4\n",
    "quoted_cell": '"1",2\n3,4\n',
    "quoted_comma": '"1,5",2\n',
    "short_row": "1,2\n3\n",
    "long_row": "1,2\n3,4,5\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "empty_cell": "1,\n",
    "blank_line": "1,2\n\n3,4\n",
    "blank_lines_only": "\n\n",
    "crlf_blank_line": "1,2\r\n\r\n3,4\r\n",
    "whitespace_only_line": "1,2\n   \n3,4\n",
    "tab_only_line": "1,2\n\t\n",
    "comment_line": "#note\n1,2\n",
    "comment_after_data": "1,2\n# 3,4\n",
    "hash_cell": "1,#2\n",
    "header_only": "",
    "padded_cells": " 1 ,\t2\n",
    "non_ascii_digits": "١,2\n",
    "non_ascii_space": " 1　,2\n",
    "separator_char": "\x1c1,2\n",
    "hex_float": "0x1p3,2\n",
    "cr_line_ends": "1,2\r3,4\r",
    "no_final_newline": "1,2\n3,4",
    "words": "one,two\n",
    "labels_not_binary": "1,2\n3,7\n",
}


@pytest.mark.parametrize("has_labels", [False, True])
@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_load_csv_matches_per_cell_reference(tmp_path, case, has_labels):
    header = "a,label\n" if has_labels else "a,b\n"
    p = tmp_path / f"{case}.csv"
    p.write_bytes((header + MALFORMED_BODIES[case]).encode("utf-8"))
    assert load_outcome(load_csv, p, has_labels) == load_outcome(reference_load_csv, p, has_labels)


CELL_ALPHABET = [
    "1", "-2.5", "1e-300", "0.1", "NaN", "inf", "1_0", '"3"', "", " 4 ", "#5",
    "٢", "\x1f6", "7,", "x",
]


@pytest.mark.parametrize("chunk", [1, 2, 7, 64, 1 << 20])
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(st.sampled_from(CELL_ALPHABET), min_size=1, max_size=4).map(",".join),
            st.sampled_from(["", "  ", "#c"]),
        ),
        max_size=6,
    ),
    st.sampled_from(["\n", "\r\n"]),
)
def test_load_csv_fuzzed_bodies_match_reference(chunk, lines, newline):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(anomex.data, "_ROW_SCAN_BYTES", chunk):
        p = Path(tmp) / "fuzz.csv"
        p.write_bytes(newline.join(["a,b", *lines]).encode("utf-8") + newline.encode())
        assert load_outcome(load_csv, p, False) == load_outcome(reference_load_csv, p, False)


@pytest.mark.parametrize("body", ["1\x0c2\n", "1\x0b2\n", "1\x852\n", "1\u20282\n"])
def test_line_breaks_of_str_splitlines_do_not_split_records(tmp_path, body):
    # csv.reader splits records at \r and \n only; str.splitlines also splits
    # at these, which would read two rows [1.0, 2.0] out of one bad cell
    p = tmp_path / "one.csv"
    p.write_bytes(("a\n" + body).encode("utf-8"))
    reference = load_outcome(reference_load_csv, p, False)
    assert reference[0] == "error" and "non-numeric cell" in reference[2]
    assert load_outcome(load_csv, p, False) == reference
    with pytest.raises(DataError, match=re.escape(reference[2])):
        load_csv_row(p, 0)


def test_load_csv_overlong_cell_matches_reference(tmp_path):
    # csv.reader refuses a cell longer than csv.field_size_limit(); loadtxt
    # would parse it, so such a line must go through the csv module too.
    # load_csv reports the csv module's refusal as a DataError naming the line.
    p = tmp_path / "long.csv"
    p.write_text("a\n0." + "0" * csv.field_size_limit() + "1\n")
    reference = load_outcome(reference_load_csv, p, False)
    assert reference[:2] == ("error", "Error")
    assert load_outcome(load_csv, p, False) == ("error", "DataError", f"{p}: line 2: {reference[2]}")


def test_plain_csv_takes_the_vectorised_path(tmp_path, monkeypatch):
    def per_cell(*args):
        raise AssertionError("a plain decimal body must not be parsed cell by cell")

    monkeypatch.setattr(anomex.data, "_parse_cells", per_cell)
    p = tmp_path / "plain.csv"
    p.write_text("a,b,label\n1,2.5e-3,0\n-0.0,4,1\n")
    data = load_csv(p, has_labels=True)
    assert data.rows.tolist() == [[1.0, 0.0025], [-0.0, 4.0]]
    assert data.labels.tolist() == [0, 1]


# -- one-row reads ---------------------------------------------------------------
#
# load_csv_row must give what load_csv gives for the row it reads: the same
# bits, or the same error text. It does not read the other rows, so where
# one of them is bad, load_csv fails while the row reader may not; it then
# gives what load_csv gives once those other rows are made good.

# (cell text, whether float() takes it as a finite number) as csv.reader
# yields it; quoted cells and a cell longer than the field limit below
# stress the places where lines and records differ.
ROW_CELLS = [
    ("1", True), ("-2.5", True), ("1e-300", True), (" 4 ", True), ("1_0", True),
    ('"3"', True), ("0", True), ("x", False), ("NaN", False), ("1e400", False),
    ("#5", False), ("\x1c6", False), ('"1,5"', False), ('"1\n2"', False), ("\udcff", False),
    ("0." + "0" * 30 + "1", False),  # longer than FIELD_LIMIT
]
LABEL_CELLS = [("0", True), ("1", True), (" 1 ", True), ("1.0", True), ("2", False)]
FIELD_LIMIT = 24
GOOD_ROW_CELLS = [c for c, good in ROW_CELLS if good]


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def row_outcome(path, index, has_labels, whole):
    """Row ``index`` as read: its bits, the row count if absent, or the error text.

    ``whole`` picks the row from load_csv, else load_csv_row reads it.
    """
    try:
        if whole:
            data = load_csv(path, has_labels)
            if not 0 <= index < data.n_rows:
                raise RowOutOfRange(index, data.n_rows)
            data = Dataset(data.feature_names, data.rows[index : index + 1],
                           None if data.labels is None else data.labels[index : index + 1])
        else:
            data = load_csv_row(path, index, has_labels)
    except DataError as exc:
        return ("error", str(exc))
    except RowOutOfRange as exc:
        return ("range", exc.n_rows, str(exc))
    labels = None if data.labels is None else data.labels.tobytes()
    return ("ok", data.feature_names, data.rows.shape, data.rows.tobytes(), labels)


record = st.tuples(
    st.lists(st.sampled_from(ROW_CELLS), min_size=1, max_size=3),  # cells
    st.sampled_from(LABEL_CELLS),
    st.lists(st.sampled_from(["\n", "\r\n"]), max_size=2).map("".join),  # blank lines before
    st.sampled_from(["\n", "\r\n", "\r"]),  # its line break
)


def csv_text(header, records, has_labels, last_break):
    lines = [header + "\n"]
    for k, (cells, label, blanks, brk) in enumerate(records):
        row = [c for c, _ in cells] + ([label[0]] if has_labels else [])
        lines.append(blanks + ",".join(row) + (brk if k < len(records) - 1 else last_break))
    return "".join(lines).encode("utf-8", errors="surrogateescape")


def is_good(record, has_labels):
    cells, label, _, _ = record
    return len(cells) == 2 and all(good for _, good in cells) and (label[1] or not has_labels)


@settings(max_examples=400, deadline=None)
@given(
    records=st.lists(record, min_size=0, max_size=7),
    has_labels=st.booleans(),
    header=st.sampled_from(["a,b", " a , b ", '"a",b', "a,a"]),
    last_break=st.sampled_from(["", "\n", "\r\n"]),
    index=st.integers(-1, 8),
    chunk=st.sampled_from([1, 2, 7, 64, 1 << 20]),
)
@example(
    records=[([("1", True), ("2", True)], ("0", True), "", "\n")] * 3,
    has_labels=False, header="a,b", last_break="\n", index=1, chunk=1 << 20,
)
def test_load_csv_row_is_the_row_of_load_csv(records, has_labels, header, last_break, index,
                                              chunk):
    header = header + (",label" if has_labels else "")
    made_good = [
        r if k == index or is_good(r, has_labels)
        else ([("1", True), ("2", True)], ("0", True), r[2], r[3])
        for k, r in enumerate(records)
    ]
    with tempfile.TemporaryDirectory() as tmp, field_size_limit(FIELD_LIMIT), \
            mock.patch.object(anomex.data, "_ROW_SCAN_BYTES", chunk):
        p = Path(tmp) / "rows.csv"
        p.write_bytes(csv_text(header, made_good, has_labels, last_break))
        if_read_alone = row_outcome(p, index, has_labels, whole=True)
        p.write_bytes(csv_text(header, records, has_labels, last_break))
        whole = row_outcome(p, index, has_labels, whole=True)
        got = row_outcome(p, index, has_labels, whole=False)
    assert got in (whole, if_read_alone)
    if made_good == records:
        assert got == whole


def test_load_csv_row_reads_only_its_row(tmp_path, monkeypatch):
    def exact(*args):
        raise AssertionError("a plain file must be read by the line scan")

    monkeypatch.setattr(anomex.data, "_read_exact", exact)
    monkeypatch.setattr(anomex.data, "_ROW_SCAN_BYTES", 8)
    p = tmp_path / "plain.csv"
    p.write_bytes(b"a,b,label\r\n1,2,0\r\nbad,row,7\r\n3.5,-4,1\r\nx,y\r\n")
    data = load_csv_row(p, 2, has_labels=True)
    assert data.feature_names == ("a", "b")
    assert data.rows.tolist() == [[3.5, -4.0]] and data.labels.tolist() == [1]
    with pytest.raises(DataError, match=r"non-numeric cell 'bad' at row 2, column 'a'"):
        load_csv_row(p, 1, has_labels=True)
    with pytest.raises(RowOutOfRange, match=r"row 4 out of range \[0, 4\)"):
        load_csv_row(p, 4, has_labels=True)
    # a whole read of a plain file, blank lines included, takes the line scan too
    p.write_bytes(b"a,b,label\r\n1,2,0\r\n\r\n\n3.5,-4,1\n")
    data = load_csv(p, has_labels=True)
    assert data.rows.tolist() == [[1.0, 2.0], [3.5, -4.0]] and data.labels.tolist() == [0, 1]


# header lines csv.reader reads alone as it reads them in the file, and ones
# it would end elsewhere there: a quote left open, a bare \r
HEADER_LINES = [
    '"a,b",c', '"a\nb",c', '"a\r\nb",c', '"open,c', "a\rb,c", "\rb,c", "", 'a"b,c',
    '\x1ca,b', ' "a" ,b', '"a\rb",c',
]


@pytest.mark.parametrize("chunk", [1, 1 << 20])
@pytest.mark.parametrize("header", HEADER_LINES)
def test_header_lines_match_reference(tmp_path, monkeypatch, header, chunk):
    monkeypatch.setattr(anomex.data, "_ROW_SCAN_BYTES", chunk)
    p = tmp_path / "header.csv"
    p.write_bytes((header + "\n1,2\n\n1,2\n").encode("utf-8"))
    assert load_outcome(load_csv, p, False) == load_outcome(reference_load_csv, p, False)
    assert row_outcome(p, 0, False, whole=False) == row_outcome(p, 0, False, whole=True)


def test_header_cell_over_the_field_limit_is_reported_as_csv_reader_reports_it(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("a" * (csv.field_size_limit() + 1) + ",b\n1,2\n")
    reference = load_outcome(reference_load_csv, p, False)
    assert reference[:2] == ("error", "Error")
    expected = ("error", "DataError", f"{p}: line 1: {reference[2]}")
    assert load_outcome(load_csv, p, False) == expected
    assert load_outcome(lambda path, has_labels: load_csv_row(path, 0, has_labels), p,
                        False) == expected


def test_load_csv_row_reads_the_whole_file_after_an_overlong_line(tmp_path):
    # csv.reader refuses the cell of row 0, so load_csv_row reports it as load_csv does
    p = tmp_path / "long.csv"
    p.write_text("a\n0." + "0" * csv.field_size_limit() + "1\n2\n")
    with pytest.raises(DataError) as whole:
        load_csv(p)
    assert "line 2: field larger than field limit" in str(whole.value)
    with pytest.raises(DataError, match=re.escape(str(whole.value))):
        load_csv_row(p, 1)


def test_load_csv_row_errors_match_load_csv(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv_row(tmp_path / "absent.csv", 0)
    p = tmp_path / "t.csv"
    for body in (b"", b"a,b\n", b"a,b\r\n", b"a,b"):
        p.write_bytes(body)
        with pytest.raises(DataError) as whole:
            load_csv(p)
        with pytest.raises(DataError, match=re.escape(str(whole.value))):
            load_csv_row(p, 0)
    p.write_bytes(b"a,b\n1,2\n")
    with pytest.raises(DataError, match="expected trailing 'label' column, got 'b'"):
        load_csv_row(p, 5, has_labels=True)


def test_blank_header_with_labels_is_a_data_error(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("\n1,2\n")
    for loader in (load_csv, lambda path, has_labels: load_csv_row(path, 0, has_labels)):
        with pytest.raises(DataError, match="expected trailing 'label' column, got ''"):
            loader(p, has_labels=True)


# -- quantile grid ------------------------------------------------------------


def test_grid_median_of_odd_list():
    data = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0])
    grid = build_quantile_grid(data, 3)
    assert np.array_equal(grid.levels, [0.0, 0.5, 1.0])
    assert np.array_equal(grid.values[0], [1.0, 3.0, 5.0])


def test_grid_constant_feature():
    grid = build_quantile_grid(make_dataset([7.0, 7.0, 7.0]), 5)
    assert np.array_equal(grid.values[0], np.full(5, 7.0))


def brute_force_interpolated_quantile(values, q):
    """Independent oracle: linear interpolation between order statistics."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] + frac * (s[hi] - s[lo])


def test_grid_two_point_interpolation_against_oracle():
    data = make_dataset([0.0, 10.0])
    grid = build_quantile_grid(data, 5)
    expected = [brute_force_interpolated_quantile([0.0, 10.0], q) for q in grid.levels]
    assert np.allclose(grid.values[0], expected)
    assert np.array_equal(grid.values[0], [0.0, 2.5, 5.0, 7.5, 10.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40),
    st.integers(2, 30),
)
def test_grid_matches_oracle_and_monotone(values, k):
    data = make_dataset([float(v) for v in values])
    grid = build_quantile_grid(data, k)
    expected = [brute_force_interpolated_quantile(values, q) for q in grid.levels]
    assert np.allclose(grid.values[0], expected, rtol=1e-12, atol=1e-9)
    assert (np.diff(grid.values[0]) >= 0).all()
    assert grid.values[0][0] == min(values)
    assert grid.values[0][-1] == max(values)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 5),
    k=st.integers(2, 30),
    distinct=st.integers(1, 6),
    constant=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_quantile_grid_matches_the_whole_matrix_quantile(n, d, k, distinct, constant, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows[:, : d // 2] = rng.integers(0, distinct, size=(n, d // 2)) * 0.1  # ties
    rows[:, np.asarray(constant[:d])] = 2.5
    grid = build_quantile_grid(make_dataset(rows), k)
    reference = np.quantile(rows, np.linspace(0.0, 1.0, k), axis=0).T
    assert grid.values.tobytes() == reference.tobytes()


def test_grid_rejects_small_k():
    with pytest.raises(ValueError):
        build_quantile_grid(make_dataset([1.0, 2.0]), 1)


# -- level_of / value_at -------------------------------------------------------


def simple_grid():
    return QuantileGrid(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 3.0, 5.0]]))


def test_level_of_exact_grid_point():
    assert level_of(simple_grid(), 0, 3.0) == 0.5


def test_level_of_clamps_above_max():
    assert level_of(simple_grid(), 0, 6.0) == 1.0
    assert level_of(simple_grid(), 0, -1.0) == 0.0


def test_level_of_interpolates():
    # inverse of the piecewise-linear CDF: 2 sits halfway between 1 and 3
    assert level_of(simple_grid(), 0, 2.0) == pytest.approx(0.25, abs=1e-15)


def test_levels_of_is_level_of_for_every_feature():
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([
        [1.0, 3.0, 5.0, 7.0, 9.0],
        [2.0, 2.0, 2.0, 4.0, 4.0],  # flat stretches: lowest matching level
        [0.5, 0.5, 0.5, 0.5, 0.5],  # constant: at the value is level 0
    ])
    grid = QuantileGrid(levels, values)
    for point in ([3.0, 2.0, 0.5], [0.0, 4.0, 1.0], [9.0, 3.0, 0.0], [2.2, 4.5, 0.5]):
        expected = [level_of(grid, j, v) for j, v in enumerate(point)]
        assert levels_of(grid, np.array(point)).tolist() == expected
    assert levels_of(grid, np.array([3.0, 2.0, 0.5])).tolist() == [0.25, 0.0, 0.0]
    # a value on the grid gets that level exactly, not an interpolation ending there
    fine = build_quantile_grid(make_dataset(np.random.default_rng(0).normal(size=(500, 2))), 51)
    for k in range(51):
        assert levels_of(fine, fine.values[:, k]).tolist() == [fine.levels[k]] * 2
    assert level_of(grid, 1, 3.0) == 0.625
    with pytest.raises(ValueError, match="non-finite"):
        level_of(grid, 0, float("nan"))
    with pytest.raises(ValueError, match="grid has 3"):
        levels_of(grid, np.zeros(2))


def test_value_at_clamps_and_interpolates():
    g = simple_grid()
    assert value_at(g, 0, 0.25) == pytest.approx(2.0)
    assert value_at(g, 0, -0.5) == 1.0
    assert value_at(g, 0, 1.5) == 5.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=50, unique=True),
    st.integers(2, 40),
)
def test_level_value_round_trip_on_increasing_region(values, k):
    # distinct training values make the interpolated CDF strictly increasing
    data = make_dataset([float(v) for v in values])
    grid = build_quantile_grid(data, k)
    for v in values:
        lv = level_of(grid, 0, float(v))
        back = value_at(grid, 0, lv)
        assert back == pytest.approx(float(v), rel=1e-9, abs=1e-9)


# -- threshold ----------------------------------------------------------------


def sorting_quantile_oracle(scores, q):
    return brute_force_interpolated_quantile(scores, q)


def test_threshold_evenly_spaced():
    scores = np.linspace(0.0, 1.0, 101)
    tau = fit_threshold(scores, 0.05)
    assert tau == pytest.approx(0.95, abs=1e-12)
    assert tau == pytest.approx(sorting_quantile_oracle(list(scores), 0.95))


def test_threshold_constant_scores_flags_nothing():
    tau = fit_threshold([3.0, 3.0, 3.0], 0.1)
    assert tau == 3.0
    assert classify(3.0, tau) is Classification.NORMAL


def test_threshold_median():
    tau = fit_threshold([1.0, 2.0, 3.0, 4.0], 0.5)
    assert tau == pytest.approx(np.median([1, 2, 3, 4]))
    assert tau == pytest.approx(sorting_quantile_oracle([1.0, 2.0, 3.0, 4.0], 0.5))


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_threshold([], 0.1)
    with pytest.raises(ValueError):
        fit_threshold([1.0], 0.0)
    with pytest.raises(ValueError):
        fit_threshold([1.0], 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=300, unique=True),
    st.floats(0.01, 0.99),
)
def test_threshold_calibration(scores, contamination):
    # With distinct scores the flagged fraction tracks the contamination
    # to within one sample either side.
    vals = [float(v) for v in scores]
    tau = fit_threshold(vals, contamination)
    n = len(vals)
    frac = sum(v > tau for v in vals) / n
    assert frac <= contamination + 1.0 / n + 1e-12
    assert frac >= contamination - 1.0 / n - 1e-12


def test_classification_strict_at_threshold():
    assert classify(1.0, 1.0) is Classification.NORMAL
    assert classify(1.0 + 1e-12, 1.0) is Classification.ANOMALOUS
