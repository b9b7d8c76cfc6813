"""Table emission: cell rendering and CSV/JSON layout."""

import json
import math

import numpy as np
import pytest

from wormbec import tableio
from wormbec.feshbach import cesium_condensate
from wormbec.geometry import ShapeFunction
from wormbec.profile1d import CSV_COLUMNS, sample_profile_1d
from wormbec.tableio import CHUNK_ROWS, write_table

FORMATS = ("csv", "json")


def test_csv_and_json_rendering_rules(tmp_path):
    """Floats render as repr of the equal Python float, NaN as nan (or
    empty where the table asks, NaN only), bools as true/false; JSON writes
    NaN and inf as null in every column."""
    values = [0.5, 0.1, 1e-300, -2.5e17, -0.0, math.inf, math.nan]
    x = np.array(values)
    flag = np.array([True, False] * 3 + [True])
    single = np.array(values[:6] + [0.25], dtype=np.float32)
    header, columns = ("x", "blank", "flag", "single"), (x, x, flag, single)
    path = write_table(tmp_path / "t", header, columns, "csv", blank_nan=("blank",))
    assert path.name == "t.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [repr(v) for v in values]
    assert [row[0] for row in rows][-1] == "nan"
    assert [row[1] for row in rows] == [repr(v) for v in values[:6]] + [""]
    assert [row[1] for row in rows][5] == "inf"
    assert [row[2] for row in rows] == ["true", "false"] * 3 + ["true"]
    assert [row[3] for row in rows][:2] == ["0.5", repr(float(np.float32(0.1)))]

    path = write_table(tmp_path / "t", header, columns, "json", blank_nan=("blank",))
    assert path.name == "t.json"
    payload = json.loads(path.read_text())
    assert payload["columns"] == list(header)
    assert payload["rows"][0] == [0.5, 0.5, True, 0.5]
    assert payload["rows"][-2] == [None, None, False, None]
    assert payload["rows"][-1] == [None, None, True, 0.25]


def test_write_csv_numpy_columns(tmp_path):
    r = np.array([1.0, 1.5])
    flag = np.array([True, False])
    path = write_table(tmp_path / "t", ("r", "flag"), (r, flag), "csv")
    assert path.read_text() == "r,flag\n1.0,true\n1.5,false\n"
    path = write_table(tmp_path / "t", ("r", "flag"), (r, flag), "json")
    assert path.read_text() == (
        '{\n  "columns": [\n    "r",\n    "flag"\n  ],\n  "rows": [\n'
        '    [\n      1.0,\n      true\n    ],\n    [\n      1.5,\n      false\n    ]\n'
        '  ]\n}\n')


def test_write_csv_chunks_join_seamlessly(tmp_path):
    """Rows across chunk boundaries come out as one table, in order, in
    either format; an empty table is its header (an empty row list)."""
    n = 2 * CHUNK_ROWS + 7
    x = np.arange(n) * 0.1
    for out_format in FORMATS:
        path = write_table(tmp_path / "t", ("x",), (x,), out_format)
        assert path.read_text() == reference(out_format, ("x",), (x,)), out_format
        empty = write_table(tmp_path / "e", ("x", "y"), (x[:0], x[:0]), out_format)
        assert empty.read_text() == reference(out_format, ("x", "y"), (x[:0], x[:0]))
    assert (tmp_path / "e.csv").read_text() == "x,y\n"


def test_ragged_table_is_rejected(tmp_path):
    for out_format in FORMATS:
        with pytest.raises(ValueError):
            write_table(tmp_path / "t", ("a", "b"), (np.zeros(3), np.zeros(2)), out_format)
        with pytest.raises(ValueError):
            write_table(tmp_path / "t", ("a", "b"), (np.zeros(3),), out_format)
    assert list(tmp_path.iterdir()) == []


def reference(out_format, header, columns, blank_nan=()):
    """The rendering rules applied one row at a time: CSV, or
    ``json.dumps`` with every non-finite float as None."""
    rows = list(zip(*(np.asarray(column).tolist() for column in columns)))
    if out_format == "json":
        rows = [[v if isinstance(v, bool) or math.isfinite(v) else None for v in row]
                for row in rows]
        return json.dumps({"columns": list(header), "rows": rows},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            ("true" if v else "false") if isinstance(v, bool)
            else "" if name in blank_nan and v != v else repr(v)
            for name, v in zip(header, row)))
    return "\n".join(lines) + "\n"


def assert_renders_like_reference(directory, header, columns, blank_nan=()):
    """The table written in each format into its own subdirectory of
    DIRECTORY equals the reference rendering, and is all that is left."""
    for out_format in FORMATS:
        out = directory / out_format
        path = write_table(out / "t", header, columns, out_format, blank_nan=blank_nan)
        assert path.read_text() == reference(out_format, header, columns, blank_nan), out_format
        assert [p.name for p in out.iterdir()] == [path.name]


def even(half):
    """The column whose centre row and rows above it are HALF, mirrored below."""
    return np.concatenate((half[:0:-1], half))


def odd(half):
    """As even, but negated below the centre row."""
    return np.concatenate((-half[:0:-1], half))


def mirrored_table(half_rows):
    """x, a float64 column with NaN and inf cells, a float32 column and a
    flag, mirrored about x = 0, with HALF_ROWS rows from the centre up."""
    x = np.arange(half_rows) * 0.1
    y = np.where(np.arange(half_rows) % 5 == 3, math.nan, np.sqrt(x + 2.0))
    y[np.arange(half_rows) % 7 == 6] = math.inf
    single = (x / 3.0).astype(np.float32)
    flag = np.arange(half_rows) % 3 == 0
    return ("x", "y", "single", "flag"), [odd(x), even(y), even(single), even(flag)]


MIRRORED_HALVES = [2, 3, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7]


@pytest.mark.parametrize("half_rows", [1] + MIRRORED_HALVES)
def test_mirrored_table_renders_like_reference(tmp_path, half_rows):
    """A mirrored table is written from its upper half, byte for byte as
    the plain rendering in CSV and JSON, for 1, 3 and 5 rows and around
    chunk edges (a one-row table is not mirrored)."""
    header, columns = mirrored_table(half_rows)
    assert [column.dtype for column in columns] == [np.float64, np.float64, np.float32, bool]
    assert tableio._is_mirrored(columns) == (half_rows > 1)
    assert_renders_like_reference(tmp_path, header, columns)


def test_mirrored_profile_and_blank_column_render_like_reference(tmp_path):
    """The q > 1 profile (NaN sound speeds) takes the mirrored path, and
    so does a table with a blank_nan column, where only NaN is blank in
    CSV and every non-finite cell is null in JSON."""
    profile = sample_profile_1d(ShapeFunction(1.0, 2.0), cesium_condensate(), 20.0, 0.01)
    columns = list(profile.columns())
    assert np.isnan(profile.c_s).any() and tableio._is_mirrored(columns)
    assert_renders_like_reference(tmp_path / "p", CSV_COLUMNS, columns)

    header, columns = mirrored_table(CHUNK_ROWS + 1)
    assert tableio._is_mirrored(columns)
    assert_renders_like_reference(tmp_path / "b", header, columns, blank_nan=("y",))
    text = (tmp_path / "b" / "csv" / "t.csv").read_text()
    assert ",," in text and ",inf," in text


def _near_misses():
    """Tables one rule short of mirrored, 13 rows with the centre at row 6."""
    header, columns = mirrored_table(7)

    def changed(index, cells):
        column = columns[index].copy()
        column.view(f"u{column.itemsize}")[list(cells)] = [
            np.array(v, column.dtype).view(f"u{column.itemsize}") for v in cells.values()]
        return [column if k == index else c for k, c in enumerate(columns)]

    x, y = columns[0], columns[1]
    payload_nan = np.array(math.nan).view(np.uint64) | np.uint64(1)
    yield "negative zero centre", changed(0, {6: -0.0})
    yield "lower cell one ulp off", changed(1, {2: np.nextafter(y[2], math.inf)})
    yield "lower x one ulp off", changed(0, {1: np.nextafter(x[1], -math.inf)})
    yield "even first column", [np.abs(x), *columns[1:]]
    yield "negative x above the centre", changed(0, {7: -x[7], 5: x[7]})
    yield "nan in x", changed(0, {8: math.nan, 4: -math.nan})
    yield "inf in x", changed(0, {12: math.inf, 0: -math.inf})
    yield "nan payload differs", changed(1, {3: payload_nan.view(float)})
    yield "even row count", [column[1:] for column in columns]


@pytest.mark.parametrize("name, columns", list(_near_misses()),
                         ids=[name for name, _ in _near_misses()])
def test_near_mirrored_table_takes_plain_path(tmp_path, name, columns):
    header = ("x", "y", "single", "flag")
    assert not tableio._is_mirrored(columns)
    assert_renders_like_reference(tmp_path, header, columns)


@pytest.mark.parametrize("table", ["plain", "mirrored"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, table):
    """A write that fails after its first chunk leaves no temporary file,
    and no target, or the target as it was before, in either format."""
    half = np.arange(2 * CHUNK_ROWS) * 0.5
    x = half + 1.0 if table == "plain" else odd(half)
    assert tableio._is_mirrored([x]) == (table == "mirrored")
    calls = []
    real = tableio._cells

    def failing(column, non_finite):
        calls.append(len(column))
        if len(calls) == 2:
            raise OSError("disk full")
        return real(column, non_finite)

    monkeypatch.setattr(tableio, "_cells", failing)
    for out_format in FORMATS:
        out = tmp_path / out_format
        out.mkdir()
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            write_table(out / "t", ("x",), (x,), out_format)
        assert len(calls) == 2
        assert list(out.iterdir()) == []

        target = out / f"t.{out_format}"
        target.write_text("x\n1.0\n")
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            write_table(out / "t", ("x",), (x,), out_format)
        assert list(out.iterdir()) == [target]
        assert target.read_text() == "x\n1.0\n"


def test_staged_files_take_their_names_when_the_block_completes(tmp_path):
    """Inside tableio.staged() files wait under temporary names. They take
    their names when the block completes; a block that raises leaves none of
    them, and an earlier file of the same name as it was."""
    x = np.arange(3) * 0.5
    with tableio.staged():
        table = write_table(tmp_path / "t", ("x",), (x,), "csv")
        report = tableio.write_json(tmp_path / "r.json", {"a": 1.0})
        assert not table.exists() and not report.exists()
        assert len(list(tmp_path.iterdir())) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "t.csv"]
    before = table.read_bytes()

    with pytest.raises(RuntimeError, match="later failure"):
        with tableio.staged():
            write_table(tmp_path / "t", ("x",), (x + 1.0,), "csv")
            write_table(tmp_path / "u", ("x",), (x,), "json")
            raise RuntimeError("later failure")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "t.csv"]
    assert table.read_bytes() == before


@pytest.mark.parametrize("table", ["plain", "mirrored"])
def test_json_table_is_formatted_chunk_by_chunk(tmp_path, monkeypatch, table):
    """A JSON table longer than 2 CHUNK_ROWS streams: no cell-formatting
    call sees more than CHUNK_ROWS values, and a mirrored table formats
    only its centre row and the rows above it."""
    header, columns = mirrored_table(2 * CHUNK_ROWS + 7)
    if table == "plain":
        columns[0] = np.abs(columns[0])
    rows = len(columns[0])
    assert rows > 2 * CHUNK_ROWS
    assert tableio._is_mirrored(columns) == (table == "mirrored")
    seen = []
    real = tableio._cells

    def counting(column, non_finite):
        seen.append(len(column))
        return real(column, non_finite)

    monkeypatch.setattr(tableio, "_cells", counting)
    path = write_table(tmp_path / "t", header, columns, "json")
    assert max(seen) <= CHUNK_ROWS
    assert sum(seen) == len(header) * (rows if table == "plain" else rows // 2 + 1)
    assert path.read_text() == reference("json", header, columns)
