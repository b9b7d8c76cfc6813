"""Table emission: cell rendering and CSV/JSON layout."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from wormbec import tableio
from wormbec.feshbach import cesium_condensate
from wormbec.geometry import ShapeFunction
from wormbec.profile1d import sample_profile_1d
from wormbec.tableio import CHUNK_ROWS, Table, write_table

FORMATS = ("csv", "json")


def named_table(header, columns, **kwargs):
    return Table(dict(zip(header, columns, strict=True)), **kwargs)


def test_csv_and_json_rendering_rules(tmp_path):
    """Floats render as repr of the equal Python float, NaN as nan (or
    empty where the table asks, NaN only), bools as true/false; JSON writes
    NaN and inf as null in every column."""
    values = [0.5, 0.1, 1e-300, -2.5e17, -0.0, math.inf, math.nan]
    x = np.array(values)
    flag = np.array([True, False] * 3 + [True])
    single = np.array(values[:6] + [0.25], dtype=np.float32)
    header = ("x", "blank", "flag", "single")
    written = named_table(header, (x, x, flag, single), blank_nan=("blank",))
    path = write_table(tmp_path / "t", written, "csv")
    assert path.name == "t.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [repr(v) for v in values]
    assert [row[0] for row in rows][-1] == "nan"
    assert [row[1] for row in rows] == [repr(v) for v in values[:6]] + [""]
    assert [row[1] for row in rows][5] == "inf"
    assert [row[2] for row in rows] == ["true", "false"] * 3 + ["true"]
    assert [row[3] for row in rows][:2] == ["0.5", repr(float(np.float32(0.1)))]

    path = write_table(tmp_path / "t", written, "json")
    assert path.name == "t.json"
    payload = json.loads(path.read_text())
    assert payload["columns"] == list(header)
    assert payload["rows"][0] == [0.5, 0.5, True, 0.5]
    assert payload["rows"][-2] == [None, None, False, None]
    assert payload["rows"][-1] == [None, None, True, 0.25]


def test_write_csv_numpy_columns(tmp_path):
    r = np.array([1.0, 1.5])
    flag = np.array([True, False])
    path = write_table(tmp_path / "t", Table({"r": r, "flag": flag}), "csv")
    assert path.read_text() == "r,flag\n1.0,true\n1.5,false\n"
    path = write_table(tmp_path / "t", Table({"r": r, "flag": flag}), "json")
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
        path = write_table(tmp_path / "t", Table({"x": x}), out_format)
        assert path.read_text() == reference(out_format, ("x",), (x,)), out_format
        empty = write_table(tmp_path / "e", Table({"x": x[:0], "y": x[:0]}), out_format)
        assert empty.read_text() == reference(out_format, ("x", "y"), (x[:0], x[:0]))
    assert (tmp_path / "e.csv").read_text() == "x,y\n"


def test_ragged_table_is_rejected(tmp_path):
    for out_format in FORMATS:
        with pytest.raises(ValueError):
            write_table(tmp_path / "t", Table({"a": np.zeros(3), "b": np.zeros(2)}), out_format)
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


def assert_renders_like_reference(directory, written, header, columns, blank_nan=()):
    """The table WRITTEN in each format into its own subdirectory of
    DIRECTORY equals the reference rendering of the table HEADER, COLUMNS,
    and is all that is left."""
    for out_format in FORMATS:
        out = directory / out_format
        path = write_table(out / "t", written, out_format)
        assert path.read_text() == reference(out_format, header, columns, blank_nan), out_format
        assert [p.name for p in out.iterdir()] == [path.name]


def even(half):
    """The column whose centre row and rows above it are HALF, mirrored below."""
    return np.concatenate((half[:0:-1], half))


def mirrored_half(half_rows):
    """x, a float64 column with NaN and inf cells, a float32 column and a
    flag: HALF_ROWS rows from x = 0 up."""
    x = np.arange(half_rows) * 0.1
    y = np.where(np.arange(half_rows) % 5 == 3, math.nan, np.sqrt(x + 2.0))
    y[np.arange(half_rows) % 7 == 6] = math.inf
    single = (x / 3.0).astype(np.float32)
    flag = np.arange(half_rows) % 3 == 0
    return ("x", "y", "single", "flag"), [x, y, single, flag]


def whole(columns, centre=0.0):
    """The whole table of a half mirrored at CENTRE: the rows below the
    centre are the rows above it, reversed, with x = centre - d, and the
    rows from it have x = centre + d."""
    d = columns[0]
    return [np.concatenate((centre - d[:0:-1], centre + d)), *map(even, columns[1:])]


# around the first chunk's edge, and later ones', where the spill holds
# several chunks or many
MIRRORED_HALVES = [2, 3, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 4 * CHUNK_ROWS - 1,
                   4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 1, 8 * CHUNK_ROWS + 7, 16 * CHUNK_ROWS - 1,
                   16 * CHUNK_ROWS, 16 * CHUNK_ROWS + 1, 32 * CHUNK_ROWS + 7]


@pytest.mark.parametrize("half_rows", [1] + MIRRORED_HALVES)
def test_mirrored_table_renders_like_reference(tmp_path, half_rows):
    """A mirrored half is written as the whole table, byte for byte as the
    plain rendering in CSV and JSON, for 1, 3 and 5 rows and around chunk
    edges."""
    header, columns = mirrored_half(half_rows)
    assert [column.dtype for column in columns] == [np.float64, np.float64, np.float32, bool]
    assert_renders_like_reference(tmp_path, named_table(header, columns, mirror_at=0.0),
                                  header, whole(columns))


@pytest.mark.parametrize("centre", [5.0, 0.3, -2.5])
@pytest.mark.parametrize("half_rows", [1, 3, CHUNK_ROWS + 1, 4 * CHUNK_ROWS + 1])
def test_table_mirrored_off_zero_renders_like_reference(tmp_path, half_rows, centre):
    """A half mirrored at a nonzero centre c is written as the whole table,
    x = c - d below the centre and c + d from it, byte for byte as the
    plain rendering in CSV and JSON (0.3 + 0.1 is not 0.4: the written x
    is the rounded sum, as in the reference)."""
    header, columns = mirrored_half(half_rows)
    assert_renders_like_reference(tmp_path, named_table(header, columns, mirror_at=centre),
                                  header, whole(columns, centre))


def test_mirrored_profile_and_blank_column_render_like_reference(tmp_path):
    """The q > 1 profile (NaN sound speeds) is a mirrored half, and so may
    be a table with a blank_nan column, where only NaN is blank in CSV and
    every non-finite cell is null in JSON."""
    profile = sample_profile_1d(ShapeFunction(1.0, 2.0), cesium_condensate(1e21), 20.0, 0.01)
    header, columns = list(profile.columns), list(profile.columns.values())
    assert profile.mirror_at == 0.0 and np.isnan(profile.columns["cs_m_per_s"]).any()
    assert_renders_like_reference(tmp_path / "p", profile, header, whole(columns))

    header, columns = mirrored_half(CHUNK_ROWS + 1)
    assert_renders_like_reference(
        tmp_path / "b", named_table(header, columns, mirror_at=0.0, blank_nan=("y",)),
        header, whole(columns), blank_nan=("y",))
    text = (tmp_path / "b" / "csv" / "t.csv").read_text()
    assert ",," in text and ",inf," in text


def _near_misses():
    """Halves whose first column breaks the mirror's rule, 7 rows from the centre."""
    header, columns = mirrored_half(7)
    x = columns[0]

    def changed(cells):
        column = x.copy()
        column[list(cells)] = list(cells.values())
        return [column, *columns[1:]]

    yield "negative zero centre", changed({0: -0.0})
    yield "start at 0.1", [x + 0.1, *columns[1:]]
    yield "negative x above the centre", changed({4: -x[4]})
    yield "nan in x", changed({5: math.nan})
    yield "inf in x", changed({6: math.inf})
    yield "int first column", [np.arange(7), *columns[1:]]


@pytest.mark.parametrize("name, columns", list(_near_misses()),
                         ids=[name for name, _ in _near_misses()])
def test_near_mirrored_table_is_rejected(tmp_path, name, columns):
    """A half declared mirrored whose first column is not +0.0 and then
    finite and positive raises ValueError and writes no file."""
    half = named_table(("x", "y", "single", "flag"), columns, mirror_at=0.0)
    for out_format in FORMATS:
        with pytest.raises(ValueError, match="mirrored"):
            write_table(tmp_path / "t", half, out_format)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["plain", "mirrored"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, kind):
    """A write that fails after its first chunk leaves no temporary file,
    and no target, or the target as it was before, in either format."""
    x = np.arange(2 * CHUNK_ROWS) * 0.5
    written = Table({"x": x + 1.0}) if kind == "plain" else Table({"x": x}, mirror_at=0.0)
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
            write_table(out / "t", written, out_format)
        assert len(calls) == 2
        assert list(out.iterdir()) == []

        target = out / f"t.{out_format}"
        target.write_text("x\n1.0\n")
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            write_table(out / "t", written, out_format)
        assert list(out.iterdir()) == [target]
        assert target.read_text() == "x\n1.0\n"


def test_staged_files_take_their_names_when_the_block_completes(tmp_path):
    """Inside tableio.staged() files wait under temporary names. They take
    their names when the block completes; a block that raises leaves none of
    them, and an earlier file of the same name as it was."""
    x = np.arange(3) * 0.5
    with tableio.staged():
        table = write_table(tmp_path / "t", Table({"x": x}), "csv")
        report = tableio.write_json(tmp_path / "r.json", {"a": 1.0})
        assert not table.exists() and not report.exists()
        assert len(list(tmp_path.iterdir())) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "t.csv"]
    before = table.read_bytes()

    with pytest.raises(RuntimeError, match="later failure"):
        with tableio.staged():
            write_table(tmp_path / "t", Table({"x": x + 1.0}), "csv")
            write_table(tmp_path / "u", Table({"x": x}), "json")
            raise RuntimeError("later failure")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "t.csv"]
    assert table.read_bytes() == before


@pytest.mark.parametrize("centre", [None, 0.0, 5.0], ids=["plain", "mirrored", "mirrored-at-5"])
def test_json_table_is_formatted_chunk_by_chunk(tmp_path, monkeypatch, centre):
    """A JSON table longer than 2 CHUNK_ROWS streams: no cell-formatting
    call sees more than CHUNK_ROWS values, and a mirrored half formats
    each of its cells once, and off x = 0 also each row's x below the
    centre."""
    header, half = mirrored_half(2 * CHUNK_ROWS + 7)
    columns = whole(half, centre or 0.0)
    rows = len(columns[0])
    assert rows > 2 * CHUNK_ROWS
    mirrored = centre is not None
    written = named_table(header, half if mirrored else columns, mirror_at=centre)
    seen = []
    real = tableio._cells

    def counting(column, non_finite):
        seen.append(len(column))
        return real(column, non_finite)

    monkeypatch.setattr(tableio, "_cells", counting)
    path = write_table(tmp_path / "t", written, "json")
    assert max(seen) <= CHUNK_ROWS
    formatted = {None: len(header) * rows, 0.0: len(header) * len(half[0]),
                 5.0: (len(header) + 1) * len(half[0])}
    assert sum(seen) == formatted[centre]
    assert path.read_text() == reference("json", header, columns)


def test_mirrored_write_memory_is_bounded(tmp_path):
    """A mirrored half's write holds O(CHUNK_ROWS) rows of text, mirrored at
    x = 0 or off it: at 16 CHUNK_ROWS rows it peaks within 1.1x of its peak
    at 4 CHUNK_ROWS."""
    def peak(rows, out_format, centre):
        x = np.arange(rows) * 0.1
        half = Table({"x": x, "y": np.sqrt(x + 2.0), "z": x / 3.0}, mirror_at=centre)
        tracemalloc.start()
        try:
            write_table(tmp_path / f"t{rows}", half, out_format)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for out_format in FORMATS:
        for centre in (0.0, 5.0):
            assert (peak(16 * CHUNK_ROWS, out_format, centre)
                    <= 1.1 * peak(4 * CHUNK_ROWS, out_format, centre))


def test_profile1d_half_writes_within_a_fixed_working_set(tmp_path):
    """profile1d's 7-column half at the default shape, x_max 20 and step
    0.001 (20001 rows, the 40001-row table) writes as CSV within 0.375 MiB
    of traced memory beyond its columns: measured 0.26 MiB at 256 rows a
    chunk, 0.51 at 512 and 0.99 at 1024. The ratio bound above holds at
    any chunk size; this one fails if the chunk grows back."""
    half = sample_profile_1d(ShapeFunction(1.0, -1.0), cesium_condensate(1e21), 20.0, 0.001)
    assert (len(half.columns), half.columns["x_um"].size) == (7, 20001)
    tracemalloc.start()
    try:
        write_table(tmp_path / "profile", half, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.375 * 2**20
