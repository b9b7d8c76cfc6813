"""Table emission: cell rendering and CSV/JSON layout."""

import json
import math

import numpy as np
import pytest

from wormbec.tableio import CHUNK_ROWS, write_csv, write_table


def test_csv_and_json_rendering_rules(tmp_path):
    """Floats render as repr of the equal Python float, NaN as nan (or
    empty where the table asks), bools as true/false; JSON writes NaN as
    null."""
    values = [0.5, 0.1, 1e-300, -2.5e17, -0.0, math.inf, math.nan]
    x = np.array(values)
    flag = np.array([True, False] * 3 + [True])
    single = np.array(values[:6] + [0.25], dtype=np.float32)
    path = write_csv(tmp_path / "t.csv", ("x", "blank", "flag", "single"),
                     (x, x, flag, single), blank_nan=("blank",))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [repr(v) for v in values]
    assert [row[0] for row in rows][-1] == "nan"
    assert [row[1] for row in rows] == [repr(v) for v in values[:6]] + [""]
    assert [row[2] for row in rows] == ["true", "false"] * 3 + ["true"]
    assert [row[3] for row in rows][:2] == ["0.5", repr(float(np.float32(0.1)))]

    path = write_table(tmp_path / "t", ("x", "flag"), (x, flag), "json")
    assert path.name == "t.json"
    payload = json.loads(path.read_text())
    assert payload["columns"] == ["x", "flag"]
    assert payload["rows"][0] == [0.5, True]
    assert payload["rows"][-2] == [math.inf, False]
    assert payload["rows"][-1] == [None, True]


def test_write_csv_numpy_columns(tmp_path):
    r = np.array([1.0, 1.5])
    flag = np.array([True, False])
    path = write_csv(tmp_path / "t.csv", ("r", "flag"), (r, flag))
    assert path.read_text() == "r,flag\n1.0,true\n1.5,false\n"


def test_write_csv_chunks_join_seamlessly(tmp_path):
    """Rows across chunk boundaries come out as one table, in order; an
    empty table is its header line."""
    n = 2 * CHUNK_ROWS + 7
    x = np.arange(n) * 0.1
    path = write_csv(tmp_path / "t.csv", ("x",), (x,))
    assert path.read_text() == "x\n" + "".join(f"{v!r}\n" for v in x.tolist())
    empty = write_csv(tmp_path / "e.csv", ("x", "y"), (x[:0], x[:0]))
    assert empty.read_text() == "x,y\n"


def test_ragged_table_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), (np.zeros(3),))
