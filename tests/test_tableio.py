"""Table emission: value rendering and CSV layout."""

import math

import numpy as np

from wormbec.tableio import format_value, write_csv


def test_format_value_numpy_scalars():
    """numpy reals render like the equal Python float, numpy bools like bool."""
    for value in (0.5, 0.1, 1e-300, -2.5e17, math.nan):
        assert format_value(np.float64(value)) == format_value(value)
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.float32(0.5)) == "0.5"
    assert format_value(np.bool_(True)) == format_value(True) == "true"
    assert format_value(np.bool_(False)) == format_value(False) == "false"


def test_write_csv_numpy_columns(tmp_path):
    r = np.array([1.0, 1.5])
    flag = np.array([True, False])
    path = write_csv(tmp_path / "t.csv", ("r", "flag"), zip(r, flag))
    assert path.read_text() == "r,flag\n1.0,true\n1.5,false\n"
