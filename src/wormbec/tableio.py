"""CSV and JSON emission of tables given as a header and one 1-D array
per column. Output is byte-identical across runs for the same inputs:

- a float cell is ``repr`` of the Python float (shortest round-trip form),
  so NaN is ``nan``; a boolean cell is ``true`` or ``false``;
- in a column named in ``blank_nan``, NaN is an empty cell instead
  (profile3d's ``B_gauss`` on near-asymptote samples: no finite field);
- in JSON every NaN is ``null``, and keys are sorted.

CSV is formatted column by column in chunks of CHUNK_ROWS rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

CHUNK_ROWS = 4096


def _checked(header: Sequence[str], columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) > 1:
        raise ValueError(f"need one column per name in {list(header)}, all of one length")
    return columns


def _csv_cells(column: np.ndarray, blank_nan: bool) -> list[str]:
    values = column.tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    if blank_nan:
        return ["" if v != v else repr(v) for v in values]
    return list(map(repr, values))


def write_csv(path: str | Path, header: Sequence[str],
              columns: Sequence[np.ndarray], *,
              blank_nan: Collection[str] = ()) -> Path:
    path = Path(path)
    columns = _checked(header, columns)
    blank = [name in blank_nan for name in header]
    rows = len(columns[0]) if columns else 0
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, rows, CHUNK_ROWS):
            cells = [_csv_cells(column[start:start + CHUNK_ROWS], blank_cell)
                     for column, blank_cell in zip(columns, blank)]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def write_table(stem: Path, header: Sequence[str], columns: Sequence[np.ndarray],
                out_format: str, *, blank_nan: Collection[str] = ()) -> Path:
    """Write STEM.csv, or STEM.json holding the column names and the rows."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    # extensions are appended, not with_suffix: stems carry dots (q0.95)
    if out_format == "csv":
        return write_csv(stem.parent / (stem.name + ".csv"), header, columns,
                         blank_nan=blank_nan)
    cells = [column.tolist() if column.dtype == bool
             else [None if v != v else v for v in column.tolist()]
             for column in _checked(header, columns)]
    return write_json(stem.parent / (stem.name + ".json"),
                      {"columns": list(header), "rows": [list(row) for row in zip(*cells)]})
