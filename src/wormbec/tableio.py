"""CSV and JSON emission of tables given as a header and one 1-D array
per column. Output is byte-identical across runs for the same inputs:

- a float cell is ``repr`` of the Python float (shortest round-trip form),
  so NaN is ``nan``; a boolean cell is ``true`` or ``false``;
- in a column named in ``blank_nan``, NaN is an empty cell instead
  (profile3d's ``B_gauss`` on near-asymptote samples: no finite field);
- JSON is strict (RFC 8259): every non-finite float, in a table cell or
  anywhere in a report, is ``null``; keys are sorted.

CSV is formatted column by column in chunks of CHUNK_ROWS rows. A
mirrored table is formatted only from its centre row up. It has an odd
number of rows, at least 3; its first column is a float column that is
+0.0 at the centre row, positive above it and, below it, bitwise the
negation of its reverse; every other column is bitwise equal to its
reverse (so a NaN matches only a NaN with the same bits). Each row below
the centre is then written as ``-`` followed by the text of its mirror
row: ``repr`` of a negated positive float is ``-`` plus ``repr`` of the
float, and bitwise-equal cells render alike, so the file is byte for
byte the plain rendering. The 1+1D profile is such a table.

Every file is written under a temporary name in its directory and moved
onto its name with ``os.replace`` once complete; a write that raises
removes the temporary file, so no half-written file is ever left. Beyond
its columns and one column-sized temporary for the mirror check,
``write_csv`` holds O(CHUNK_ROWS) rows of text: a mirrored table spills
the text of its upper half to an unnamed temporary file in the same
directory and copies it back in reverse chunk order.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Collection, Iterator, Sequence, TextIO

import numpy as np

CHUNK_ROWS = 4096


def _checked(header: Sequence[str], columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) > 1:
        raise ValueError(f"need one column per name in {list(header)}, all of one length")
    return columns


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A new text file beside PATH that replaces PATH once the block
    completes; if the block raises, the file is removed and PATH is left
    as it was."""
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with temp.open("x", encoding="utf-8", newline="\n") as out:
            yield out
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _csv_cells(column: np.ndarray, blank_nan: bool) -> list[str]:
    values = column.tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    if blank_nan:
        return ["" if v != v else repr(v) for v in values]
    return list(map(repr, values))


def _csv_lines(columns: list[np.ndarray], blank: list[bool], start: int) -> list[str]:
    """The text of rows START .. START + CHUNK_ROWS - 1, one string a row."""
    cells = [_csv_cells(column[start:start + CHUNK_ROWS], blank_cell)
             for column, blank_cell in zip(columns, blank)]
    return list(map(",".join, zip(*cells)))


def _bits(column: np.ndarray) -> np.ndarray:
    return column.view(f"u{column.itemsize}")


def _is_mirrored(columns: list[np.ndarray]) -> bool:
    """Whether the table is mirrored about its centre row (module docstring)."""
    rows = len(columns[0]) if columns else 0
    if rows < 3 or rows % 2 == 0 or any(
            column.ndim != 1 or column.dtype.kind not in "biuf"
            or column.itemsize not in (1, 2, 4, 8) for column in columns):
        return False
    centre = rows // 2
    x = columns[0]
    if (x.dtype.kind != "f" or _bits(x[centre:centre + 1])[0] != 0
            or not (x[centre + 1:] > 0).all()
            or not np.array_equal(_bits(x[:centre]), _bits(-x[:centre:-1]))):
        return False
    return all(np.array_equal(_bits(column[:centre]), _bits(column[:centre:-1]))
               for column in columns[1:])


def _write_mirrored(out: TextIO, columns: list[np.ndarray], blank: list[bool],
                    directory: Path) -> None:
    """Write the rows of a mirrored table, formatting the upper half only."""
    rows = len(columns[0])
    centre = rows // 2
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n",
                                dir=directory) as spill:
        spans = []  # (offset, length) in the spill of each upper chunk's text
        # from the far end in, so the rows below the centre come out in order
        for start in reversed(range(centre, rows, CHUNK_ROWS)):
            lines = _csv_lines(columns, blank, start)
            text = "\n".join(lines) + "\n"
            spans.append((spill.tell(), len(text)))
            spill.write(text)
            twins = lines[1:] if start == centre else lines
            out.write("".join(f"-{line}\n" for line in reversed(twins)))
        for offset, length in reversed(spans):
            spill.seek(offset)
            out.write(spill.read(length))


def write_csv(path: str | Path, header: Sequence[str],
              columns: Sequence[np.ndarray], *,
              blank_nan: Collection[str] = ()) -> Path:
    path = Path(path)
    columns = _checked(header, columns)
    blank = [name in blank_nan for name in header]
    rows = len(columns[0]) if columns else 0
    with _replacing(path) as out:
        out.write(",".join(header) + "\n")
        if _is_mirrored(columns):
            _write_mirrored(out, columns, blank, path.parent)
        else:
            for start in range(0, rows, CHUNK_ROWS):
                out.write("\n".join(_csv_lines(columns, blank, start)) + "\n")
    return path


def _finite(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float; walk the payload only then
        text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    with _replacing(path) as out:
        out.write(text + "\n")
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
             else [v if math.isfinite(v) else None for v in column.tolist()]
             for column in _checked(header, columns)]
    return write_json(stem.parent / (stem.name + ".json"),
                      {"columns": list(header), "rows": [list(row) for row in zip(*cells)]})
