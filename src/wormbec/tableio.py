"""Tables (a header and one 1-D array per column) as CSV or JSON, and JSON
reports. One loop writes both table formats; they differ only in the text
around the cells (``_layout``). Output is byte-identical across runs:

- a float cell is ``repr`` of the Python float (shortest round-trip form);
  a boolean cell is ``true`` or ``false``;
- CSV writes NaN as ``nan``, or as an empty cell in a column named in
  ``blank_nan`` (profile3d's ``B_gauss`` near an asymptote: no finite field);
- JSON is strict (RFC 8259): every non-finite float, in a table cell or in a
  report, is ``null``; a table reads as ``json.dumps({"columns": ...,
  "rows": ...}, indent=2, sort_keys=True)`` plus a newline, like a report.

Cells are formatted column by column in chunks of CHUNK_ROWS rows. A
mirrored table is formatted only from its centre row up. It has an odd
number of rows, at least 3; its first column is a float column that is +0.0
at the centre row, finite and positive above it and, below it, bitwise the
negation of its reverse; every other column is bitwise equal to its reverse
(so a NaN matches only a NaN with the same bits). Each row below the centre
is then ``-`` followed by the text of its mirror row, which starts with its
first cell: ``repr`` of a negated positive float is ``-`` plus ``repr`` of
the float, and bitwise-equal cells render alike, so in either format the
file is byte for byte the plain rendering. The 1+1D profile is such a table.

Every file is written under a temporary name in its directory and moved onto
its name with ``os.replace`` once complete; a write that raises removes the
temporary file, so no half-written file is ever left. Inside a ``staged()``
block the moves wait for the block to complete; if it raises, all its files
are removed instead, and an earlier file of the same name keeps its bytes.
Beside its columns and one column-sized temporary for the mirror check, a
table write holds O(CHUNK_ROWS) rows of text in either format: a mirrored
table spills its upper half's text to an unnamed temporary file in the same
directory and copies it back in reverse chunk order.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Collection, Iterator, Sequence, TextIO

import numpy as np

CHUNK_ROWS = 4096

_staged: ContextVar[list | None] = ContextVar("_staged", default=None)  # (temporary, final) pairs


@contextmanager
def staged() -> Iterator[None]:
    """Hold back the files written in the block (module docstring)."""
    moves: list[tuple[Path, Path]] = []
    token = _staged.set(moves)
    try:
        yield
        for temp, path in moves:
            os.replace(temp, path)
    finally:  # a moved file's temporary name is gone already
        _staged.reset(token)
        for temp, _ in moves:
            temp.unlink(missing_ok=True)


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A new text file beside PATH that replaces PATH once the block (or an
    open staged() block) completes; if the block raises, it is removed."""
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with temp.open("x", encoding="utf-8", newline="\n") as out:
            yield out
        if (moves := _staged.get()) is None:
            os.replace(temp, path)
        else:
            moves.append((temp, path))
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _layout(out_format: str, header: Sequence[str], rows: int) -> tuple:
    """The text before the rows of a table in OUT_FORMAT, between its cells,
    between its rows, after them, and of a non-finite float (None: repr)."""
    if out_format == "csv":
        return ",".join(header) + "\n", ",", "\n", "\n" if rows else "", None
    empty = json.dumps({"columns": list(header), "rows": []}, indent=2, sort_keys=True)
    if not rows:
        return empty + "\n", "", "", "", "null"
    return (empty[:-len("]\n}")] + "\n    [\n      ", ",\n      ",
            "\n    ],\n    [\n      ", "\n    ]\n  ]\n}\n", "null")


def _cells(column: np.ndarray, non_finite: dict[str, str]) -> list[str]:
    """Each cell's text: true/false for a flag, else ``repr`` of the value,
    or for ``nan``, ``inf`` or ``-inf`` the text NON_FINITE maps it to."""
    values = column.tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    cells = list(map(repr, values))
    if non_finite and not np.isfinite(column).all():
        return [non_finite.get(cell, cell) for cell in cells]
    return cells


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
            or not ((x[centre + 1:] > 0) & (x[centre + 1:] < math.inf)).all()
            or not np.array_equal(_bits(x[:centre]), _bits(-x[:centre:-1]))):
        return False
    return all(np.array_equal(_bits(column[:centre]), _bits(column[:centre:-1]))
               for column in columns[1:])


def _write_mirrored(out: TextIO, chunk: Callable[[int], list[str]], rows: int,
                    row_sep: str, directory: Path) -> None:
    """Write the rows of a mirrored table, formatting the upper half only."""
    centre = rows // 2
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory) as spill:
        spans = []  # (offset, length) in the spill of each upper chunk's text
        # from the far end in, so the rows below the centre come out in order
        for start in reversed(range(centre, rows, CHUNK_ROWS)):
            lines = chunk(start)
            # the far end's chunk holds the last row; the others lead on to a row
            text = row_sep.join(lines) + (row_sep if spans else "")
            spans.append((spill.tell(), len(text)))
            spill.write(text)
            twins = lines[1:] if start == centre else lines
            out.write("".join(f"-{line}{row_sep}" for line in reversed(twins)))
        for offset, length in reversed(spans):
            spill.seek(offset)
            out.write(spill.read(length))


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
    with _replacing(path) as out:
        out.write(json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def write_table(stem: Path, header: Sequence[str], columns: Sequence[np.ndarray],
                out_format: str, *, blank_nan: Collection[str] = ()) -> Path:
    """Write the table as STEM.csv or STEM.json (module docstring)."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    # extensions are appended, not with_suffix: stems carry dots (q0.95)
    path = stem.parent / f"{stem.name}.{out_format}"
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) > 1:
        raise ValueError(f"need one column per name in {list(header)}, all of one length")
    rows = len(columns[0]) if columns else 0
    head, cell_sep, row_sep, tail, null = _layout(out_format, header, rows)
    non_finite = [dict.fromkeys(("nan", "inf", "-inf"), null) if null is not None
                  else {"nan": ""} if name in blank_nan else {} for name in header]

    def chunk(start: int) -> list[str]:
        """The text of rows START .. START + CHUNK_ROWS - 1, one string a row."""
        cells = [_cells(column[start:start + CHUNK_ROWS], texts)
                 for column, texts in zip(columns, non_finite)]
        return list(map(cell_sep.join, zip(*cells)))

    with _replacing(path) as out:
        out.write(head)
        if _is_mirrored(columns):
            _write_mirrored(out, chunk, rows, row_sep, path.parent)
        else:
            for start in range(0, rows, CHUNK_ROWS):
                out.write((row_sep if start else "") + row_sep.join(chunk(start)))
        out.write(tail)
    return path
