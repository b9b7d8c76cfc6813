"""Tables (named 1-D columns, ``Table``) as CSV or JSON, and JSON reports.
One loop writes both table formats; they differ only in the text around the
cells (``_layout``). Any other format, or a column that is not 1-D, is a
ValueError raised before any file is made. Output is byte-identical across
runs on one host (one numpy build at one SIMD level; elsewhere float cells
may move by ulps):

- a float cell is ``repr`` of the Python float (shortest round-trip form);
  a boolean cell is ``true`` or ``false``. A full chunk (below) of float64
  cells, each ±0.0 or of magnitude in [1e-4, 1e16), gets that same text
  from orjson (profile1d's 40001-row CSV then writes in 39 ms, not 102, on
  a 2-core Xeon): inside that window both write the shortest round-trip
  digits in positional form. Outside it they differ (repr's ``4.19e-05``,
  ``1e-09`` and ``2.8e+28`` against orjson's ``0.0000419``, ``1e-9`` and
  ``2.8e28``), so any other chunk, one with a NaN or inf among them, goes
  through ``repr``, as does a float32, int or byte-swapped column. Only a
  full chunk: no default-grid table holds more than CHUNK_ROWS rows a
  half, so a default run never pays orjson's import (about 5 ms and 0.7
  MB);
- CSV writes NaN as ``nan``, or as an empty cell in a column named in the
  table's ``blank_nan`` (profile3d's ``B_gauss`` near an asymptote: no
  finite field);
- JSON is strict (RFC 8259): every non-finite float, in a table cell or in a
  report, is ``null``; a table reads as ``json.dumps({"columns": ...,
  "rows": ...}, indent=2, sort_keys=True)`` plus a newline, like a report.

Cells are formatted column by column in chunks of CHUNK_ROWS = 256 rows,
so the cell and line text held at once stays small: beside its columns, a
mirrored 3-column half writes with a tracemalloc peak of 0.16 MiB (0.59
MiB at 1024 rows a chunk) whatever its row count, and profile1d's 7-column
half of 20001 rows with 0.26 MiB (0.99 MiB at 1024). A table mirrored at c
(``mirror_at``) holds one half of a table even about its centre row at
x = c, the first column giving each row's distance d from c: +0.0, then
finite and positive (else ``write_table`` raises ValueError and writes
nothing). The written table is the half's rows after the centre, reversed,
with x = c - d, then the half with x = c + d: in either format byte for
byte the plain rendering of the whole table. A row below the centre
formats its x alone and reuses the rest of its mirror row's text; at c = 0
it is ``-`` plus that text, as ``repr(-d)`` is ``-`` plus ``repr(d)``.
Both lab profiles are such halves: the 1+1D one at x = 0, the 3+1D one at
its throat x = R.

Every file is written under a temporary name in its directory and moved onto
its name with ``os.replace`` once complete; a write that raises removes the
temporary file, so no half-written file is ever left. A target that is a
directory fails the write before it starts, naming the target. Both writers
make the file's missing directories first, as ``mkdir(parents=True)``
would. Inside a ``staged()`` block the moves wait for the block to
complete; if it raises, all its files are removed instead, and an earlier
file of the same name keeps its bytes; then the directories made inside
the block are removed, deepest first, each only if empty. A directory
that existed before the block is never touched. Beside its columns, a
table write holds O(CHUNK_ROWS) rows of text in either format: a mirrored
table spills its half's text to an unnamed temporary file in the same
directory and copies it back in reverse chunk order.
"""

from __future__ import annotations

import errno
import json
import math
import os
import tempfile
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

CHUNK_ROWS = 256

# the open staged() block's (temporary, final) pairs and the directories it made
_staged: ContextVar[tuple[list, list] | None] = ContextVar("_staged", default=None)


@dataclass(frozen=True)
class Table:
    """Named 1-D columns of one length, in file order. ``mirror_at``: the rows
    are one half of a table even about x = mirror_at, and the first column
    holds their distance from it (module docstring). CSV writes the NaN
    cells of the ``blank_nan`` columns empty."""

    columns: dict[str, np.ndarray]
    mirror_at: float | None = None
    blank_nan: tuple[str, ...] = ()


@contextmanager
def staged() -> Iterator[None]:
    """Hold back the files written in the block (module docstring)."""
    moves: list[tuple[Path, Path]] = []
    made: list[Path] = []
    token = _staged.set((moves, made))
    try:
        yield
        for temp, path in moves:
            os.replace(temp, path)
        made.clear()  # the block completed: its directories stay
    finally:  # a moved file's temporary name is gone already
        _staged.reset(token)
        for temp, _ in moves:
            temp.unlink(missing_ok=True)
        for directory in reversed(made):  # deepest first; one holding a file stays
            with suppress(OSError):
                directory.rmdir()


def _make_directory(directory: Path, made: list[Path]) -> None:
    """``DIRECTORY.mkdir(parents=True)``, adding each directory made to MADE,
    outermost first."""
    try:
        directory.mkdir()
    except FileNotFoundError:
        _make_directory(directory.parent, made)
        directory.mkdir()
    made.append(directory)


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A new text file beside PATH that replaces PATH once the block (or an
    open staged() block) completes; if the block raises, it is removed.
    PATH's missing directories are made first (module docstring)."""
    if path.is_dir() and not path.is_symlink():  # no file can be moved onto it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    stage = _staged.get()
    if not path.parent.is_dir():
        _make_directory(path.parent, [] if stage is None else stage[1])
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with temp.open("x", encoding="utf-8", newline="\n") as out:
            yield out
        if stage is None:
            os.replace(temp, path)
        else:
            stage[0].append((temp, path))
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _layout(fmt: str, header: Sequence[str], rows: int) -> tuple:
    """The text before the rows of a table in format FMT, between its cells,
    between its rows, after them, and of a non-finite float (None: repr)."""
    if fmt == "csv":
        return ",".join(header) + "\n", ",", "\n", "\n" if rows else "", None
    empty = json.dumps({"columns": list(header), "rows": []}, indent=2, sort_keys=True)
    if not rows:
        return empty + "\n", "", "", "", "null"
    return (empty[:-len("]\n}")] + "\n    [\n      ", ",\n      ",
            "\n    ],\n    [\n      ", "\n    ]\n  ]\n}\n", "null")


def _cells(column: np.ndarray, non_finite: dict[str, str]) -> list[str]:
    """Each cell's text: true/false for a flag, else ``repr`` of the value,
    or for ``nan``, ``inf`` or ``-inf`` the text NON_FINITE maps it to. A
    full float64 chunk inside repr's positional window gets that text from
    orjson (module docstring)."""
    if column.dtype == bool:
        return ["true" if v else "false" for v in column.tolist()]
    if column.size == CHUNK_ROWS and column.dtype == np.float64:
        magnitude = np.abs(column)
        if (((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude == 0.0)).all():
            import orjson  # here, not at the top: a default run never loads it
            return orjson.dumps(np.ascontiguousarray(column),
                                option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    cells = list(map(repr, column.tolist()))
    if non_finite and not np.isfinite(column).all():
        return [non_finite.get(cell, cell) for cell in cells]
    return cells


def _check_mirror(x: np.ndarray) -> None:
    """ValueError unless X can lead a mirrored half: a float column that is
    +0.0 in its first row and finite and positive after it."""
    if not (x.dtype.kind == "f" and x.size and x[0] == 0.0 and not np.signbit(x[0])
            and ((x[1:] > 0.0) & (x[1:] < math.inf)).all()):
        raise ValueError("a mirrored table's first column must be +0.0 in its "
                         "first row and finite and positive after it")


def _write_mirrored(out: TextIO, chunk: Callable[[int], tuple[list[str], list[str]]],
                    rows: int, row_sep: str, directory: Path) -> None:
    """Write the whole table of a mirrored half of ROWS rows (module docstring)."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory) as spill:
        spans = []  # (offset, length) in the spill of each chunk's text
        # from the far end in, so the rows below the centre come out in order
        for start in reversed(range(0, rows, CHUNK_ROWS)):
            lines, twins = chunk(start)
            # the far end's chunk holds the last row; the others lead on to a row
            text = row_sep.join(lines) + (row_sep if spans else "")
            spans.append((spill.tell(), len(text)))
            spill.write(text)
            out.write("".join(reversed(twins[1:] if start == 0 else twins)))  # no centre twin
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


def write_table(stem: Path, table: Table, fmt: str) -> Path:
    """Write TABLE as STEM.csv or STEM.json (module docstring)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"a table's format is 'csv' or 'json', got {fmt!r}")
    header = list(table.columns)
    columns = [np.asarray(column) for column in table.columns.values()]
    for name, column in zip(header, columns):
        if column.ndim != 1 or len(column) != len(columns[0]):
            raise ValueError(f"column {name!r} must be 1-D and as long as the first "
                             f"column, got shape {column.shape}")
    if (centre := table.mirror_at) is not None:
        _check_mirror(columns[0])
    # extensions are appended, not with_suffix: stems carry dots (q0.95)
    path = stem.parent / f"{stem.name}.{fmt}"
    rows = len(columns[0]) if columns else 0
    head, cell_sep, row_sep, tail, null = _layout(fmt, header, rows)
    non_finite = [dict.fromkeys(("nan", "inf", "-inf"), null) if null is not None
                  else {"nan": ""} if name in table.blank_nan else {} for name in header]

    def chunk(start: int) -> tuple[list[str], list[str]]:
        """The text of rows START .. START + CHUNK_ROWS - 1, one string a row, and of
        the rows below a mirrored half's centre that mirror them, each ending in row_sep."""
        part = [column[start:start + CHUNK_ROWS] for column in columns]
        if centre is not None:  # the first column holds d; x = centre + d
            part[0] = centre + (d := part[0])
        lines = list(map(cell_sep.join, zip(*[_cells(column, texts)
                                               for column, texts in zip(part, non_finite)])))
        if centre == 0.0:  # repr(-d) is "-" + repr(d)
            return lines, [f"-{line}{row_sep}" for line in lines]
        lows = [] if centre is None else _cells(centre - d, non_finite[0])
        return lines, [f"{low}{sep}{rest}{row_sep}" for low, (_, sep, rest)
                       in zip(lows, (line.partition(cell_sep) for line in lines))]

    with _replacing(path) as out:
        out.write(head)
        if centre is not None:
            _write_mirrored(out, chunk, rows, row_sep, path.parent)
        else:
            for start in range(0, rows, CHUNK_ROWS):
                out.write((row_sep if start else "") + row_sep.join(chunk(start)[0]))
        out.write(tail)
    return path
