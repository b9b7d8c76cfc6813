"""CSV and JSON emission with round-trip-exact float rendering.

Output must be byte-identical across runs for the same inputs, so floats
are rendered with ``repr`` (shortest round-trip form) and JSON keys are
always sorted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def format_value(value: Any) -> str:
    if type(value) is float:  # nearly every cell, so tested first
        return "nan" if math.isnan(value) else repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # numpy reals; np.float64 subclasses float but reprs as np.float64(...)
        return format_value(float(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path
