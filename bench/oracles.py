"""Output oracles: check what one wormbec CLI call wrote.

Each check reads the files a subcommand writes, confirms the row count the
grid implies, and compares the tables with closed forms at the acceptance
tolerances. It returns the number of table rows written and raises
``OracleError`` on any mismatch, which the benchmark counts as a failed op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The CLI's documented defaults, for the keys the oracles need.
DEFAULTS = {
    "wormhole.b0_um": 1.0,
    "wormhole.q": -1.0,
    "observer.v_inf_m_per_s": 0.01,
    "grid.x_max_um": 20.0,
    "grid.step_um": 0.1,
    "layout.R_um": 5.0,
}
CLOSED_FORM_RTOL = 1e-8   # acceptance criterion 3
RESIDUAL_TOL = 1e-12      # acceptance criterion 5
EXACT_RTOL = 1e-12        # quantities the program computes in one product


class OracleError(Exception):
    """An op's output disagrees with what its inputs imply."""


def _tag(value: float) -> str:
    return f"{value:g}"


def _count(span: float, step: float) -> int:
    return int(math.floor(span / step + 1e-9)) + 1


def read_table(path: Path) -> dict[str, list]:
    """Columns of a CSV or JSON table, as raw cell values."""
    if not path.is_file():
        raise OracleError(f"missing table {path.name}")
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        names, rows = data["columns"], data["rows"]
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if any(len(row) != len(names) for row in rows):
        raise OracleError(f"{path.name}: ragged rows")
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def floats(table: dict, name: str) -> np.ndarray:
    """A numeric column; CSV 'nan' and '' and JSON null read as NaN."""
    try:
        return np.array([math.nan if v is None or v == "" else float(v)
                         for v in table[name]])
    except (KeyError, TypeError, ValueError) as exc:
        raise OracleError(f"column {name}: {exc}") from None


def bools(table: dict, name: str) -> np.ndarray:
    values = table.get(name)
    if values is None:
        raise OracleError(f"missing column {name}")
    lookup = {"true": True, "false": False, True: True, False: False}
    try:
        return np.array([lookup[v] for v in values], dtype=bool)
    except KeyError as exc:
        raise OracleError(f"column {name}: not a boolean {exc}") from None


def _require(condition, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _rows(table: dict, expected: int, name: str) -> int:
    rows = len(next(iter(table.values())))
    _require(rows == expected, f"{name}: {rows} rows, grid implies {expected}")
    return rows


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float, what: str,
           floor: float = 0.0) -> None:
    """|actual - expected| <= rtol * max(|expected|, floor), or exactly equal."""
    error = np.abs(actual - expected)
    bad = ~(error <= rtol * np.maximum(np.abs(expected), floor)) & ~(actual == expected)
    _require(not bad.any(), f"{what}: {int(bad.sum())} values off, worst "
                            f"{float(np.nanmax(np.where(bad, error, 0.0))):.3e}")


def _json_file(path: Path) -> dict:
    if not path.is_file():
        raise OracleError(f"missing {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_profile1d(p: dict, out: Path, fmt: str, _stdout: str) -> int:
    b0, q = p["wormhole.b0_um"], p["wormhole.q"]
    step, x_max = p["grid.step_um"], p["grid.x_max_um"]
    tag = f"q{_tag(q)}_b0{_tag(b0)}"
    table = read_table(out / f"profile1d_{tag}.{fmt}")
    half = _count(x_max, step) - 1
    rows = _rows(table, 2 * half + 1, "profile1d")
    x, r = floats(table, "x_um"), floats(table, "r_um")
    _close(x, np.arange(-half, half + 1) * step, 1e-9, "profile1d x grid", step)
    _close(r, np.abs(x) + b0, EXACT_RTOL, "profile1d r = |x| + b0")
    a = floats(table, "a_over_abg")
    _close(a, 1.0 - (b0 / r) ** (1.0 - q), CLOSED_FORM_RTOL,
           "profile1d a/a_bg = 1 - (b0/r)^(1-q)", 1.0)
    valid = bools(table, "valid")
    _require(np.array_equal(valid, a >= 0.0), "profile1d valid != (a >= 0)")
    cs_nan = np.isnan(floats(table, "cs_m_per_s"))
    _require(np.array_equal(cs_nan, ~valid), "profile1d c_s is NaN off the invalid samples")
    _require("feasibility" in _json_file(out / f"feasibility_{tag}.json"),
             "profile1d: feasibility report without an audit")
    return rows


def check_solve_gp(p: dict, out: Path, fmt: str, _stdout: str) -> int:
    b0, v_inf = p["wormhole.b0_um"], p["observer.v_inf_m_per_s"]
    r_min = p.get("grid.r_min_um", 1.1 * b0)
    r_max = p.get("grid.r_max_um", 10.0 * b0)
    r_step = p.get("grid.r_step_um", 0.05 * b0)
    tag = f"vinf{_tag(v_inf)}_b0{_tag(b0)}"
    stem = f"gp_solution_{tag}"
    # solve-gp writes CSV whatever --format says; accept either table.
    path = out / f"{stem}.{fmt}"
    if not path.is_file():
        path = out / f"{stem}.csv"
    table = read_table(path)
    rows = _rows(table, _count(r_max - r_min, r_step), "solve-gp")
    _require(bools(table, "converged").all(), "solve-gp: unconverged points")
    for name in ("res1", "res2"):
        res = floats(table, name)
        _require(bool(np.all(np.abs(res) < RESIDUAL_TOL)), f"solve-gp: |{name}| >= 1e-12")
    r = floats(table, "r_um")
    _close(r, r_min + np.arange(rows) * r_step, 1e-9, "solve-gp r grid", r_step)
    _close(floats(table, "cs0_m_per_s"), v_inf * r / b0, 1e-9,
           "solve-gp cs0 near v_inf r/b0")
    summary = _json_file(out / f"gp_summary_{tag}.json")
    _require(summary["points"] == rows, "solve-gp summary point count")
    return rows


def check_profile3d(p: dict, out: Path, fmt: str, _stdout: str) -> int:
    b0, v_inf, big_r = (p["wormhole.b0_um"], p["observer.v_inf_m_per_s"],
                        p["layout.R_um"])
    step = p["grid.step_um"]
    tag = f"R{_tag(big_r)}_b0{_tag(b0)}_vinf{_tag(v_inf)}"
    table = read_table(out / f"profile3d_{tag}.{fmt}")
    rows = _rows(table, _count(2.0 * big_r, step), "profile3d")
    x, r = floats(table, "x_um"), floats(table, "r_um")
    _close(r, np.abs(x - big_r) + b0, EXACT_RTOL, "profile3d r = |x - R| + b0")
    _close(floats(table, "cs0_m_per_s"), v_inf * (r / b0), EXACT_RTOL,
           "profile3d cs0 = v_inf r/b0")
    _require("resolution" in _json_file(out / f"report_{tag}.json"),
             "profile3d: report without a resolution audit")
    return rows


def check_embed(p: dict, out: Path, fmt: str, _stdout: str) -> int:
    b0, q = p["wormhole.b0_um"], p["wormhole.q"]
    r_max = p.get("grid.r_max_um", 5.0 * b0)
    r_step = p.get("grid.r_step_um", (r_max - b0) / 200.0)
    table = read_table(out / f"embedding_q{_tag(q)}_b0{_tag(b0)}.{fmt}")
    rows = _rows(table, _count(r_max - b0, r_step), "embed")
    r, z = floats(table, "r_um"), floats(table, "z_um")
    _close(r, b0 + np.arange(rows) * r_step, 1e-9, "embed r grid", r_step)
    _require(r[0] == b0 and z[0] == 0.0, "embed: z(b0) != 0")
    _require(bool(np.all(np.diff(z) > 0.0)), "embed: z not increasing")
    if q == -1.0:
        _close(z, b0 * np.arccosh(r / b0), CLOSED_FORM_RTOL,
               "embed z = b0 arccosh(r/b0)")
    return rows


def check_presets(p: dict, out: Path, fmt: str, stdout: str) -> int:
    for needle in ("species", "resonances:", "Cs"):
        _require(needle in stdout, f"presets: {needle!r} missing from listing")
    return 0


CHECKS = {
    "profile1d": check_profile1d,
    "solve-gp": check_solve_gp,
    "profile3d": check_profile3d,
    "embed": check_embed,
    "presets": check_presets,
}


def check(sub: str, sets: tuple[str, ...], fmt: str, out: Path,
          rc: int, stdout: str) -> int:
    """Rows written by one op; raises OracleError when the op failed."""
    _require(rc == 0, f"{sub}: exit code {rc}")
    params = dict(DEFAULTS)
    for item in sets:
        key, value = item.split("=", 1)
        params[key] = float(value)
    try:
        return CHECKS[sub](params, out, fmt, stdout)
    except (KeyError, IndexError, ValueError, StopIteration) as exc:
        raise OracleError(f"{sub}: malformed output ({exc!r})") from None
