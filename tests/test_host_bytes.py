"""What a run writes on another host: the bytes must not depend on the
BLAS kernel, and may depend on numpy's SIMD level only in the low bits of
float cells. Each run is a child process whose environment picks the
kernel or lowers the dispatch before numpy is imported."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wormbec

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

TABLE_COMMANDS = ("profile1d", "solve-gp", "profile3d", "embed")
# Dispatched features this host enables: disabling one it lacks fails numpy's import.
LOWERED = [name for name in getattr(umath, "__cpu_dispatch__", ())
           if getattr(umath, "__cpu_features__", {}).get(name)]
ULPS = 4
# res1 and res2, and the summary's maxima of them, are differences of metric
# components of order 1 to 11 on the default grid, and the summary's relative
# deviations differences of order 1: each moves by ulps of those, not its own.
RESIDUAL_ABS = 1e-14
RESIDUAL_KEYS = ("res1", "res2", "max_abs_residual", "max_rel_deviation")

# Runs each command given after the output directory, at its defaults.
_RUN = ("import sys\nfrom wormbec.cli import main\n"
        "sys.exit(max(main([command, '--out', sys.argv[1]]) for command in sys.argv[2:]))")


def run_child(out, commands, **setting):
    """The files a child process writes running COMMANDS at their defaults,
    with SETTING added to an environment that sets neither variable."""
    package_dir = str(Path(wormbec.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _RUN, str(out), *commands],
                            env={**env, **setting}, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_embed_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """embed writes the same bytes whatever OpenBLAS core type is picked:
    its quadrature sums each panel's nodes in elementwise numpy."""
    default = run_child(tmp_path / "default", ["embed"])
    prescott = run_child(tmp_path / "prescott", ["embed"], OPENBLAS_CORETYPE="Prescott")
    assert default == prescott and len(default) == 1


def cells(name, data):
    """{key: value} of a CSV file's cells (column name, row) or of a JSON
    file's leaves (path of keys)."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(data.decode()))
        return {(column, k): row[j] for k, row in enumerate(rows)
                for j, column in enumerate(header)}
    leaves = {}

    def walk(path, value):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else None)
        if items is None:
            leaves[path] = value
        for key, item in items or ():
            walk((*path, key), item)

    walk((), json.loads(data))
    return leaves


def close(key, value, other):
    """Equal, or floats (a CSV cell parsed) within the bound of KEY."""
    if value == other:
        return True
    try:
        value, other = float(value), float(other)
    except (TypeError, ValueError):
        return False
    if any(isinstance(part, str) and part.startswith(RESIDUAL_KEYS) for part in key):
        return abs(value - other) <= RESIDUAL_ABS
    return abs(value - other) <= ULPS * np.spacing(max(abs(value), abs(other)))


@pytest.mark.skipif(not LOWERED, reason="numpy dispatches no feature beyond its baseline here")
def test_table_commands_agree_with_numpy_dispatch_lowered(tmp_path):
    """Each table command at its defaults, rerun with numpy's dispatch
    lowered to its baseline, writes the same files with the same non-float
    cells and float cells within 4 ulp (residuals within 1e-14)."""
    native = run_child(tmp_path / "native", TABLE_COMMANDS)
    lowered = run_child(tmp_path / "lowered", TABLE_COMMANDS,
                        NPY_DISABLE_CPU_FEATURES=" ".join(LOWERED))
    assert sorted(native) == sorted(lowered) and len(native) == 7
    for name, data in native.items():
        mine, theirs = cells(name, data), cells(name, lowered[name])
        assert mine.keys() == theirs.keys(), name
        far = [key for key, value in mine.items() if not close(key, value, theirs[key])]
        assert not far, (name, far[:5])
