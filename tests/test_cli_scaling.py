"""Metamorphic test of the CLI: the wormhole and every grid see lengths only
through ratios, so scaling every length setting by 2**k (and the slope
capability, a length's inverse, by 2**-k) changes no exit code, scales the
length columns and report fields by exactly 2**k (per-length fields by
2**-k) and leaves every other table cell and report field as it was. k
is even: embed integrates in u = sqrt(r - b0), which scales exactly only
then. The resolution audit is left out: it compares lengths with the
absolute healing length. So is the 1D slope at the fixed x = 10 um."""

import csv
import json
import math

import pytest

from bitcheck import assert_same_bits
from wormbec.cli import main

LENGTHS = {"wormhole.b0_um": 1.0, "grid.x_max_um": 20.0, "grid.step_um": 0.5,
           "grid.r_min_um": 1.1, "grid.r_max_um": 10.0, "grid.r_step_um": 0.25,
           "grid.throat_exclusion_um": 1.0, "layout.R_um": 5.0}
INVERSE_LENGTHS = {"thresholds.slope_per_um": 0.067}
LENGTH_COLUMNS = ("x_um", "r_um", "z_um")
SCALE_BOUND = ("slope_at_x10", "resolution")


def _run(out, command, k):
    scale = 2.0 ** k
    settings = [f"{key}={value * scale!r}" for key, value in LENGTHS.items()]
    settings += [f"{key}={value / scale!r}" for key, value in INVERSE_LENGTHS.items()]
    code = main([command, "--out", str(out), *(f"--set={item}" for item in settings)])
    files = sorted(out.iterdir()) if out.exists() else []
    tables = [list(csv.reader(path.read_text().splitlines()))
              for path in files if path.suffix == ".csv"]
    reports = [json.loads(path.read_text()) for path in files if path.suffix == ".json"]
    return code, tables, reports


def _fields(report, path=()):
    """(key path, value) of every leaf of a JSON report, lists included."""
    if isinstance(report, dict):
        for key, value in report.items():
            if key not in SCALE_BOUND:
                yield from _fields(value, path + (key,))
    elif isinstance(report, list):
        for value in report:
            yield from _fields(value, path)
    else:
        yield path, report


def _scaled(value, factor):
    """VALUE * FACTOR as the report writes it: null once it overflows."""
    product = value * factor
    return product if math.isfinite(product) else None


def _assert_scaled_table(table, reference, scale):
    assert table[0] == reference[0]
    for name, column, expected in zip(table[0], zip(*table[1:]), zip(*reference[1:])):
        if name in LENGTH_COLUMNS:
            assert_same_bits(list(map(float, column)), [float(x) * scale for x in expected])
        else:
            assert column == expected, name


def _assert_scaled_report(report, reference, scale):
    fields, expected = list(_fields(report)), list(_fields(reference))
    assert [path for path, _ in fields] == [path for path, _ in expected]
    for (path, value), (_, ref) in zip(fields, expected):
        if path[-1].endswith("_per_um"):
            ref = _scaled(ref, 1.0 / scale)
        elif path[-1].endswith("_um"):
            ref = _scaled(ref, scale)
        assert value is None if ref is None else (type(value) is type(ref) and value == ref), path


@pytest.mark.parametrize("command", ["profile1d", "solve-gp", "profile3d", "embed"])
def test_scaling_every_length_scales_the_outputs(tmp_path, command):
    code, tables, reports = _run(tmp_path / "k0", command, 0)
    assert code == 0 and tables
    for k in range(-1000, 1001, 10):
        scaled = _run(tmp_path / f"k{k}", command, k)
        assert scaled[0] == code, k
        assert len(scaled[1]) == len(tables) and len(scaled[2]) == len(reports)
        for table, reference in zip(scaled[1], tables):
            _assert_scaled_table(table, reference, 2.0 ** k)
        for report, reference in zip(scaled[2], reports):
            _assert_scaled_report(report, reference, 2.0 ** k)
