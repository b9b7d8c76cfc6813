"""Property tests of the CLI, at two levels.

Over any argv of raw tokens (subcommand names, option spellings, missing
values, repeated options, "--", malformed --set items and free text, NUL
included), ``main`` returns 0, 1 or 2 and raises nothing but a help flag's
SystemExit(0); an exit 1 is one stderr line, ``wormbec[ SUB]: error:
MESSAGE``, and writes no file. Only the line's shape is checked, as
argparse words its messages differently from one Python version to the
next.

Over well-formed argvs: whatever SECTION.KEY=VALUE overrides it is
given, every subcommand returns 0, 1 or 2, raises nothing, and an exit 1
says why in exactly one stderr line. After any exit the output directory
holds only the command's table and report files, no temporary file. After
exit 0 or 2 every table cell is a finite number or a flag, bar the
documented NaN cells; every numeric CSV cell is the shortest round-trip
form of its float; every 1D profile CSV reads the same from both ends,
with x negated; and every JSON file is strict JSON laid out as
``json.dumps(..., indent=2, sort_keys=True)`` lays it out. The table format
is drawn with the overrides, so JSON tables meet the extreme inputs too."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wormbec.cli import main
from wormbec.config import SCHEMA

# Every schema key (preset sections under one made-up name), plus keys
# and sections the schema does not have.
KNOWN = [(section + "Xx" if section.endswith(":") else section, key)
         for section, keys in SCHEMA.items() for key in keys]
UNKNOWN = [("grid", "stepum"), ("Grid", "step_um"), ("bogus", "x"),
           ("wormhole:x", "q"), ("species:Xx", "mass")]

EXTREMES = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e-9, 1.0, 1e8, 3e8,
            1e300, -1e300, 1.7976931348623157e308]
NUMBERS = st.one_of(st.floats(), st.sampled_from(EXTREMES),
                    st.integers(-10**6, 10**6))
VALUES = st.one_of(
    NUMBERS.map(repr),
    st.lists(NUMBERS, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
    st.text(max_size=8),
    st.sampled_from(["true", "off", "json", "CSV", "cs", "Rb", "Xe", "%", ""]),
)
# Any key with any value: mostly rejected by the config layer.
ANY_OVERRIDES = st.lists(st.tuples(st.sampled_from(KNOWN + UNKNOWN), VALUES), max_size=3)
# Numeric keys with plausible or extreme numbers: mostly reach the kernels,
# the mass of the default species among them.
NUMERIC_KEYS = [(section, key) for section, key in KNOWN if ":" not in section
                and key not in ("species", "resonance")
                ] + [("species:Cs", "mass_u")]
NUMERIC_OVERRIDES = st.lists(
    st.tuples(st.sampled_from(NUMERIC_KEYS),
              st.one_of(st.floats(0.05, 50.0), st.sampled_from(EXTREMES)).map(repr)),
    min_size=1, max_size=3)


CSV_CELL = {"true": True, "false": False, "": None}


def _cell(text):
    return CSV_CELL[text] if text in CSV_CELL else float(text)


def _non_finite_cells(out):
    """(file, column, cell) of each table cell that is neither a flag nor a
    finite number, except the documented ones: the 1D sound speed on
    invalid rows and the 3D field left empty near an asymptote."""
    found = []
    for path in sorted(Path(out).iterdir()):
        if path.suffix == ".csv":
            lines = path.read_text().splitlines()
            header, rows = lines[0].split(","), [map(_cell, line.split(",")) for line in lines[1:]]
        else:
            payload = json.loads(path.read_text())
            if "rows" not in payload:
                continue  # a report, not a table
            header, rows = payload["columns"], payload["rows"]
        table = path.name.split("_", 1)[0]
        for row in rows:
            cells = dict(zip(header, row))
            for name, cell in cells.items():
                if isinstance(cell, bool) or (cell is not None and math.isfinite(cell)):
                    continue
                if ((table, name) == ("profile1d", "cs_m_per_s") and cells["valid"] is False
                        or (table, name, cell) == ("profile3d", "B_gauss", None)):
                    continue
                found.append((path.name, name, cell))
    return found


# The files each command may write: tables (CSV or JSON) and JSON reports.
OUTPUT_NAME = {
    "profile1d": r"(profile1d_.*\.(csv|json)|feasibility_.*\.json)",
    "solve-gp": r"(gp_solution_.*\.(csv|json)|gp_summary_.*\.json)",
    "profile3d": r"(profile3d_.*\.(csv|json)|report_.*\.json)",
    "embed": r"embedding_.*\.(csv|json)",
    "presets": r"(?!)",
}


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _non_canonical_cells(out):
    """(file, cell) of each numeric CSV cell that is not repr of its float."""
    return [(path.name, cell) for path in sorted(Path(out).glob("*.csv"))
            for row in _csv_rows(path) for cell in row
            if cell not in CSV_CELL and repr(float(cell)) != cell]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _non_canonical_json(out):
    """Names of the JSON files that hold NaN or Infinity tokens, or whose
    text is not the canonical dump of what they hold."""
    found = []
    for path in sorted(Path(out).glob("*.json")):
        text = path.read_text()
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError:
            found.append(path.name)
            continue
        if text != json.dumps(payload, indent=2, sort_keys=True) + "\n":
            found.append(path.name)
    return found


def _uneven_profiles(out):
    """Names of the 1D profile CSVs that do not read the same from both
    ends: row k from the bottom is row k from the top with x negated."""
    uneven = []
    for path in sorted(Path(out).glob("profile1d_*.csv")):
        rows = _csv_rows(path)
        centre = len(rows) // 2
        if (len(rows) % 2 != 1 or rows[centre][0] != "0.0" or any(
                low != ["-" + high[0], *high[1:]]
                for low, high in zip(rows[:centre], reversed(rows)))):
            uneven.append(path.name)
    return uneven


@pytest.mark.parametrize("command", ["profile1d", "solve-gp", "profile3d", "embed", "presets"])
@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(out_format=st.sampled_from(["csv", "json"]),
       overrides=st.one_of(ANY_OVERRIDES, NUMERIC_OVERRIDES))
# the documented non-finite values: NaN sound speeds, an overflowing slope
@example(out_format="json", overrides=[(("wormhole", "q"), "2.0")])
@example(out_format="json", overrides=[(("wormhole", "q"), "-299.0"),
                                       (("wormhole", "b0_um"), "10.5")])
# a sweep whose second combination overflows after the first was written
@example(out_format="csv", overrides=[(("wormhole", "b0_um"), "1,1e-300")])
# the embedding rise overflows (its integrand is then 0), and a subnormal
# throat fails the quadrature check, each without a RuntimeWarning
@example(out_format="csv", overrides=[(("wormhole", "q"), "-1e300")])
@example(out_format="csv", overrides=[(("wormhole", "b0_um"), "1e-320")])
# a/a_bg passes 1e154, where the product of two neighbouring gaps overflows
@example(out_format="csv", overrides=[(("wormhole", "q"), "-200.0")])
def test_any_override_gives_a_result_or_one_line_error(monkeypatch, command, out_format,
                                                       overrides):
    # a small cap keeps every drawn grid cheap
    monkeypatch.setattr("wormbec.geometry.MAX_GRID_POINTS", 1000)
    argv = [command, "--format", out_format,
            *(f"--set={section}.{key}={value}" for (section, key), value in overrides)]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
        assert code in (0, 1, 2)
        assert all(re.fullmatch(OUTPUT_NAME[command], path.name)
                   for path in Path(out).iterdir()), sorted(Path(out).iterdir())
        if code == 1:  # a failed run writes no file
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert not any(Path(out).iterdir()), sorted(Path(out).iterdir())
        else:
            assert not _non_finite_cells(out)
            assert not _non_canonical_cells(out)
            assert not _uneven_profiles(out)
            assert not _non_canonical_json(out)


# Raw argv tokens: subcommand names and a bogus one, option spellings (an
# abbreviation, an ambiguous prefix, "=" forms, help flags and options the
# CLI does not have), "--", --set items without "=" or ".", relative --out
# names and free text, NUL included. No token holds "/" but the named
# relative ones, so every --out a run can take stays inside its temporary
# directory (".." included: the run starts two levels down).
COMMANDS = list(OUTPUT_NAME)
OPTIONS = ["--out", "--o", "--strict", "--s", "--format", "--form", "--set", "--",
           "-h", "--help", "--bogus", "--config", "-x"]
ITEMS = ["grid.step_um=0.5", "grid.step_um", "grid", "step_um=1", "=", ".", "",
         "grid.stepum=1", "wormhole.q=2", "wormhole.b0_um=1e-300",
         "species:X.mass_u=1e-300", "observer.v_inf_m_per_s=1e160"]
NAMES = ["out", "out/sub", ".", "..", "", "a\0b", "\0"]
FREE_TEXT = st.text(max_size=6).map(lambda text: text.replace("/", ""))
TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, "profile2d"]), st.sampled_from(OPTIONS),
    st.sampled_from(["csv", "json", "xml"]),
    st.sampled_from(ITEMS), st.sampled_from(ITEMS).map("--set={}".format),
    st.sampled_from(NAMES), st.sampled_from(NAMES).map("--out={}".format), FREE_TEXT)
ARGV = st.builds(lambda head, tail: head + tail,
                 st.sampled_from([[]] + [[name] for name in COMMANDS]),
                 st.lists(TOKENS, max_size=6))
PROG = rf"wormbec(?: (?:{'|'.join(COMMANDS)}))?"
ERROR_LINE = re.compile(rf"({PROG}): error: (.+)\n")


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
@example(argv=["profile1d", "--bogus"])
@example(argv=[])
@example(argv=["solve-gp", "--set"])
@example(argv=["profile1d", "--format", "xml"])
@example(argv=["profile1d", "--out", "a\0b"])
@example(argv=["profile1d", "--out", "out", "profile1d"])
@example(argv=["--help"])
@example(argv=["presets", "--set=species:X.mass_u=1e-300"])
def test_any_argv_gives_a_result_or_one_line_error(monkeypatch, argv):
    """main returns 0, 1 or 2 for any argv and raises nothing but a help
    flag's SystemExit(0). On exit 1 it writes one stderr line, as
    ``wormbec[ SUB]: error: MESSAGE`` (SUB once argparse has chosen it),
    whose --help pointer, if any, names the same prog, and no file."""
    # a small cap keeps every drawn grid cheap
    monkeypatch.setattr("wormbec.geometry.MAX_GRID_POINTS", 1000)
    stderr = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        cwd = Path(root, "a", "b")
        cwd.mkdir(parents=True)
        os.chdir(cwd)
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and any(token.startswith(("-h", "--h")) for token in argv)
            return
        finally:
            os.chdir(home)
        assert code in (0, 1, 2)
        if code == 1:
            line = ERROR_LINE.fullmatch(stderr.getvalue())
            assert line, stderr.getvalue()
            prog, message = line.groups()
            pointer = re.search(r"; see (.*) --help$", message)
            assert pointer.group(1) == prog if pointer else prog != "wormbec", message
            left = sorted(path for path in Path(root).rglob("*") if path not in cwd.parents)
            assert left == [cwd], left
        else:
            assert not stderr.getvalue()
