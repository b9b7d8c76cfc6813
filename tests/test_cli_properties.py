"""Property test of the CLI: whatever SECTION.KEY=VALUE overrides it is
given, every subcommand returns 0, 1 or 2, raises nothing, and an exit 1
says why in exactly one stderr line."""

import contextlib
import io
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
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
# Numeric keys with plausible or extreme numbers: mostly reach the kernels.
NUMERIC_KEYS = [(section, key) for section, key in KNOWN if ":" not in section
                and section != "output" and key not in ("species", "resonance", "ellis")]
NUMERIC_OVERRIDES = st.lists(
    st.tuples(st.sampled_from(NUMERIC_KEYS),
              st.one_of(st.floats(0.05, 50.0), st.sampled_from(EXTREMES)).map(repr)),
    min_size=1, max_size=3)


@pytest.mark.parametrize("command", ["profile1d", "solve-gp", "profile3d", "embed", "presets"])
@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.one_of(ANY_OVERRIDES, NUMERIC_OVERRIDES))
def test_any_override_gives_a_result_or_one_line_error(monkeypatch, command, overrides):
    # a small cap keeps every drawn grid cheap
    monkeypatch.setattr("wormbec.geometry.MAX_GRID_POINTS", 1000)
    monkeypatch.delenv("WORMBEC_PRESET_DIR", raising=False)
    argv = [command, *(f"--set={section}.{key}={value}" for (section, key), value in overrides)]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
    assert code in (0, 1, 2)
    if code == 1:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
