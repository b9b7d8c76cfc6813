"""Command-line front end: subcommands, config handling, exit codes,
deterministic output."""

import importlib
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import wormbec
from wormbec.cli import main
from wormbec.config import load_config
from wormbec.exceptions import ConfigError


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_profile1d_reference_sweep(tmp_path):
    """A 4x3 (q, b0) sweep emits twelve profile tables."""
    code = run(tmp_path, "profile1d",
               "--set", "wormhole.q=2,0.95,-0.5,-1",
               "--set", "wormhole.b0_um=0.5,1,10",
               "--set", "grid.step_um=0.5")
    assert code == 0
    csvs = sorted(tmp_path.glob("profile1d_*.csv"))
    assert len(csvs) == 12
    assert (tmp_path / "profile1d_q0.95_b01.csv").exists()
    assert (tmp_path / "profile1d_q-1_b00.5.csv").exists()
    assert len(sorted(tmp_path.glob("feasibility_*.json"))) == 12


def test_demo_writes_the_tables_of_the_cli_sweep(tmp_path):
    """demos/demo_1d_profiles.py, run as a script, writes byte for byte the
    12 tables of the CLI's 4x3 (q, b0) sweep at the default grid."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "demo_1d_profiles.py"
    package_dir = str(Path(wormbec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_dir, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(demo), "--out", str(tmp_path / "demo")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert run(tmp_path / "cli", "profile1d", "--set", "wormhole.q=2,0.95,-0.5,-1",
               "--set", "wormhole.b0_um=0.5,1,10") == 0
    tables = [{path.name: path.read_bytes() for path in (tmp_path / out).glob("*.csv")}
              for out in ("demo", "cli")]
    assert len(tables[0]) == 12 and tables[0] == tables[1]


def test_profile1d_feasibility_json_slope(tmp_path):
    code = run(tmp_path, "profile1d",
               "--set", "wormhole.q=0.95", "--set", "wormhole.b0_um=1",
               "--set", "grid.step_um=0.5")
    assert code == 0
    payload = json.loads((tmp_path / "feasibility_q0.95_b01.json").read_text())
    assert payload["slope_at_x10"] == pytest.approx(0.038, abs=1e-3)
    assert payload["wormhole"]["throat_class"] == "traversable"
    assert payload["a_bg_a0"] == pytest.approx(950.0, rel=1e-12)


@pytest.mark.parametrize("q, invalid", [("2", 400), ("-1", 0)])
def test_profile1d_report_counts_invalid_samples(tmp_path, q, invalid):
    """The 1+1D report counts the rows of the written table whose valid
    flag is false: at q = 2 every row but the throat's (400 of 401 at the
    default grid), at q = -1 none."""
    assert run(tmp_path, "profile1d", "--set", f"wormhole.q={q}") == 0
    report = json.loads((tmp_path / f"feasibility_q{q}_b01.json").read_text())
    rows = (tmp_path / f"profile1d_q{q}_b01.csv").read_text().splitlines()[1:]
    assert len(rows) == 401
    assert report["invalid_samples"] == invalid == sum(row.endswith(",false") for row in rows)


def test_profile1d_empty_grid_is_config_error(tmp_path):
    code = run(tmp_path, "profile1d", "--set", "grid.step_um=0")
    assert code == 1


def test_profile1d_window_beyond_grid_writes_nothing(tmp_path, capsys):
    """An exclusion window wider than the grid is a one-line error, raised
    before the first table is written."""
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out),
                 "--set", "grid.throat_exclusion_um=30"]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_profile1d_strict_infeasible_exits_2(tmp_path):
    # 1 um exclusion window leaves near-throat slopes above the threshold
    code = run(tmp_path, "profile1d", "--strict",
               "--set", "wormhole.q=0.95", "--set", "wormhole.b0_um=1",
               "--set", "grid.step_um=0.5",
               "--set", "grid.throat_exclusion_um=1")
    assert code == 2
    # a 10 um window clears it
    code = run(tmp_path, "profile1d", "--strict",
               "--set", "wormhole.q=0.95", "--set", "wormhole.b0_um=1",
               "--set", "grid.step_um=0.5",
               "--set", "grid.throat_exclusion_um=10")
    assert code == 0


def test_solve_gp_outputs(tmp_path):
    code = run(tmp_path, "solve-gp",
               "--set", "wormhole.b0_um=1",
               "--set", "observer.v_inf_m_per_s=0.01",
               "--set", "grid.r_step_um=0.5")
    assert code == 0
    csv_path = tmp_path / "gp_solution_vinf0.01_b01.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r_um,cs0_m_per_s,vr_m_per_s,res1,res2,converged"
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[3])) < 1e-12
        assert abs(float(fields[4])) < 1e-12
        assert fields[5] == "true"
    summary = json.loads((tmp_path / "gp_summary_vinf0.01_b01.json").read_text())
    assert summary["points_converged"] == summary["points"]
    assert summary["fold_radius_um"] == pytest.approx(1.4989622899e10, rel=1e-10)
    assert summary["max_rel_deviation_from_zero_order"]["cs0"] < 1e-9
    assert summary["max_rel_deviation_from_zero_order"]["vr"] < 1e-9


def test_solve_gp_table_layout(tmp_path):
    """The solution table has one row per radius, in either format."""
    args = ("solve-gp", "--set", "wormhole.b0_um=1",
            "--set", "grid.r_min_um=1.1", "--set", "grid.r_max_um=2",
            "--set", "grid.r_step_um=0.3")
    columns = ["r_um", "cs0_m_per_s", "vr_m_per_s", "res1", "res2", "converged"]
    assert run(tmp_path / "csv", *args) == 0
    lines = (tmp_path / "csv" / "gp_solution_vinf0.01_b01.csv").read_text().splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) == 1 + 4
    assert all(line.endswith(",true") for line in lines[1:])

    assert run(tmp_path / "json", *args, "--format", "json") == 0
    assert not (tmp_path / "json" / "gp_solution_vinf0.01_b01.csv").exists()
    payload = json.loads(
        (tmp_path / "json" / "gp_solution_vinf0.01_b01.json").read_text())
    assert payload["columns"] == columns
    assert len(payload["rows"]) == 4
    for line, row in zip(lines[1:], payload["rows"]):
        assert row[5] is True
        assert row[:5] == [float(v) for v in line.split(",")[:5]]


def test_solve_gp_strict_flags_unconverged_radius(tmp_path):
    """--strict exits 2 once any radius is unconverged, after writing the
    tables; without --strict the same run exits 0. At q = 0.9 the radius
    r_min = 1.0000000000000002, one ulp off the throat, has a c_s0 that
    rounds to v_inf and is flagged, and the other 180 radii converge."""
    args = ("solve-gp", "--set", "wormhole.q=0.9", "--set", "grid.r_min_um=1.0000000000000002")
    assert run(tmp_path / "strict", *args, "--strict") == 2
    summary = json.loads(
        (tmp_path / "strict" / "gp_summary_vinf0.01_b01.json").read_text())
    assert summary["points_converged"] == summary["points"] - 1 == 180
    assert run(tmp_path / "plain", *args) == 0
    assert run(tmp_path / "real", "solve-gp", "--set", "grid.r_step_um=0.5", "--strict") == 0


def test_solve_gp_flags_a_radius_whose_cs0_rounds_to_v_inf(tmp_path):
    """At q = 0.9 and r_min = 1.0000000000000002 the closed-form cs0 rounds
    to v_inf: the row is written with the next double up, finite residuals
    and converged = false, and the other 180 radii still solve."""
    args = ("solve-gp", "--set", "wormhole.q=0.9", "--set", "grid.r_min_um=1.0000000000000002")
    assert run(tmp_path / "plain", *args) == 0
    assert run(tmp_path / "strict", *args, "--strict") == 2
    lines = (tmp_path / "plain" / "gp_solution_vinf0.01_b01.csv").read_text().splitlines()
    cells = lines[1].split(",")
    assert cells[:3] == ["1.0000000000000002", "0.010000000000000002", "0.01"]
    assert cells[5] == "false" and all(math.isfinite(float(cell)) for cell in cells[3:5])
    summary = json.loads((tmp_path / "plain" / "gp_summary_vinf0.01_b01.json").read_text())
    assert (summary["points"], summary["points_converged"]) == (181, 180)


def test_solve_gp_default_grid_starts_at_1_1_b0(tmp_path):
    assert run(tmp_path, "solve-gp", "--set", "wormhole.b0_um=2") == 0
    summary = json.loads((tmp_path / "gp_summary_vinf0.01_b02.json").read_text())
    assert summary["grid"]["r_min_um"] == 2.2


@pytest.mark.parametrize("r_min", ["1.0005", "1", "0.5"])
def test_solve_gp_r_min_outside_the_throat_is_the_one_precondition(tmp_path, capsys, r_min):
    """r_min_um = 1.0005 (b0 = 1) runs; a grid starting on the throat or
    inside it exits 1 with one line that names the throat."""
    out = tmp_path / "out"
    code = main(["solve-gp", "--out", str(out), "--set", f"grid.r_min_um={r_min}"])
    err = capsys.readouterr().err
    if float(r_min) > 1.0:
        assert code == 0 and err == ""
        return
    assert code == 1 and err.count("\n") == 1
    assert err.startswith("wormbec solve-gp: error: ") and "throat" in err
    assert not out.exists()


def test_solve_gp_rejects_multiple_b0(tmp_path):
    code = run(tmp_path, "solve-gp", "--set", "wormhole.b0_um=1,2")
    assert code == 1


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("command, report, section", [
    ("solve-gp", "gp_summary_vinf0.01_b01.json", ()),
    ("profile3d", "report_R5_b01_vinf0.01.json", ("layout",)),
], ids=["solve-gp", "profile3d"])
def test_3d_commands_honour_q(tmp_path, capsys, command, report, section):
    """q = 0.5 writes the default run's file names with other contents, and
    each report states its q; q = 1 and two q values exit 1 with one line
    and write nothing."""
    assert run(tmp_path / "default", command) == 0
    assert run(tmp_path / "half", command, "--set", "wormhole.q=0.5") == 0
    default, half = _files(tmp_path / "default"), _files(tmp_path / "half")
    assert sorted(default) == sorted(half)
    assert all(default[name] != half[name] for name in default)
    for files, q in ((default, -1.0), (half, 0.5)):
        stated = json.loads(files[report])
        for key in section:
            stated = stated[key]
        assert stated["q"] == q
    capsys.readouterr()
    for override, says in (("wormhole.q=1", "requires q < 1, got q = 1.0 (degenerate)"),
                           ("wormhole.q=-1,0.5", "needs exactly one q value")):
        out = tmp_path / override
        assert run(out, command, "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
        assert says in err
        assert not out.exists()


@pytest.mark.parametrize("command, b0, key", [
    ("embed", "1e+308", "r_max_um"),
    ("solve-gp", "1e+308", "r_max_um"),
    ("solve-gp", "1.7e+308", "r_min_um"),
])
def test_overflowing_default_bound_names_its_setting(tmp_path, capsys, command, b0, key):
    """A default radius bound that overflows is a one-line error naming
    the [grid] key to set and the b0 it came from."""
    assert run(tmp_path / "out", command, "--set", f"wormhole.b0_um={b0}") == 1
    assert capsys.readouterr().err == (
        f"wormbec {command}: error: [grid] {key}: the default overflows at "
        f"b0_um = {b0}; set grid.{key}\n")
    assert not (tmp_path / "out").exists()


def test_profile3d_outputs(tmp_path):
    """The throat x = R = 5 is sampled at every step, whether R/step is an
    integer (0.125 um) or not (0.3 um): exactly one row is the throat, with
    r = b0, cs0 = v_inf, c_s = 0 and a/a_bg = 0."""
    for step in ("0.125", "0.3"):
        code = run(tmp_path / step, "profile3d",
                   "--set", "wormhole.b0_um=1",
                   "--set", "observer.v_inf_m_per_s=0.01",
                   "--set", "layout.R_um=5",
                   "--set", f"grid.step_um={step}")
        assert code == 0
        throat_rows = [line for line in
                       (tmp_path / step / "profile3d_R5_b01_vinf0.01.csv").read_text().splitlines()
                       if line.startswith("5.0,")]
        assert len(throat_rows) == 1
        assert throat_rows[0].startswith("5.0,1.0,0.01,0.0,")   # x = R, r = b0, cs0 = v_inf, c_s
        assert float(throat_rows[0].split(",")[5]) == 0.0      # a/a_bg
    report = json.loads((tmp_path / "0.125" / "report_R5_b01_vinf0.01.json").read_text())
    detected = report["asymptotes"]["detected_x_um"]
    assert detected == pytest.approx([4.44, 5.56], abs=0.13)


def test_profile3d_asymptotes_move_outward_for_smaller_v_inf(tmp_path):
    positions = {}
    for v in ("0.009", "0.01"):
        code = run(tmp_path, "profile3d",
                   "--set", f"observer.v_inf_m_per_s={v}",
                   "--set", "grid.step_um=0.0625")
        assert code == 0
        report = json.loads(
            (tmp_path / f"report_R5_b01_vinf{v}.json").read_text())
        positions[v] = report["asymptotes"]["analytic_x_um"]
    # smaller v_inf pushes the poles farther from the throat at x = 5
    assert positions["0.009"][0] < positions["0.01"][0]
    assert positions["0.009"][1] > positions["0.01"][1]


def test_profile3d_strict_flags_asymptotes(tmp_path):
    code = run(tmp_path, "profile3d", "--strict",
               "--set", "grid.step_um=0.125")
    assert code == 2


@pytest.mark.parametrize("v_inf, code", [("0.0018", 0), ("0.0021", 2), ("0.01", 2)])
def test_profile3d_strict_fails_with_a_pole_in_the_layout(tmp_path, v_inf, code):
    """At step 2.5 um both audits pass and no sample lands near a pole, so
    --strict exits 0 without a field pole in the layout and 2 with one
    (analytic_x_um non-empty)."""
    assert run(tmp_path, "profile3d", "--strict", "--set", "grid.step_um=2.5",
               "--set", f"observer.v_inf_m_per_s={v_inf}") == code
    report = json.loads((tmp_path / f"report_R5_b01_vinf{v_inf}.json").read_text())
    assert report["near_asymptote_samples"] == 0 and report["resolution"]["passed"]
    assert bool(report["asymptotes"]["analytic_x_um"]) == (code == 2)


@pytest.mark.parametrize("setting, near, resolved", [
    ("thresholds.pole_delta=2", 5, True),
    ("grid.step_um=1.0", 0, False),
], ids=["near-samples", "resolution"])
def test_profile3d_strict_fails_on_each_condition_alone(tmp_path, setting, near, resolved):
    """The 3+1D verdict fails on any one of its three conditions alone. At
    step 2.5 um and v_inf = 0.0018 m/s all three pass (the test above fails
    the analytic pole alone); a wide pole_delta fails the near-sample count
    alone, and a finer step the resolution audit alone."""
    settings = ["grid.step_um=2.5", "observer.v_inf_m_per_s=0.0018", setting]
    assert main(["profile3d", "--strict", "--out", str(tmp_path),
                 *(f"--set={item}" for item in settings)]) == 2
    report, = tmp_path.glob("report_*.json")
    report = json.loads(report.read_text())
    assert report["near_asymptote_samples"] == near
    assert not report["asymptotes"]["analytic_x_um"]
    assert report["resolution"]["passed"] == resolved


def test_embed_closed_form(tmp_path):
    code = run(tmp_path, "embed",
               "--set", "wormhole.q=-1", "--set", "wormhole.b0_um=3",
               "--set", "grid.r_max_um=15", "--set", "grid.r_step_um=0.5")
    assert code == 0
    lines = (tmp_path / "embedding_q-1_b03.csv").read_text().splitlines()
    assert lines[0] == "r_um,z_um"
    first = lines[1].split(",")
    assert float(first[0]) == 3.0
    assert float(first[1]) == 0.0
    for line in lines[1:]:
        r, z = (float(v) for v in line.split(","))
        exact = 3.0 * math.acosh(r / 3.0)
        assert z == pytest.approx(exact, rel=1e-8, abs=1e-12)


def test_embed_closed_form_where_the_rise_overflows(tmp_path):
    """Past r/b0 ~ 1.3e154 the rise (r/b0)**2 - 1 of the default q = -1
    overflows; the heights keep to b0 arccosh(r/b0) up to r = 1e300."""
    code = run(tmp_path, "embed", "--set", "grid.r_max_um=1e300", "--set", "grid.r_step_um=1e298")
    assert code == 0
    lines = (tmp_path / "embedding_q-1_b01.csv").read_text().splitlines()[1:]
    assert len(lines) == 101
    for line in lines:
        r, z = (float(v) for v in line.split(","))
        assert z == pytest.approx(math.acosh(r), rel=2e-14, abs=0.0)


def test_embed_monotone_flare_for_q_half(tmp_path):
    code = run(tmp_path, "embed",
               "--set", "wormhole.q=0.5", "--set", "wormhole.b0_um=3")
    assert code == 0
    lines = (tmp_path / "embedding_q0.5_b03.csv").read_text().splitlines()[1:]
    heights = [float(line.split(",")[1]) for line in lines]
    assert heights[0] == 0.0
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_embed_at_strongly_negative_q(tmp_path):
    """At q = -50 the integrand turns over at u = sqrt(b0/51): a 2 um step
    leaves no target below sqrt(b0), and the graded panels still integrate."""
    assert run(tmp_path, "embed", "--set", "wormhole.q=-50", "--set", "grid.r_step_um=2") == 0
    lines = (tmp_path / "embedding_q-50_b01.csv").read_text().splitlines()[1:]
    heights = [float(line.split(",")[1]) for line in lines]
    assert len(heights) == 3 and heights[0] == 0.0 < heights[1] < heights[2]


def test_embed_rejects_broken_signature(tmp_path):
    assert run(tmp_path, "embed", "--set", "wormhole.q=2") == 1
    assert run(tmp_path, "embed", "--set", "wormhole.q=0.5,1.5") == 1


@pytest.mark.parametrize("command, override, named", [
    ("profile1d", "wormhole.q=0.9999999,1", "0.9999999 and 1.0 share the file tag 1"),
    ("profile1d", "wormhole.b0_um=1,1.0000001", "1.0 and 1.0000001 share the file tag 1"),
    ("embed", "wormhole.b0_um=1,1.0000001", "1.0 and 1.0000001 share the file tag 1"),
    ("embed", "wormhole.q=-1.0000001,-1,0.5", "-1.0000001 and -1.0 share the file tag -1"),
], ids=["profile1d-q", "profile1d-b0", "embed-b0", "embed-q"])
def test_sweep_values_sharing_a_file_tag_are_config_error(tmp_path, capsys, command,
                                                          override, named):
    """Two distinct sweep values that print alike (%g) would write one
    file over the other: a one-line error naming both, before any file."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", override,
                 "--set", "grid.step_um=0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: [wormhole] ")
    assert named in err and err.count("\n") == 1
    assert not out.exists()


def test_sweep_value_repeated_exactly_writes_its_tables(tmp_path):
    assert run(tmp_path / "1d", "profile1d", "--set", "wormhole.q=1,1",
               "--set", "grid.step_um=0.5") == 0
    assert sorted(p.name for p in (tmp_path / "1d").iterdir()) == [
        "feasibility_q1_b01.json", "profile1d_q1_b01.csv"]
    assert run(tmp_path / "embed", "embed", "--set", "wormhole.b0_um=2,2.0") == 0
    assert [p.name for p in (tmp_path / "embed").iterdir()] == ["embedding_q-1_b02.csv"]


def test_embed_checks_every_b0_before_writing(tmp_path, capsys):
    """r_max_um below one of the b0 values fails before the first table."""
    out = tmp_path / "out"
    assert main(["embed", "--out", str(out), "--set", "wormhole.b0_um=1,5",
                 "--set", "grid.r_max_um=3"]) == 1
    err = capsys.readouterr().err
    assert err == "wormbec embed: error: [grid] r_max_um must exceed b0, got 3.0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    ("profile1d", "wormhole.b0_um=1,1e-300"),
    ("profile1d", "wormhole.q=-1,1e300"),
    ("embed", "wormhole.q=0.5,1.5"),
], ids=["profile1d-b0", "profile1d-q", "embed-q"])
def test_sweep_failing_part_way_writes_no_file(tmp_path, capsys, command, override):
    """A sweep whose later combination fails exits 1 with one line and
    writes nothing: not the earlier combinations' tables and reports, nor a
    temporary file; a file of an earlier run under one of their names keeps
    its bytes."""
    earlier = tmp_path / "profile1d_q-1_b01.csv"
    earlier.write_text("an earlier run's table\n")
    assert run(tmp_path, command, "--set", override) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [earlier]
    assert earlier.read_text() == "an earlier run's table\n"


def test_failed_run_leaves_no_directory_it_made(tmp_path, capsys):
    """--out's missing directories are made for the run's files; a run that
    exits 1 removes the ones it made, and leaves a directory that was there
    before as it was."""
    before = tmp_path / "before"
    before.mkdir()
    for out in (tmp_path / "d1" / "a" / "b", before / "a" / "b", before):
        assert main(["profile1d", "--out", str(out), "--set", "wormhole.b0_um=1,1e-300"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [before]
        assert list(before.iterdir()) == []


@pytest.mark.parametrize("command, targets", [
    ("profile1d", ("profile1d_q-1_b01.csv", "feasibility_q-1_b01.json")),
    ("solve-gp", ("gp_solution_vinf0.01_b01.csv", "gp_summary_vinf0.01_b01.json")),
], ids=["profile1d", "solve-gp"])
@pytest.mark.parametrize("blocked", [0, 1], ids=["table", "report"])
def test_failed_commit_leaves_no_file(tmp_path, capsys, command, targets, blocked):
    """A directory at one of a run's two file names fails the run with one
    line naming that file, and leaves no file: the other target keeps an
    earlier run's bytes, and no temporary file is left."""
    directory = tmp_path / targets[blocked]
    directory.mkdir()
    earlier = tmp_path / targets[1 - blocked]
    earlier.write_text("an earlier run's file\n")
    assert run(tmp_path, command) == 1
    err = capsys.readouterr().err
    assert err == (f"wormbec {command}: error: [Errno 21] Is a directory: "
                   f"'{directory}'\n")
    assert sorted(tmp_path.iterdir()) == sorted([directory, earlier])
    assert list(directory.iterdir()) == []
    assert earlier.read_text() == "an earlier run's file\n"


def test_presets_listing(tmp_path, capsys):
    code = run(tmp_path, "presets")
    assert code == 0
    out = capsys.readouterr().out
    for name in ("Li", "Na", "K", "Rb", "Cs"):
        assert f"  {name}" in out
    assert "width = 0.157 G" in out
    assert "B_res = 47.766 G" in out
    assert "a_bg = 950 a0" in out


def test_presets_makes_no_directory(tmp_path, capsys):
    """presets writes no file, so its --out names no directory to make."""
    assert main(["presets", "--out", str(tmp_path / "new")]) == 0
    assert capsys.readouterr().err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("species", ["Li", "Na", "K", "Rb"])
def test_presets_ignores_the_condensate(capsys, species):
    """presets lists the registries and reads no condensate, so a species
    without a resonance of its own does not fail it."""
    assert main(["presets", "--set", f"condensate.species={species}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  density = 1e+21 m^-3" in captured.out


def test_preset_override_sections():
    cfg = load_config(overrides=[
        "species:Na2.mass_u=45.98",
        "resonance:Na2.a_bg_a0=60", "resonance:Na2.width_g=1.0", "resonance:Na2.b_res_g=900",
        "condensate.species=Na2", "condensate.resonance=Na2"])
    assert cfg.spec.species.name == "Na2"
    assert cfg.spec.resonance.width == 1.0
    assert "Cs" in cfg.species_registry  # builtins still present


def test_presets_come_only_from_the_command_line(tmp_path, monkeypatch):
    """A WORMBEC_PRESET_DIR whose *.ini replaces [species:Cs] changes no
    byte: the argv states every preset."""
    preset_dir = tmp_path / "presets"
    preset_dir.mkdir()
    (preset_dir / "cs.ini").write_text("[species:Cs]\nmass_u = 140\n")
    assert main(["profile1d", "--out", str(tmp_path / "defaults")]) == 0
    monkeypatch.setenv("WORMBEC_PRESET_DIR", str(preset_dir))
    assert main(["profile1d", "--out", str(tmp_path / "env")]) == 0
    assert _files(tmp_path / "env") == _files(tmp_path / "defaults")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        load_config(overrides=["wormhole.b0_um=-1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["observer.v_inf_m_per_s=0"])
    with pytest.raises(ConfigError):
        load_config(overrides=["bogus"])
    with pytest.raises(ConfigError):
        load_config(overrides=["condensate.species=Xe"]).spec
    assert main(["profile1d", "--set", "wormhole.b0_um=-1"]) == 1


@pytest.mark.parametrize("command, override", [
    ("profile1d", "wormhole.q=nan"),
    ("profile3d", "observer.v_inf_m_per_s=nan"),
    ("profile3d", "thresholds.pole_delta=nan"),
    ("profile1d", "grid.step_um=nan"),
    ("profile1d", "grid.x_max_um=inf"),
    ("profile3d", "layout.R_um=inf"),
    ("profile3d", "observer.v_inf_m_per_s=inf"),
    ("embed", "grid.r_max_um=nan"),
])
def test_non_finite_setting_is_config_error(tmp_path, capsys, command, override):
    """nan and inf are rejected with a one-line error before any output."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ")
    assert "finite" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["--set", "grid.stepum=0.01"], "'stepum'"),
    (["--set", "bogus.x=1"], "'bogus'"),
    (["--set", "species:He.mass=4"], "'mass'"),
], ids=["key", "section", "preset-key"])
def test_unknown_setting_is_one_line_error(tmp_path, capsys, args, named):
    """A section or key outside config.SCHEMA exits 1 with one stderr line
    naming it, and writes nothing."""
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec profile1d: error: unknown ")
    assert named in err and err.count("\n") == 1
    assert not out.exists()


def test_config_option_is_a_usage_error(tmp_path, capsys):
    """No option reads a config file: --config, even naming a valid one, is
    an unrecognized argument, so main returns 1 with one line under the
    subcommand, and the run writes nothing."""
    ini = tmp_path / "run.ini"
    ini.write_text("[wormhole]\nb0_um = 2\n")
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out), "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"wormbec profile1d: error: unrecognized arguments: --config {ini}; "
        "see wormbec profile1d --help\n")
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    (["species:X.mass_u=1e-300"], "[species:X] mass_u = 1e-300 underflows to 0 kg"),
    (["resonance:X.a_bg_a0=1e-320", "resonance:X.width_g=1", "resonance:X.b_res_g=1"],
     "[resonance:X] a_bg_a0 = 1e-320 underflows to 0 m"),
], ids=["mass", "a_bg"])
@pytest.mark.parametrize("command", ["presets", "solve-gp"])
def test_preset_that_underflows_names_its_section(tmp_path, capsys, command, overrides,
                                                  message):
    """A positive preset value whose SI value underflows to zero exits 1
    with one line naming the preset section, the key and the text given,
    and writes nothing."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *(f"--set={item}" for item in overrides)]) == 1
    assert capsys.readouterr().err == f"wormbec {command}: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    ("profile1d", "wormhole.b0_um=1e-300"),
    ("profile1d", "wormhole.q=1e300"),
    ("profile1d", "wormhole.q=-1e300"),
    ("profile3d", "observer.v_inf_m_per_s=1e160"),
    ("profile3d", "wormhole.q=-1e300"),
    ("profile3d", "observer.v_inf_m_per_s=1e-320"),
    ("profile1d", "condensate.density_per_m3=1.7e308"),
    ("profile3d", "condensate.density_per_m3=1.7e308"),
])
def test_arithmetic_failure_is_one_line_error(tmp_path, capsys, command, override):
    """Finite settings whose arithmetic overflows or divides by zero exit 1
    with one line, and write nothing (no table is left without its report)."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
    assert f"--set {override}" in err
    assert not out.exists()


def test_arithmetic_failure_names_each_override_in_order(tmp_path, capsys):
    """The run's config is its --set items: the error line names each, in
    the order given."""
    assert main(["profile1d", "--out", str(tmp_path / "out"),
                 "--set", "wormhole.b0_um=1e-300", "--set", "grid.step_um=0.5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[--set wormhole.b0_um=1e-300, --set grid.step_um=0.5]" in err


def test_solve_gp_near_light_speed_flags_instead_of_raising(tmp_path, capsys):
    """At v_inf = 1e8 m/s the fold lies at r = 1.666 b0: r = 1.5 solves,
    r = 5 lies past the fold and is flagged unconverged, which --strict
    turns into exit 2."""
    args = ["solve-gp", "--out", str(tmp_path), "--set", "observer.v_inf_m_per_s=1e8",
            "--set", "grid.r_min_um=1.5", "--set", "grid.r_max_um=5",
            "--set", "grid.r_step_um=3.5"]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "gp_solution_vinf1e+08_b01.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "false"]
    assert main([*args, "--strict"]) == 2
    summary = json.loads((tmp_path / "gp_summary_vinf1e+08_b01.json").read_text())
    assert summary["fold_radius_um"] == pytest.approx(1.6657443376, rel=1e-10)


def assert_past_the_fold_everywhere(tmp_path, capsys, override, fold):
    """solve-gp with OVERRIDE exits 1, writes nothing, and its one stderr
    line names the fold at r = FOLD."""
    out = tmp_path / "out"
    assert main(["solve-gp", "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec solve-gp: error: ") and err.count("\n") == 1
    assert f"beyond the fold at r = {fold}" in err
    assert not out.exists()


def test_solve_gp_past_the_fold_everywhere_names_it(tmp_path, capsys):
    """At v_inf = 2e8 m/s the fold lies at r = 1.083 b0, below the default
    r_min = 1.1 b0: no radius solves, and the one-line error names the fold."""
    assert_past_the_fold_everywhere(tmp_path, capsys, "observer.v_inf_m_per_s=2e8", "1.083045")


def test_solve_gp_past_a_steep_fold_everywhere_names_it(tmp_path, capsys):
    """At q = -1e300, (b0/r)**(1-q) underflows at every radius and the fold
    rounds to r = b0: every radius is flagged, and the one-line error names
    the fold, not an arithmetic failure."""
    assert_past_the_fold_everywhere(tmp_path, capsys, "wormhole.q=-1e300", "1.0\n")


@pytest.mark.parametrize("q, strict, code, converged", [
    ("-10", True, 0, 179), ("-30", True, 2, 69), ("-440", False, 0, 1),
])
def test_solve_gp_converges_up_to_a_steep_fold(tmp_path, capsys, q, strict, code, converged):
    """At steep q a radius converges where it lies inside the fold: all 179
    default radii at q = -10 (so --strict exits 0), 69 at q = -30 (so it
    exits 2), and 1 at q = -440, where (b0/r)**(1-q) underflows at the far
    radii, which are flagged instead of failing the run."""
    args = ["solve-gp", "--out", str(tmp_path), "--set", f"wormhole.q={q}"]
    assert main([*args, *(["--strict"] if strict else [])]) == code
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "gp_summary_vinf0.01_b01.json").read_text())
    assert (summary["points_converged"], summary["points"]) == (converged, 179)


@pytest.mark.parametrize("overrides, points", [
    (("wormhole.q=0.99999",), 179),
    (("wormhole.q=0.9", "grid.r_min_um=1.0000000000000004"), 181),
], ids=["q-0.99999", "two-ulp-off-the-throat"])
def test_solve_gp_converges_as_q_nears_1_and_near_the_throat(tmp_path, capsys, overrides,
                                                             points):
    """At q = 0.99999, and two ulp off the throat at q = 0.9, rounding lifts
    the raw residuals far above criterion 5's 1e-12, but every radius lies
    inside the fold with c_s0 above v_inf: every radius converges, --strict
    exits 0 with nothing on stderr, and the summary states the raw maxima."""
    args = [arg for item in overrides for arg in ("--set", item)]
    assert main(["solve-gp", "--strict", "--out", str(tmp_path), *args]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "gp_summary_vinf0.01_b01.json").read_text())
    assert summary["points_converged"] == summary["points"] == points
    assert summary["max_abs_residual1"] > 1e-12


@pytest.mark.parametrize("command, override, radius", [
    ("profile1d", "wormhole.b0_um=1e300", "1e+300"),
    ("profile3d", "wormhole.b0_um=1e20", "1e+20"),
])
def test_grid_collapsing_onto_one_radius_is_one_line_error(tmp_path, capsys, command,
                                                           override, radius):
    """At these b0 the 0.1 um step is below the spacing of the doubles, so
    every sample would sit at r = b0: exit 1 with one stderr line."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
    assert f"grid points 0 and 1 both round to {radius}: step 0.1 is below its ulp" in err
    assert not out.exists()


@pytest.mark.parametrize("command, r_max", [
    ("embed", "1.0000000000000164e20"),
    ("solve-gp", "1.1000000000000164e20"),   # from r_min = 1.1 b0
])
def test_radial_step_below_the_ulp_is_one_line_error(tmp_path, capsys, command, r_max):
    """A 1000 um step is below the 16384 um spacing of the doubles near
    1e20 um, so neighbouring radii would repeat: exit 1 with one stderr line."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", "wormhole.b0_um=1e20",
                 "--set", f"grid.r_max_um={r_max}", "--set", "grid.r_step_um=1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
    assert "step 1000.0 is below its ulp" in err
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    ("profile1d", "grid.step_um=0.01"),       # 2001 points a side
    ("solve-gp", "grid.r_step_um=0.001"),     # 8901 radii
    ("profile3d", "grid.step_um=0.001"),      # 10001 points
    ("embed", "grid.r_step_um=0.001"),        # 4001 radii
])
def test_grid_above_point_cap_is_one_line_error(tmp_path, capsys, monkeypatch,
                                                command, override):
    """A grid above the point cap exits 1 with one line and writes nothing
    (the cap is lowered to 1000 points so no large grid is ever built)."""
    monkeypatch.setattr("wormbec.geometry.MAX_GRID_POINTS", 1000)
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == 0
    capsys.readouterr()
    out = tmp_path / "capped"
    assert main([command, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ")
    assert "exceeds 1000 points" in err and err.count("\n") == 1
    assert not out.exists()


JSON_CELL = {"nan": None, "": None, "true": True, "false": False}


def test_csv_and_json_tables_hold_the_same_values(tmp_path):
    """Each table subcommand writes the same cells in both formats, with
    NaN as nan/null and the near-asymptote field as an empty cell/null."""
    runs = {
        "profile1d_q2_b01": ("profile1d", "--set", "wormhole.q=2"),
        "gp_solution_vinf0.01_b01": ("solve-gp",),
        "profile3d_R5_b01_vinf0.01": ("profile3d", "--set", "grid.step_um=0.001"),
        "embedding_q-1_b01": ("embed",),
    }
    for stem, args in runs.items():
        assert run(tmp_path / "csv", *args) == 0
        assert run(tmp_path / "json", *args, "--format", "json") == 0
        lines = (tmp_path / "csv" / f"{stem}.csv").read_text().splitlines()
        payload = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        assert payload["columns"] == lines[0].split(",")
        assert len(payload["rows"]) == len(lines) - 1
        for line, row in zip(lines[1:], payload["rows"]):
            assert row == [JSON_CELL[cell] if cell in JSON_CELL else float(cell)
                           for cell in line.split(",")]
    blank = [line for line in (tmp_path / "csv" / "profile3d_R5_b01_vinf0.01.csv")
             .read_text().splitlines() if ",," in line]
    assert len(blank) == 2


def test_profile1d_csv_cells_render_their_json_values(tmp_path):
    """Every cell of the 40001-row 1D table, written from its upper half,
    is the text of the value the JSON table holds: repr of the float, nan
    for null, true/false for a flag."""
    args = ("profile1d", "--set", "wormhole.q=-1,0.95,2", "--set", "grid.step_um=0.001")
    assert run(tmp_path / "csv", *args) == 0
    assert run(tmp_path / "json", *args, "--format", "json") == 0
    for q in ("-1", "0.95", "2"):
        stem = f"profile1d_q{q}_b01"
        lines = (tmp_path / "csv" / f"{stem}.csv").read_text().splitlines()
        payload = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        assert lines[0] == ",".join(payload["columns"])
        assert len(lines) == 1 + len(payload["rows"]) == 40002
        for line, row in zip(lines[1:], payload["rows"]):
            assert line == ",".join(
                "nan" if v is None else ("true" if v else "false") if isinstance(v, bool)
                else repr(v) for v in row)


def test_later_override_wins():
    """A later override of a key wins over an earlier one."""
    cfg = load_config(overrides=["wormhole.b0_um=2.0", "wormhole.q=0.5",
                                 "observer.v_inf_m_per_s=0.012",
                                 "observer.v_inf_m_per_s=0.015"])
    assert cfg.settings["wormhole"]["b0_um"] == (2.0,)
    assert cfg.settings["wormhole"]["q"] == (0.5,)
    assert cfg.settings["observer"]["v_inf_m_per_s"] == 0.015


def test_json_table_format(tmp_path):
    code = run(tmp_path, "profile1d", "--format", "json",
               "--set", "wormhole.q=2", "--set", "grid.x_max_um=2",
               "--set", "grid.step_um=1")
    assert code == 0
    payload = json.loads((tmp_path / "profile1d_q2_b01.json").read_text())
    assert payload["columns"][0] == "x_um"
    # NaN sound speeds serialize as null
    assert payload["rows"][0][5] is None


def test_byte_identical_reruns(tmp_path):
    """Identical config produces byte-identical outputs."""
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["profile1d", "--out", str(out),
                     "--set", "grid.step_um=0.5"]) == 0
        assert main(["solve-gp", "--out", str(out),
                     "--set", "grid.r_step_um=0.5"]) == 0
    for name in ("profile1d_q-1_b01.csv", "feasibility_q-1_b01.json",
                 "gp_solution_vinf0.01_b01.csv", "gp_summary_vinf0.01_b01.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_module_entry_point(tmp_path):
    """python -m wormbec runs every subcommand end to end in a fresh
    interpreter, in CSV and JSON, and a successful run writes nothing to
    stderr: embed at q = -500, whose embedding rise overflows, included."""
    runs = [[sub, "--format", fmt] for sub in ("profile1d", "solve-gp", "profile3d", "embed",
                                               "presets") for fmt in ("csv", "json")]
    for args in [*runs, ["embed", "--set", "wormhole.q=-500"]]:
        result = subprocess.run(
            [sys.executable, "-m", "wormbec", *args, "--out", str(tmp_path / "-".join(args))],
            capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, ""), args
        if args[0] == "presets":
            assert "Cs" in result.stdout


def _imported_modules(argv, expect_rc=0):
    """Modules a fresh interpreter imports for ARGV, from -X importtime."""
    result = subprocess.run([sys.executable, "-X", "importtime", *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == expect_rc, result.stderr[-2000:]
    return [line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


@pytest.mark.parametrize("argv", [
    ["-c", "import wormbec"],
    ["-m", "wormbec", "embed", "--out", "{out}"],
])
def test_scipy_is_never_imported(tmp_path, argv):
    """Neither the package import nor a CLI run loads scipy."""
    modules = _imported_modules([a.format(out=tmp_path) for a in argv])
    assert "wormbec" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_embed_never_imports_numpy_polynomial(tmp_path):
    """The quadrature's Gauss-Legendre rules are literals, so an embed run
    loads no numpy.polynomial (numpy 1.x loads it with numpy itself)."""
    if "numpy.polynomial" in _imported_modules(["-c", "import numpy"]):
        pytest.skip("this numpy imports numpy.polynomial itself")
    modules = _imported_modules(["-m", "wormbec", "embed", "--out", str(tmp_path)])
    assert "wormbec.geometry" in modules
    assert not [m for m in modules if m == "numpy.polynomial" or m.startswith("numpy.polynomial.")]


def test_usage_error_exits_1(capsys):
    """A usage error is one stderr line, returned as exit 1: under bare
    wormbec until argparse has chosen a subcommand."""
    assert main(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec: error: argument command: invalid choice: 'no-such-command'")
    assert err.endswith("; see wormbec --help\n") and err.count("\n") == 1


def test_abbreviated_option_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Options are spelled in full: a prefix of one is an unrecognized
    argument, not the option, so the run exits 1 with one line and writes
    nothing. The --out=DIR and --set=ITEM forms are full spellings."""
    monkeypatch.chdir(tmp_path)
    assert main(["profile1d", "--o", "t2", "--form", "json", "--st"]) == 1
    assert capsys.readouterr().err == (
        "wormbec profile1d: error: unrecognized arguments: --o t2 --form json --st; "
        "see wormbec profile1d --help\n")
    assert not any(tmp_path.iterdir())
    assert main(["profile1d", "--out=t2", "--set=grid.step_um=1"]) == 0
    assert sorted(p.name for p in (tmp_path / "t2").iterdir()) == [
        "feasibility_q-1_b01.json", "profile1d_q-1_b01.csv"]


@pytest.mark.parametrize("args", [["--out", "a\0b"], ["--out=\0"]])
def test_nul_in_out_is_a_usage_error(tmp_path, monkeypatch, capsys, args):
    """No path call takes a NUL byte, which an in-process argv can hold:
    --out rejects it with one line, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["profile1d", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec profile1d: error: argument --out: ")
    assert err.endswith("; see wormbec profile1d --help\n") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_non_finite_report_values_are_json_null(tmp_path):
    """Every JSON file is strict JSON: an overflowing report value is null,
    not Infinity or NaN. The 1D slope's (1-q)/b0 overflows for b0 = 1e-308
    (inf at the throat, inf times an underflowed power at x = 10); at
    q = -299, b0 = 10.5, where b0**(1-q) once overflowed, it is finite."""
    assert run(tmp_path / "gp", "solve-gp", "--format", "json",
               "--set", "observer.v_inf_m_per_s=1e-305") == 0
    assert run(tmp_path / "1d", "profile1d", "--format", "json",
               "--set", "wormhole.q=-299", "--set", "wormhole.b0_um=10.5") == 0
    assert run(tmp_path / "1d-tiny", "profile1d", "--format", "json",
               "--set", "wormhole.q=0.5", "--set", "wormhole.b0_um=1e-308",
               "--set", "grid.x_max_um=1e-307", "--set", "grid.step_um=1e-308",
               "--set", "grid.throat_exclusion_um=0") == 0
    assert run(tmp_path / "3d", "profile3d", "--set", "wormhole.q=0.999") == 0
    payloads = {path.stem: _strict_json(path) for path in tmp_path.glob("*/*.json")}
    assert payloads["report_R5_b01_vinf0.01"]["asymptotes"]["radius_um"] is None
    assert payloads["gp_summary_vinf1e-305_b01"]["fold_radius_um"] is None
    feasibility = payloads["feasibility_q0.5_b01e-308"]
    assert feasibility["feasibility"]["max_slope_per_um"] is None
    assert feasibility["slope_at_x10"] is None
    feasibility = payloads["feasibility_q-299_b010.5"]
    assert 0.0 < feasibility["feasibility"]["max_slope_per_um"] < math.inf
    assert 0.0 < feasibility["slope_at_x10"] < math.inf


def test_solve_gp_summary_past_the_fold_covers_converged_radii(tmp_path):
    """At 3e7 m/s the fold lies at r = 5.05 b0: the summary's residual and
    deviation maxima are those of the 79 converged radii only."""
    assert run(tmp_path, "solve-gp", "--set", "observer.v_inf_m_per_s=3e7") == 0
    summary = json.loads((tmp_path / "gp_summary_vinf3e+07_b01.json").read_text())
    assert summary["points_converged"] == 79 < summary["points"]
    assert summary["max_abs_residual1"] < 1e-12
    assert summary["max_abs_residual2"] < 1e-12
    rows = [[float(v) for v in line.split(",")[:3]]
            for line in (tmp_path / "gp_solution_vinf3e+07_b01.csv").read_text()
            .splitlines()[1:] if line.endswith(",true")]
    assert summary["max_rel_deviation_from_zero_order"]["vr"] == max(
        abs(vr - 3e7) / 3e7 for _, _, vr in rows)


FRONT = {"wormbec", "wormbec.cli", "wormbec.config", "wormbec.exceptions",
         "wormbec.feshbach"}


@pytest.mark.parametrize("argv, rc, kernels, orjson", [
    (["-c", "import wormbec"], 0, None, False),
    (["-m", "wormbec", "presets"], 0, set(), False),
    (["-m", "wormbec", "--help"], 0, set(), False),
    (["-m", "wormbec", "no-such-command"], 1, set(), False),
    (["-m", "wormbec", "profile1d", "--set", "wormhole.b0_um=-1"], 1, set(), False),
    (["-m", "wormbec", "profile1d", "--out", "{out}"], 0,
     {"geometry", "profile1d", "tableio"}, False),
    (["-m", "wormbec", "solve-gp", "--out", "{out}"], 0,
     {"geometry", "gp3d", "tableio"}, False),
    (["-m", "wormbec", "profile3d", "--out", "{out}"], 0,
     {"geometry", "gp3d", "profile3d", "tableio"}, False),
    (["-m", "wormbec", "embed", "--out", "{out}"], 0, {"geometry", "tableio"}, False),
    (["-m", "wormbec", "profile1d", "--set", "grid.step_um=0.01", "--out", "{out}"], 0,
     {"geometry", "profile1d", "tableio"}, True),
], ids=["import", "presets", "help", "usage-error", "config-error",
        "profile1d", "solve-gp", "profile3d", "embed", "profile1d-2001-rows"])
def test_each_call_imports_only_what_it_runs(tmp_path, argv, rc, kernels, orjson):
    """The package import loads nothing but itself; a CLI call loads the
    front end and its own kernel modules, numpy only with a kernel, and no
    config-file parser. orjson loads only for a table with a full chunk of
    in-window floats: never at the default grid (201 rows a half at most),
    but for profile1d's 2001-row half at step 0.01."""
    modules = _imported_modules([a.format(out=tmp_path) for a in argv], rc)
    assert "configparser" not in modules
    loaded = {m for m in modules if m == "wormbec" or m.startswith("wormbec.")}
    if kernels is None:
        assert loaded == {"wormbec"}
    else:
        assert loaded == FRONT | {f"wormbec.{name}" for name in kernels}
    assert ("numpy" in modules) == bool(kernels)
    assert ("orjson" in modules) == orjson


def test_every_public_name_resolves():
    """Each of the package's 41 names imports from its submodule on first
    access, through `from wormbec import X` and `import *` alike."""
    assert len(wormbec.__all__) == len(set(wormbec.__all__)) == 41
    star = {}
    exec("from wormbec import *", star)
    for name in wormbec.__all__:
        single = {}
        exec(f"from wormbec import {name}", single)
        home = importlib.import_module(f"wormbec.{wormbec._EXPORTS[name]}")
        assert single[name] is star[name] is getattr(home, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        wormbec.no_such_name  # noqa: B018


@pytest.fixture
def no_blas_setting(monkeypatch):
    # setenv first, so that teardown also removes a value the code sets
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "placeholder")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    return monkeypatch


TABLE_COMMANDS = ("profile1d", "solve-gp", "profile3d", "embed")

# Runs each table command, into OUT/<command>, through one CLI entry in a
# fresh interpreter, since tier-1 has numpy loaded already. Prints the exit
# codes, the OS thread count before the calls (after numpy, if that is
# imported first) and after them, and whether os.environ came out as it
# went in.
_THREAD_PROBE = r"""
import importlib, json, os, runpy, sys
entry, out, numpy_first = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
before = dict(os.environ)
if numpy_first:
    import numpy
threads = len(os.listdir("/proc/self/task"))
codes = []
for command in ("profile1d", "solve-gp", "profile3d", "embed"):
    sys.argv = ["wormbec", command, "--out", os.path.join(out, command)]
    if entry == "-m":  # what python -m wormbec runs
        try:
            runpy.run_module("wormbec", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
    else:  # what a console-script wrapper runs for the target MODULE:NAME
        module, name = entry.split(":")
        codes.append(getattr(importlib.import_module(module), name)())
print(json.dumps({"codes": codes, "threads_before": threads,
                  "threads": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before}))
"""
MULTI_CORE = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Each table command's files at the defaults, from this process, whose
    numpy keeps the BLAS threads it started with."""
    out = tmp_path_factory.mktemp("tables")
    for command in TABLE_COMMANDS:
        assert main([command, "--out", str(out / command)]) == 0
    return {command: _files(out / command) for command in TABLE_COMMANDS}


def _thread_probe(tmp_path, tables, entry, blas_threads=None, numpy_first=False):
    """The probe's report, after checking that its runs wrote the tables of
    this process: the files do not depend on the BLAS thread count."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, entry, str(tmp_path), str(int(numpy_first))],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    probe = json.loads(result.stdout)
    assert probe["codes"] == [0] * len(TABLE_COMMANDS)
    assert probe["environ_kept"]
    assert {command: _files(tmp_path / command) for command in TABLE_COMMANDS} == tables
    return probe


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3"), ("4", "4")])
def test_module_entry_defaults_to_one_blas_thread(tmp_path, tables, user_value, expected):
    """python -m wormbec runs with one BLAS thread unless the user set a
    count, writes the same tables either way, and leaves os.environ as it
    found it."""
    threads = _thread_probe(tmp_path, tables, "-m", user_value)["threads"]
    if expected == "1":
        assert threads == 1
    elif MULTI_CORE:
        assert threads > 1


@pytest.mark.parametrize("user_value, numpy_first, one_thread", [
    (None, False, True), ("2", False, False), (None, True, False),
], ids=["unset", "user-value", "numpy-loaded"])
def test_in_process_main_defaults_to_one_blas_thread(tmp_path, tables, user_value,
                                                     numpy_first, one_thread):
    """main() makes a process's first numpy import with one BLAS thread;
    a user value wins, and a process that loaded numpy first keeps its BLAS
    pool. os.environ is unchanged after every call."""
    probe = _thread_probe(tmp_path, tables, "wormbec.cli:main", user_value, numpy_first)
    if one_thread:
        assert probe["threads"] == 1
    elif MULTI_CORE:
        assert probe["threads"] > 1
    if numpy_first:
        assert probe["threads"] == probe["threads_before"]


def test_installed_script_defaults_to_one_blas_thread(tmp_path, tables):
    """The [project.scripts] target runs as a console-script wrapper would
    run it: exit 0 with one BLAS thread."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["wormbec"]
    assert _thread_probe(tmp_path, tables, target)["threads"] == 1


def test_imports_and_in_process_calls_leave_the_environment_alone(
        no_blas_setting, tmp_path):
    before = dict(os.environ)
    importlib.reload(wormbec)
    runpy.run_module("wormbec")  # wormbec.__main__, not as the main module
    assert main(["profile1d", "--out", str(tmp_path), "--set", "grid.step_um=0.5"]) == 0
    assert dict(os.environ) == before
