"""Command-line front end: subcommands, config handling, exit codes,
deterministic output."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

import wormbec.cli
from wormbec.cli import main
from wormbec.config import load_config
from wormbec.exceptions import ConfigError
from wormbec.gp3d import solve_matching


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


def test_profile1d_feasibility_json_slope(tmp_path):
    code = run(tmp_path, "profile1d",
               "--set", "wormhole.q=0.95", "--set", "wormhole.b0_um=1",
               "--set", "grid.step_um=0.5")
    assert code == 0
    payload = json.loads((tmp_path / "feasibility_q0.95_b01.json").read_text())
    assert payload["slope_at_x10"] == pytest.approx(0.038, abs=1e-3)
    assert payload["wormhole"]["throat_class"] == "traversable"
    assert payload["a_bg_a0"] == pytest.approx(950.0, rel=1e-12)


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


def test_solve_gp_strict_flags_unconverged_radius(tmp_path, monkeypatch):
    """--strict exits 2 once any radius is unconverged, after writing the
    tables; without --strict the same run exits 0."""
    def one_unconverged(*args, **kwargs):
        solution = solve_matching(*args, **kwargs)
        converged = solution.converged.copy()
        converged[3] = False
        return dataclasses.replace(solution, converged=converged)

    monkeypatch.setattr(wormbec.cli, "solve_matching", one_unconverged)
    args = ("solve-gp", "--set", "grid.r_step_um=0.5")
    assert run(tmp_path / "strict", *args, "--strict") == 2
    summary = json.loads(
        (tmp_path / "strict" / "gp_summary_vinf0.01_b01.json").read_text())
    assert summary["points_converged"] == summary["points"] - 1
    assert run(tmp_path / "plain", *args) == 0
    monkeypatch.setattr(wormbec.cli, "solve_matching", solve_matching)
    assert run(tmp_path / "real", *args, "--strict") == 0


def test_solve_gp_rejects_multiple_b0(tmp_path):
    code = run(tmp_path, "solve-gp", "--set", "wormhole.b0_um=1,2")
    assert code == 1


def test_profile3d_outputs(tmp_path):
    code = run(tmp_path, "profile3d",
               "--set", "wormhole.b0_um=1",
               "--set", "observer.v_inf_m_per_s=0.01",
               "--set", "layout.R_um=5",
               "--set", "grid.step_um=0.125")
    assert code == 0
    report = json.loads((tmp_path / "report_R5_b01_vinf0.01.json").read_text())
    detected = report["asymptotes"]["detected_x_um"]
    assert detected == pytest.approx([4.44, 5.56], abs=0.13)
    throat_rows = [line for line in
                   (tmp_path / "profile3d_R5_b01_vinf0.01.csv").read_text().splitlines()
                   if line.startswith("5.0,")]
    assert len(throat_rows) == 1
    fields = throat_rows[0].split(",")
    assert float(fields[1]) == 1.0      # r = b0
    assert float(fields[5]) == 0.0      # a/a_bg
    assert float(fields[2]) == 0.01     # cs0 = v_inf


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


def test_embed_monotone_flare_for_q_half(tmp_path):
    code = run(tmp_path, "embed",
               "--set", "wormhole.q=0.5", "--set", "wormhole.b0_um=3")
    assert code == 0
    lines = (tmp_path / "embedding_q0.5_b03.csv").read_text().splitlines()[1:]
    heights = [float(line.split(",")[1]) for line in lines]
    assert heights[0] == 0.0
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_embed_rejects_broken_signature(tmp_path):
    assert run(tmp_path, "embed", "--set", "wormhole.q=2") == 1
    assert run(tmp_path, "embed", "--set", "wormhole.q=0.5,1.5") == 1


def test_presets_listing(tmp_path, capsys):
    code = run(tmp_path, "presets")
    assert code == 0
    out = capsys.readouterr().out
    for name in ("Li", "Na", "K", "Rb", "Cs"):
        assert f"  {name}" in out
    assert "width = 0.157 G" in out
    assert "B_res = 47.766 G" in out
    assert "a_bg = 950 a0" in out


def test_preset_override_sections(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[species:Na2]\nmass_u = 45.98\n"
        "[resonance:Na2]\na_bg_a0 = 60\nwidth_g = 1.0\nb_res_g = 900\n"
        "[condensate]\nspecies = Na2\nresonance = Na2\n")
    cfg = load_config(config_path=str(config))
    assert cfg.spec.species.name == "Na2"
    assert cfg.spec.resonance.width == 1.0
    assert "Cs" in cfg.species_registry  # builtins still present


def test_preset_env_directory(tmp_path, monkeypatch):
    preset_dir = tmp_path / "presets"
    preset_dir.mkdir()
    (preset_dir / "custom.ini").write_text("[species:He]\nmass_u = 4.0026\n")
    monkeypatch.setenv("WORMBEC_PRESET_DIR", str(preset_dir))
    cfg = load_config()
    assert "He" in cfg.species_registry


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(overrides=["wormhole.b0_um=-1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["observer.v_inf_m_per_s=0"])
    with pytest.raises(ConfigError):
        load_config(overrides=["bogus"])
    with pytest.raises(ConfigError):
        load_config(config_path=str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_config(overrides=["condensate.species=Xe"])
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
    (["--config", "{ini}"], "'b0'"),
], ids=["key", "section", "preset-key", "config-file-key"])
def test_unknown_setting_is_one_line_error(tmp_path, capsys, args, named):
    """A section or key outside config.SCHEMA exits 1 with one stderr line
    naming it, and writes nothing."""
    ini = tmp_path / "run.ini"
    ini.write_text("[wormhole]\nb0 = 2\n")
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out), *(a.format(ini=ini) for a in args)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec profile1d: error: unknown ")
    assert named in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("preset, text", [
    (False, b"[wormhole]\nq = 5%\n"),
    (False, b"[wormhole]\nq = \xff\n"),
    (True, b"mass_u = 3\n"),
    (True, b"[species:A]\nmass_u = 3\n[species:A]\nmass_u = 4\n"),
    (True, b"[wormhole]\nq = 1\n"),
], ids=["percent", "not-utf8", "no-header", "duplicate-section", "not-a-preset"])
def test_unreadable_ini_is_one_line_error(tmp_path, capsys, monkeypatch, preset, text):
    """A config or preset file that does not parse exits 1 with one stderr
    line naming the file."""
    path = tmp_path / "in" / "file.ini"
    path.parent.mkdir()
    path.write_bytes(text)
    if preset:
        monkeypatch.setenv("WORMBEC_PRESET_DIR", str(path.parent))
    out = tmp_path / "out"
    args = [] if preset else ["--config", str(path)]
    assert main(["profile1d", "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    ("profile1d", "wormhole.b0_um=1e-300"),
    ("profile1d", "wormhole.b0_um=1e300"),
    ("profile1d", "wormhole.q=1e300"),
    ("profile1d", "wormhole.q=-1e300"),
    ("solve-gp", "wormhole.b0_um=1e-300"),
])
def test_arithmetic_failure_is_one_line_error(tmp_path, capsys, command, override):
    """Finite settings whose arithmetic overflows or divides by zero exit 1
    with one line."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"wormbec {command}: error: ") and err.count("\n") == 1
    assert not out.exists()


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


def test_solve_gp_past_the_fold_everywhere_names_it(tmp_path, capsys):
    """At v_inf = 2e8 m/s the fold lies at r = 1.083 b0, below the default
    r_min = 1.1 b0: no radius solves, and the one-line error names the fold."""
    out = tmp_path / "out"
    assert main(["solve-gp", "--out", str(out),
                 "--set", "observer.v_inf_m_per_s=2e8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wormbec solve-gp: error: ") and err.count("\n") == 1
    assert "fold at r = 1.083045" in err
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


def test_config_file_plus_override(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[wormhole]\nb0_um = 2.0\nq = 0.5\n"
                      "[observer]\nv_inf_m_per_s = 0.012\n")
    cfg = load_config(config_path=str(config),
                      overrides=["observer.v_inf_m_per_s=0.015"])
    assert cfg.b0_list == (2.0,)
    assert cfg.q_list == (0.5,)
    assert cfg.v_inf == 0.015


def test_ellis_flag_sets_q(tmp_path):
    cfg = load_config(overrides=["wormhole.ellis=true", "wormhole.q=2,3"])
    assert cfg.q_list == (-1.0,)


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
    """python -m wormbec works end to end in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "wormbec", "presets"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "Cs" in result.stdout


@pytest.mark.parametrize("argv", [
    ["-c", "import wormbec"],
    ["-m", "wormbec", "embed", "--out", "{out}"],
])
def test_scipy_is_never_imported(tmp_path, argv):
    """Neither the package import nor a CLI run loads scipy."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *(a.format(out=tmp_path) for a in argv)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    modules = [line.rsplit("|", 1)[1].strip()
               for line in result.stderr.splitlines()
               if line.startswith("import time:") and "|" in line]
    assert "wormbec" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1
