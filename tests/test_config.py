"""Run settings: every SCHEMA key is read under its own name and rewrites
no other, restating a default with --set changes no output, a custom
species or resonance is a preset section, and the kernels restate no
SCHEMA default."""

import contextlib
import hashlib
import inspect
import io

import pytest

from wormbec import feshbach, profile1d, profile3d
from wormbec.cli import main
from wormbec.config import SCHEMA, load_config

SUBCOMMANDS = ("profile1d", "solve-gp", "profile3d", "embed", "presets")

# SECTION.KEY -> (context, probe, parsed probe). The context overrides are
# set with and without the probe, so the probe alone makes any difference.
PROBES = {
    "wormhole.b0_um": ((), "2", (2.0,)),
    "wormhole.q": ((), "0.5", (0.5,)),
    "observer.v_inf_m_per_s": ((), "0.02", 0.02),
    "condensate.species": (("condensate.resonance=Cs",), "Rb", "Rb"),
    "condensate.resonance": (("resonance:Probe.a_bg_a0=60", "resonance:Probe.width_g=1",
                              "resonance:Probe.b_res_g=900"), "Probe", "Probe"),
    "condensate.density_per_m3": ((), "2e21", 2e21),
    "grid.x_max_um": ((), "10", 10.0),
    "grid.step_um": ((), "0.2", 0.2),
    "grid.r_min_um": ((), "1.2", 1.2),
    "grid.r_max_um": ((), "8", 8.0),
    "grid.r_step_um": ((), "0.1", 0.1),
    "grid.throat_exclusion_um": ((), "2", 2.0),
    "layout.R_um": ((), "6", 6.0),
    "thresholds.slope_per_um": ((), "0.1", 0.1),
    "thresholds.resolution_factor": ((), "20", 20.0),
    "thresholds.pole_delta": ((), "0.1", 0.1),
}


def test_probe_table_covers_every_setting():
    assert set(PROBES) == {f"{section}.{key}" for section, keys in SCHEMA.items()
                           if not section.endswith(":") for key in keys}


@pytest.mark.parametrize("name", PROBES)
def test_setting_lands_under_its_own_name(name):
    """The probe appears parsed at its own section and key, and nowhere
    else."""
    context, raw, parsed = PROBES[name]
    section, key = name.split(".")
    before = load_config(overrides=list(context)).settings
    after = load_config(overrides=[*context, f"{name}={raw}"]).settings
    assert after[section][key] == parsed
    changed = {f"{s}.{k}" for s in after for k in after[s] if after[s][k] != before[s][k]}
    assert changed == {name}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each subcommand's exit code and digest of stdout, stderr and written
    files under a list of overrides, cached by them."""
    cache = {}

    def run(overrides):
        if overrides not in cache:
            cache[overrides] = {}
            for sub in SUBCOMMANDS:
                out = tmp_path_factory.mktemp("out")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([sub, "--out", str(out),
                                 *(arg for item in overrides for arg in ("--set", item))])
                digest = hashlib.sha256(f"{stdout.getvalue()}\0{stderr.getvalue()}".encode())
                for path in sorted(out.iterdir()):
                    digest.update(path.name.encode() + b"\0" + path.read_bytes())
                cache[overrides][sub] = (code, digest.hexdigest())
        return cache[overrides]
    return run


@pytest.mark.parametrize("name", PROBES)
def test_setting_changes_some_output(name, outputs):
    """No setting is dead: the probe changes the bytes of at least one
    subcommand's files or of the presets listing."""
    context, raw, _ = PROBES[name]
    before = outputs(context)
    after = outputs((*context, f"{name}={raw}"))
    assert all(code == 0 for code, _ in before.values())
    assert all(code == 0 for code, _ in after.values())
    changed = [sub for sub in SUBCOMMANDS if after[sub] != before[sub]]
    assert changed, f"{name}={raw} changed no output"


def test_setting_every_schema_default_changes_no_output(outputs):
    """Writing every SCHEMA default out changes nothing: --set of each
    default that is not None (preset sections aside) gives every subcommand
    the same exit code, files, presets listing and stderr as no --set."""
    defaults = tuple(f"{section}.{key}={default}" for section, keys in SCHEMA.items()
                     if not section.endswith(":")
                     for key, (default, _, _) in keys.items() if default is not None)
    assert "grid.x_max_um=20.0" in defaults and "grid.step_um=0.1" in defaults
    assert outputs(defaults) == outputs(())
    assert all(code == 0 for code, _ in outputs(()).values())


# Keys that restated a value stated elsewhere, each with a value it took.
REMOVED_KEYS = {
    "wormhole.ellis": "true",  # now wormhole.q = -1
    "condensate.mass_u": "140",  # now species:NAME.mass_u
    "condensate.a_bg_a0": "60",  # now resonance:NAME.a_bg_a0, and so on
    "condensate.width_g": "1",
    "condensate.b_res_g": "900",
    "grid.throat_epsilon": "0.2",  # now grid.r_min_um, and r_min > b0
    "output.dir": "elsewhere",  # now --out
    "output.format": "json",  # now --format
}


@pytest.mark.parametrize("name", REMOVED_KEYS, ids=[f"{name}-set" for name in REMOVED_KEYS])
def test_removed_key_is_one_line_error(tmp_path, capsys, name):
    """A key that restated another input is unknown: exit 1, one stderr
    line naming it (or its section, when the whole section went), no
    output directory."""
    section, key = name.split(".")
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out), "--set", f"{name}={REMOVED_KEYS[name]}"]) == 1
    err = capsys.readouterr().err
    unknown = (f"unknown key {key!r} in [{section}]" if section in SCHEMA
               else f"unknown section {section!r}")
    assert err.startswith(f"wormbec profile1d: error: {unknown}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    ("resonance:Cs.a_bg_a0=60", "resonance:Cs.width_g=1", "resonance:Cs.b_res_g=900"),
    ("resonance:Probe.a_bg_a0=60", "resonance:Probe.width_g=1",
     "resonance:Probe.b_res_g=900", "condensate.resonance=Probe"),
], ids=["species-own-name", "named"])
def test_preset_sections_give_a_custom_condensate(overrides):
    """The preset spellings state the condensate the removed inline keys
    did: a 140 u cesium atom on a 60 a0, 1 G wide resonance at 900 G."""
    spec = load_config(overrides=["species:Cs.mass_u=140", *overrides]).spec
    assert spec == feshbach.CondensateSpec(
        feshbach.AtomSpecies("Cs", 140.0 * feshbach.ATOMIC_MASS),
        feshbach.FeshbachResonance.from_lab_units(60.0, 1.0, 900.0), 1e21)


@pytest.mark.parametrize("species", ["Li", "Na", "K", "Rb"])
def test_species_without_resonance_names_the_fix(tmp_path, capsys, species):
    """A built-in species with no resonance of its own exits 1 with one
    line that names both fixes; either fix then runs."""
    out = tmp_path / "out"
    assert main(["profile1d", "--out", str(out), "--set", f"condensate.species={species}"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists()
    assert "condensate.resonance" in err and "known: Cs" in err
    assert f"[resonance:{species}]" in err
    for fix in (["condensate.resonance=Cs"],
                [f"resonance:{species}.{key}={value}"
                 for key, value in (("a_bg_a0", "60"), ("width_g", "1"), ("b_res_g", "900"))]):
        overrides = [f"condensate.species={species}", *fix]
        assert load_config(overrides=overrides).spec.species is feshbach.SPECIES[species]
        assert main(["profile1d", "--out", str(out), *(f"--set={item}" for item in overrides)]) == 0


def _schema_default(section, key):
    default, parse, _ = SCHEMA[section][key]
    return parse(default)


@pytest.mark.parametrize("function, parameter, setting", [
    (profile1d.sample_profile_1d, "x_max", "grid.x_max_um"),
    (profile1d.sample_profile_1d, "step", "grid.step_um"),
    (profile1d.feasibility_1d, "threshold", "thresholds.slope_per_um"),
    (profile1d.feasibility_1d, "window", "grid.throat_exclusion_um"),
    (profile3d.lab_profiles_3d, "pole_delta", "thresholds.pole_delta"),
    (profile3d.resolution_audit, "factor", "thresholds.resolution_factor"),
    (feshbach.cesium_condensate, "density", "condensate.density_per_m3"),
])
def test_keyword_default_matches_schema(function, parameter, setting):
    """SCHEMA alone states the default of a setting: the kernel parameter
    that takes it has no default of its own, so a call names the value and
    no second copy of SCHEMA's default can drift from it."""
    section, key = setting.split(".")
    assert SCHEMA[section][key][0] is not None   # SCHEMA states the default
    assert inspect.signature(function).parameters[parameter].default is inspect.Parameter.empty


def test_default_condensate_is_cesium():
    assert _schema_default("condensate", "species") == "Cs"
    assert SCHEMA["condensate"]["resonance"][0] is None  # the species' own
    density = _schema_default("condensate", "density_per_m3")
    assert load_config().spec == feshbach.cesium_condensate(density)
