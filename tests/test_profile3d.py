"""3+1D lab profiles, asymptote detection, and the resolution audit."""

import json
import math

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec.cli import main
from wormbec.exceptions import DomainError, PoleError
from wormbec.feshbach import (HBAR, SPECIES, cesium_condensate, healing_length,
                              scattering_from_field, sound_speed_from_field)
from wormbec.geometry import ShapeFunction
from wormbec.gp3d import zero_order_solution
from wormbec.profile1d import sample_profile_1d
from wormbec.profile3d import (LabLayout, analytic_asymptote_positions,
                               asymptote_radius, detect_asymptotes,
                               field_profile_3d, lab_profiles_3d,
                               resolution_audit, scattering_profile_3d,
                               sound_speed_profile_3d)
from wormbec.tableio import write_table

CS = cesium_condensate(1e21)
RES = CS.resonance
ELLIS = ShapeFunction(1.0, -1.0)   # b(r) = b0**2 / r at b0 = 1
THROAT_FIELD = RES.b_res + RES.width


def cli_report(tmp_path, v_inf, step, pole_delta=1e-3):
    """The report of ``wormbec profile3d`` on ELLIS at R = 5, with CS and a
    resolution factor of 10."""
    out = tmp_path / "cli"
    settings = ["layout.R_um=5", "wormhole.b0_um=1", "wormhole.q=-1",
                "condensate.species=Cs", "condensate.density_per_m3=1e21",
                "thresholds.resolution_factor=10", f"thresholds.pole_delta={pole_delta!r}",
                f"observer.v_inf_m_per_s={v_inf!r}", f"grid.step_um={step!r}"]
    assert main(["profile3d", "--out", str(out), *(f"--set={item}" for item in settings)]) == 0
    report, = out.glob("report_*.json")
    return json.loads(report.read_text())


def test_sound_speed_profile_values():
    cs0, cs = sound_speed_profile_3d(1.0, 0.01, ELLIS)
    assert cs0 == 0.01 and cs == 0.0
    cs0, cs = sound_speed_profile_3d(2.0, 0.01, ELLIS)
    assert cs0 == pytest.approx(0.02, rel=1e-15)
    assert cs == pytest.approx(0.01 * math.sqrt(3.0), rel=1e-14)


def test_sound_speed_profile_identity():
    """cs^2 = cs0^2 - v_inf^2 pointwise."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        b0 = rng.uniform(0.1, 5.0)
        v_inf = rng.uniform(1e-3, 0.02)
        r = b0 * (1.0 + rng.uniform(0.0, 20.0))
        cs0, cs = sound_speed_profile_3d(r, v_inf, ShapeFunction(b0, -1.0))
        assert cs * cs == pytest.approx(cs0 * cs0 - v_inf * v_inf,
                                        rel=1e-12, abs=1e-20)


def test_field_profile_throat_value():
    assert field_profile_3d(1.0, 0.01, ELLIS, CS) == THROAT_FIELD


def test_asymptote_radius_reference_value():
    """Cs background speed 0.0120 m/s, v_inf = 0.01, b0 = 1: r* = 1.563."""
    r_star = asymptote_radius(0.01, ELLIS, CS)
    assert r_star == pytest.approx(1.5628, abs=2e-3)


def test_field_profile_branches_around_pole():
    r_star = asymptote_radius(0.01, ELLIS, CS)
    before = field_profile_3d(r_star * 0.999, 0.01, ELLIS, CS)
    beyond = field_profile_3d(r_star * 1.001, 0.01, ELLIS, CS)
    assert before > RES.b_res          # +detuned branch, huge positive field
    assert beyond < RES.b_res          # beyond the pole B drops below B_res
    assert 1.0 - scattering_profile_3d(r_star * 1.001, 0.01, ELLIS, CS) < 0.0


def test_field_profile_pole_error():
    """A radius engineered to make D exactly zero raises."""
    v_inf = 0.01
    ratio = CS.background_sound_speed / v_inf
    b0 = 1.0
    # choose term = ratio**2 exactly: r such that (r-b0)(r+b0)/b0^2 == ratio^2
    r = math.sqrt(ratio * ratio + 1.0)
    shape = ShapeFunction(b0, -1.0)
    if 1.0 - scattering_profile_3d(r, v_inf, shape, CS) == 0.0:
        with pytest.raises(PoleError):
            field_profile_3d(r, v_inf, shape, CS)
    else:  # rounding moved us off the exact pole: nearby values are finite
        assert abs(field_profile_3d(r, v_inf, shape, CS)) > 1e4


def test_scattering_profile_values():
    assert scattering_profile_3d(1.0, 0.01, ELLIS, CS) == 0.0
    r_star = asymptote_radius(0.01, ELLIS, CS)
    assert scattering_profile_3d(r_star, 0.01, ELLIS, CS) == pytest.approx(1.0, rel=1e-12)


def test_scattering_profile_composition():
    """scattering_from_field(B(r))/a_bg equals the direct expression."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        b0 = rng.uniform(0.3, 5.0)
        v_inf = rng.uniform(0.005, 0.02)
        r = b0 * (1.0 + rng.uniform(1e-3, 3.0))
        shape = ShapeFunction(b0, -1.0)
        denom = 1.0 - scattering_profile_3d(r, v_inf, shape, CS)
        if abs(denom) < 1e-3:
            continue
        direct = scattering_profile_3d(r, v_inf, shape, CS)
        via_field = scattering_from_field(field_profile_3d(r, v_inf, shape, CS), RES) / RES.a_bg
        assert via_field == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_lab_profiles_reference_run():
    """R=5, b0=1, v_inf=0.01, Cs: the half from the throat out, mirrored at
    x = R; a/a_bg at the wall is about 24, far above the background value."""
    layout = LabLayout(R=5.0, shape=ELLIS)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5, pole_delta=1e-3)
    columns = profile.columns
    assert profile.mirror_at == 5.0
    assert columns["x_um"][0] == 0.0
    assert columns["x_um"][-1] == 5.0
    assert columns["a_over_abg"][-1] == pytest.approx(24.26, abs=0.3)
    assert columns["a_over_abg"].max() > 1.0


def test_lab_profiles_throat_column(tmp_path):
    """Row 0 of the half is the throat; whether or not R/step is an integer,
    the written table has exactly one row at r = b0, at x = R: a = 0,
    c_s = 0, B = B_res + width and cs0 = v_inf."""
    for step in (0.5, 0.3, 0.7):
        profile = lab_profiles_3d(LabLayout(R=5.0, shape=ELLIS), 0.01, CS, step,
                                  pole_delta=1e-3)
        columns = profile.columns
        assert columns["x_um"][0] == 0.0 and not columns["near_asymptote"][0]
        lines = write_table(tmp_path / "p3", profile, "csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        throat = [row for row in rows if float(row["r_um"]) == 1.0]
        assert len(throat) == 1
        assert {name: float(throat[0][name]) for name in header[:-1]} == {
            "x_um": 5.0, "r_um": 1.0, "cs0_m_per_s": 0.01, "cs_m_per_s": 0.0,
            "B_gauss": THROAT_FIELD, "a_over_abg": 0.0}
        assert throat[0]["near_asymptote"] == "false"


def test_lab_profiles_mirror_symmetry(tmp_path):
    """At steps 0.125, 0.1, 0.3 and 0.001 every row below the throat equals
    its mirror row cell for cell, apart from x_um, in CSV and JSON; x_um is
    R -+ d, the lab coordinate, and the table has 2 floor(R/step) + 1 rows."""
    for step in (0.125, 0.1, 0.3, 0.001):
        profile = lab_profiles_3d(LabLayout(R=5.0, shape=ELLIS), 0.01, CS, step,
                                  pole_delta=1e-3)
        d = profile.columns["x_um"].tolist()
        assert len(d) == math.floor(5.0 / step + 1e-9) + 1
        csv_rows = [line.split(",") for line in
                    write_table(tmp_path / "p3", profile, "csv").read_text().splitlines()[1:]]
        json_rows = json.loads(write_table(tmp_path / "p3", profile, "json").read_text())["rows"]
        for rows in (csv_rows, json_rows):
            n = len(rows)
            assert n == 2 * len(d) - 1
            assert all(rows[k][1:] == rows[n - 1 - k][1:] for k in range(n))
            assert [float(row[0]) for row in rows] == ([5.0 - x for x in d[:0:-1]]
                                                       + [5.0 + x for x in d])


def test_near_asymptote_samples_carry_no_field():
    layout = LabLayout(R=5.0, shape=ELLIS)
    # a coarse pole_delta makes several samples near-asymptotic
    columns = lab_profiles_3d(layout, 0.01, CS, 0.125, pole_delta=0.2).columns
    flagged = columns["near_asymptote"]
    assert flagged.any()
    assert np.isnan(columns["B_gauss"][flagged]).all()


@pytest.mark.parametrize("v_inf, step, pole_delta, near_count", [
    (0.01, 0.001, 1e-3, 2),
    (0.009, 0.0625, 0.2, 8),
    (0.02, 0.01, 1e-3, 0),
])
def test_lab_profile_columns_equal_scalar_functions(tmp_path, v_inf, step, pole_delta,
                                                    near_count):
    """Every column of the half is the recipe evaluated on floats point by
    point, bit for bit (the float and the array path of each formula
    agree); near-asymptote samples, and only they, carry a NaN field. The
    report counts them in the written table, the throat row once."""
    layout = LabLayout(R=5.0, shape=ELLIS)
    profile = lab_profiles_3d(layout, v_inf, CS, step, pole_delta=pole_delta)
    columns = profile.columns
    count = int(math.floor(5.0 / step + 1e-9)) + 1
    assert_same_bits(columns["x_um"], [k * step for k in range(count)])
    r = [d + layout.shape.b0 for d in columns["x_um"].tolist()]
    assert_same_bits(columns["r_um"], r)
    speeds = [sound_speed_profile_3d(ri, v_inf, ELLIS) for ri in r]
    assert_same_bits(columns["cs0_m_per_s"], [cs0 for cs0, _ in speeds])
    assert_same_bits(columns["cs_m_per_s"], [cs for _, cs in speeds])
    assert_same_bits(columns["a_over_abg"],
                     [scattering_profile_3d(ri, v_inf, ELLIS, CS) for ri in r])
    near = [abs(1.0 - scattering_profile_3d(ri, v_inf, ELLIS, CS)) < pole_delta for ri in r]
    assert 2 * sum(near) - near[0] == near_count
    assert columns["near_asymptote"].tolist() == near
    assert_same_bits(columns["B_gauss"], [math.nan if n else
                                          field_profile_3d(ri, v_inf, ELLIS, CS)
                                          for ri, n in zip(r, near)])
    assert cli_report(tmp_path, v_inf, step, pole_delta)["near_asymptote_samples"] == near_count


def _ulps(values, reference):
    """|value - reference| in units of the double spacing at the reference
    (so a zero reference admits only an exact zero)."""
    error = [float(abs(value - ref)) for value, ref in zip(values.tolist(), reference)]
    return np.array(error) / np.spacing(np.abs([float(ref) for ref in reference]))


@pytest.mark.parametrize("q, b0, v_inf", [
    (-1.0, 1.0, 0.01), (0.95, 10.0, 0.009), (-0.5, 0.5, 0.02),
    (2.0, 10.0, 0.005), (-2.0, 3.0, 1e3),
])
def test_profiles_match_40_digit_reference(q, b0, v_inf):
    """On CLI grids (1D: x in [-20, 20] at 0.1; 3D: R = 5 at 0.01) the 1D
    a/a_bg, B and c_s and the 3D cs0, cs, a/a_bg and B lie within 4 ulp of
    40-digit mpmath evaluated at the sampled radii (3D at q = -1). The 3D B is referred
    to the sampled a/a_bg: near the pole 1/(1 - a/a_bg) amplifies the
    rounding of a/a_bg, which is not an error of B."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        width, b_res, a_bg = map(mp.mpf, (RES.width, RES.b_res, RES.a_bg))
        b0m, v = mp.mpf(b0), mp.mpf(v_inf)
        profile = sample_profile_1d(ShapeFunction(b0, q), CS, 20.0, 0.1).columns
        ratio = [mp.mpf(r) / b0m for r in profile["r_um"].tolist()]
        a = [1 - t ** (q - 1) for t in ratio]
        speed = mp.mpf(HBAR) / mp.mpf(CS.species.mass) * mp.sqrt(4 * mp.pi * mp.mpf(CS.density))
        valid = profile["valid"]
        checks = [(profile["a_over_abg"], a),
                  (profile["B_gauss"], [t ** (1 - q) * width + b_res for t in ratio]),
                  (profile["cs_m_per_s"][valid], [speed * mp.sqrt(a_bg * ai)
                                                  for ai, ok in zip(a, valid) if ok])]
        lab = lab_profiles_3d(LabLayout(R=5.0, shape=ShapeFunction(b0, -1.0)), v_inf, CS, 0.01,
                              pole_delta=1e-3).columns
        r_3d = lab["r_um"].tolist()
        term = [(mp.mpf(r) / b0m) ** 2 - 1 for r in r_3d]
        scale = (v / mp.mpf(CS.background_sound_speed)) ** 2
        field = ~lab["near_asymptote"]
        checks += [(lab["cs0_m_per_s"], [v * mp.mpf(r) / b0m for r in r_3d]),
                   (lab["cs_m_per_s"], [v * mp.sqrt(t) for t in term]),
                   (lab["a_over_abg"], [scale * t for t in term]),
                   (lab["B_gauss"][field], [width / (1 - mp.mpf(ai)) + b_res
                                            for ai in lab["a_over_abg"][field].tolist()])]
        for values, reference in checks:
            assert _ulps(values, reference).max() <= 4.0


def test_detected_asymptotes_match_analytic():
    """Sign changes of a/a_bg - 1 bracket the analytic pole positions."""
    layout = LabLayout(R=5.0, shape=ELLIS)
    for step in (0.5, 0.25, 0.125, 0.0625):
        profile = lab_profiles_3d(layout, 0.01, CS, step, pole_delta=1e-3)
        detected = detect_asymptotes(profile)
        analytic = analytic_asymptote_positions(layout, 0.01, CS)
        assert len(detected) == len(analytic) == 2
        for found, expected in zip(detected, analytic):
            assert abs(found - expected) <= step


def test_no_asymptote_when_pole_outside_layout():
    """Small enough v_inf pushes r* beyond the branch end."""
    layout = LabLayout(R=0.1, shape=ELLIS)
    assert analytic_asymptote_positions(layout, 0.01, CS) == []
    profile = lab_profiles_3d(layout, 0.01, CS, 0.01, pole_delta=1e-3)
    assert detect_asymptotes(profile) == []


def test_composition_closure_sound_speed():
    """Field route reproduces the direct sound-speed profile."""
    rng = np.random.default_rng(37)
    for _ in range(200):
        b0 = rng.uniform(0.3, 3.0)
        v_inf = rng.uniform(0.005, 0.02)
        r = b0 * (1.0 + rng.uniform(0.01, 3.0))
        shape = ShapeFunction(b0, -1.0)
        denom = 1.0 - scattering_profile_3d(r, v_inf, shape, CS)
        if abs(denom) < 1e-3 or denom < 0.0:
            continue  # no finite field, or beyond the pole
        _, cs_direct = sound_speed_profile_3d(r, v_inf, shape)
        cs_via_field = sound_speed_from_field(field_profile_3d(r, v_inf, shape, CS), CS)
        assert cs_via_field == pytest.approx(cs_direct, rel=1e-10, abs=1e-12)


def test_resolution_audit_reference_case():
    """Cs at cs0=0.01 with a 0.4 um step: ratio about 11.8, passes; so does
    the b0 = 1 throat, some 30 healing lengths wide."""
    report = resolution_audit(0.01, SPECIES["Cs"], 0.4, shape=ELLIS, factor=10.0)
    assert report["step_ratio"] == pytest.approx(11.8, abs=0.2)
    assert report["step_ok"]
    assert report["throat_ok"] is True
    assert report["passed"]


def test_resolution_audit_throat_check():
    """Li at cs0=0.02, step 1.5, b0=0.1: the throat is smaller than the
    healing length (0.1 < 0.324), and the step ratio 4.6 misses the
    one-order-of-magnitude rule."""
    report = resolution_audit(0.02, SPECIES["Li"], 1.5, shape=ShapeFunction(0.1, -1.0),
                              factor=10.0)
    assert report["healing_length_um"] == pytest.approx(0.324, abs=0.007)
    assert report["step_ratio"] == pytest.approx(4.6, abs=0.1)
    assert not report["step_ok"]
    assert report["throat_ok"] is False
    assert not report["passed"]


def test_resolution_audit_step_equal_to_healing_length_fails():
    xi_um = healing_length(0.01, SPECIES["Cs"]) * 1e6
    report = resolution_audit(0.01, SPECIES["Cs"], xi_um, shape=ELLIS, factor=10.0)
    assert not report["step_ok"]


@pytest.mark.parametrize("step", [0.0, -0.5])
def test_resolution_audit_needs_a_positive_step(step):
    with pytest.raises(DomainError, match=f"step must be positive, got {step!r}"):
        resolution_audit(0.01, SPECIES["Cs"], step, shape=ELLIS, factor=10.0)


@pytest.mark.parametrize("v_inf", [0.0, -0.01])
def test_lab_profiles_need_a_positive_observer_speed(v_inf):
    with pytest.raises(DomainError, match=f"v_inf must be positive, got {v_inf!r}"):
        lab_profiles_3d(LabLayout(R=5.0, shape=ELLIS), v_inf, CS, 0.5, pole_delta=1e-3)


def test_feasibility_report_contents(tmp_path):
    report = cli_report(tmp_path, 0.01, 0.125)
    assert report["asymptotes"]["analytic_x_um"] == pytest.approx(
        [5.0 - 0.5628, 5.0 + 0.5628], abs=2e-3)
    assert len(report["asymptotes"]["detected_x_um"]) == 2
    assert report["max_a_over_abg"] == pytest.approx(24.26, abs=0.3)
    assert report["resolution"]["species"] == "Cs"
    assert report["resolution"]["reference_cs0_m_per_s"] == 0.01  # throat value
    assert report["resolution"]["throat_b0_um"] == 1.0
    assert report["background_sound_speed_m_per_s"] == pytest.approx(0.0120, rel=0.01)


@pytest.mark.parametrize("step", [0.3, 0.7])
def test_resolution_reference_is_the_throat_sound_speed(tmp_path, step):
    """The audit's reference cs0 is the throat's, v_inf exactly, also where
    R/step is not an integer; so the healing length is the throat's."""
    resolution = cli_report(tmp_path, 0.05, step)["resolution"]
    assert resolution["reference_cs0_m_per_s"] == 0.05
    assert resolution["healing_length_um"] == healing_length(0.05, SPECIES["Cs"]) * 1e6


def test_layout_validation():
    with pytest.raises(DomainError):
        LabLayout(R=0.0, shape=ELLIS)
    with pytest.raises(DomainError, match="2R finite"):  # the far wall's x = 2R overflows
        LabLayout(R=1e308, shape=ELLIS)
    with pytest.raises(DomainError):
        LabLayout(R=5.0, shape=ShapeFunction(-1.0, -1.0))


def test_profile_csv_layout(tmp_path):
    layout = LabLayout(R=1.0, shape=ELLIS)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5, pole_delta=1e-3)
    path = write_table(tmp_path / "p3", profile, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ("x_um,r_um,cs0_m_per_s,cs_m_per_s,B_gauss,"
                        "a_over_abg,near_asymptote")
    assert len(lines) == 1 + 2 * len(profile.columns["x_um"]) - 1 == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.5", "1.0", "1.5", "2.0"]


def test_profile_csv_leaves_near_asymptote_field_empty(tmp_path):
    """The two samples next to the poles have no B_gauss cell; no cell
    anywhere reads nan."""
    profile = lab_profiles_3d(LabLayout(R=5.0, shape=ELLIS), 0.01, CS, 0.001, pole_delta=1e-3)
    path = write_table(tmp_path / "p3", profile, "csv")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    blank = [row for row in rows if row[4] == ""]
    assert len(blank) == 2
    assert all(row[6:] == ["true"] for row in blank)
    assert not any("nan" in row for row in rows)


def test_profile_reaches_far_wall_despite_rounding(tmp_path):
    """0.3/0.1 rounds just below 3, so the last grid point 3 * 0.1 lies an
    ulp past R = 0.3; it is sampled rather than rejected, on both walls."""
    profile = lab_profiles_3d(LabLayout(R=0.3, shape=ELLIS), 0.01, CS, 0.1, pole_delta=1e-3)
    assert profile.columns["x_um"].tolist() == [0.0, 0.1, 0.2, 3 * 0.1]
    assert profile.columns["r_um"][-1] == pytest.approx(1.3, rel=1e-15)
    lines = write_table(tmp_path / "p3", profile, "csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in (lines[0], lines[-1])] == [0.3 - 3 * 0.1,
                                                                            0.3 + 3 * 0.1]


SHAPE_QS = (-3.0, -1.0, 0.0, 0.5, 0.9)


@pytest.mark.parametrize("v_inf", [0.005, 0.01, 0.02])
@pytest.mark.parametrize("q", SHAPE_QS)
def test_power_law_profile_formulas_equal_mpmath(q, v_inf):
    """cs = sqrt(cs0^2 - v_inf^2) with cs0 = v_inf (r/b0)**((1-q)/2),
    a/a_bg = (cs/c~_s)^2 and the pole radius where a/a_bg = 1, against 40
    digits at the samples of an R = 5, b0 = 3 layout: cs0 within 4 ulp, cs
    and a/a_bg within 6 ulp (the power of r/b0 raises the rounding of r/b0
    to the power (1-q)/2 or 1-q), and r* within 4 ulp."""
    mp = pytest.importorskip("mpmath")
    shape = ShapeFunction(3.0, q)
    columns = lab_profiles_3d(LabLayout(R=5.0, shape=shape), v_inf, CS, 0.01,
                              pole_delta=1e-3).columns
    r = columns["r_um"]
    assert_same_bits(columns["cs_m_per_s"], sound_speed_profile_3d(r, v_inf, shape)[1])
    with mp.workdps(40):
        p, v, c_bg = 1 - mp.mpf(q), mp.mpf(v_inf), mp.mpf(CS.background_sound_speed)
        cs0 = [v * (mp.mpf(ri) / 3) ** (p / 2) for ri in r.tolist()]
        cs = [mp.sqrt(x * x - v * v) for x in cs0]
        r_star = mp.findroot(lambda x: v * v * ((x / 3) ** p - 1) - c_bg ** 2, mp.mpf(4))
        assert _ulps(columns["cs0_m_per_s"], cs0).max() <= 4.0
        assert _ulps(columns["cs_m_per_s"], cs).max() <= 6.0
        assert _ulps(columns["a_over_abg"], [(x / c_bg) ** 2 for x in cs]).max() <= 6.0
        assert _ulps(np.array([asymptote_radius(v_inf, shape, CS)]), [r_star]).max() <= 4.0


@pytest.mark.parametrize("b0", [0.37, 1.0, 12.5])
@pytest.mark.parametrize("q", SHAPE_QS)
def test_lab_flow_is_the_zero_order_matching_solution(q, b0):
    """The lab column cs0 is gp3d's small-velocity solution at the sampled
    radii, bit for bit, and so is sound_speed_profile_3d's cs0."""
    shape = ShapeFunction(b0, q)
    columns = lab_profiles_3d(LabLayout(R=5.0, shape=shape), 0.01, CS, 0.01,
                              pole_delta=1e-3).columns
    cs0 = zero_order_solution(columns["r_um"], 0.01, shape)
    assert_same_bits(columns["cs0_m_per_s"], cs0)
    assert_same_bits(sound_speed_profile_3d(columns["r_um"], 0.01, shape)[0], cs0)


def test_lab_grid_collapsing_onto_one_radius_is_domain_error(tmp_path):
    """Two neighbours with one radius (the step is below the spacing of the
    doubles at b0 = 1e20) raise; a step beyond R leaves the throat row
    alone, one row at x = R."""
    with pytest.raises(DomainError, match=r"grid points 0 and 1 both round to 1e\+20: "
                                          r"step 0\.1 is below its ulp"):
        lab_profiles_3d(LabLayout(R=5.0, shape=ShapeFunction(1e20, -1.0)), 0.01, CS, 0.1,
                        pole_delta=1e-3)
    profile = lab_profiles_3d(LabLayout(R=0.25, shape=ELLIS), 0.01, CS, 0.5, pole_delta=1e-3)
    assert profile.columns["x_um"].tolist() == [0.0]
    assert profile.columns["r_um"].tolist() == [1.0]
    lines = write_table(tmp_path / "p3", profile, "csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.25,1.0,0.01,0.0,")


@pytest.mark.parametrize("q", [-1.0, 0.5])
def test_lab_profiles_are_scale_covariant(q):
    """Scaling b0, R and the step by 2**k (k = -1000 .. 1000 in steps of
    10) scales x_um and r_um by exactly 2**k and leaves the other columns
    bit for bit as they were: the profile sees lengths only through r/b0."""
    def sample(scale):
        layout = LabLayout(R=5.0 * scale, shape=ShapeFunction(scale, q))
        return lab_profiles_3d(layout, 0.01, CS, 0.1 * scale, pole_delta=1e-3).columns

    reference = sample(1.0)
    for k in range(-1000, 1001, 10):
        columns = sample(2.0 ** k)
        for name, column in columns.items():
            scale = 2.0 ** k if name in ("x_um", "r_um") else 1.0
            assert_same_bits(column, reference[name] * scale)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_lab_profile_needs_q_below_one(q):
    """A degenerate or signature-broken throat is a DomainError naming q."""
    shape = ShapeFunction(1.0, q)
    for call in (lambda: LabLayout(R=5.0, shape=shape),
                 lambda: sound_speed_profile_3d(2.0, 0.01, shape),
                 lambda: scattering_profile_3d(2.0, 0.01, shape, CS),
                 lambda: field_profile_3d(2.0, 0.01, shape, CS),
                 lambda: asymptote_radius(0.01, shape, CS)):
        with pytest.raises(DomainError, match=f"q < 1, got q = {q!r}"):
            call()
