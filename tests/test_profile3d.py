"""3+1D lab profiles, asymptote detection, and the resolution audit."""

import math

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec.exceptions import DomainError, PoleError
from wormbec.feshbach import (SPECIES, cesium_condensate, healing_length,
                              scattering_from_field, sound_speed_from_field)
from wormbec.gp3d import solve_matching
from wormbec.profile3d import (BLANK_NAN_COLUMNS, CSV_COLUMNS, LabLayout,
                               analytic_asymptote_positions,
                               asymptote_radius, detect_asymptotes,
                               detuning_denominator, feasibility_report_3d,
                               field_profile_3d, lab_profiles_3d,
                               resolution_audit, scattering_profile_3d,
                               sound_speed_profile_3d)
from wormbec.tableio import write_csv

CS = cesium_condensate()
RES = CS.resonance
THROAT_FIELD = RES.b_res + RES.width


def test_sound_speed_profile_values():
    cs0, cs = sound_speed_profile_3d(1.0, 0.01, 1.0)
    assert cs0 == 0.01 and cs == 0.0
    cs0, cs = sound_speed_profile_3d(2.0, 0.01, 1.0)
    assert cs0 == pytest.approx(0.02, rel=1e-15)
    assert cs == pytest.approx(0.01 * math.sqrt(3.0), rel=1e-14)


def test_sound_speed_profile_identity():
    """cs^2 = cs0^2 - v_inf^2 pointwise."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        b0 = rng.uniform(0.1, 5.0)
        v_inf = rng.uniform(1e-3, 0.02)
        r = b0 * (1.0 + rng.uniform(0.0, 20.0))
        cs0, cs = sound_speed_profile_3d(r, v_inf, b0)
        assert cs * cs == pytest.approx(cs0 * cs0 - v_inf * v_inf,
                                        rel=1e-12, abs=1e-20)


def test_field_profile_throat_value():
    assert field_profile_3d(1.0, 0.01, 1.0, CS) == THROAT_FIELD


def test_asymptote_radius_reference_value():
    """Cs background speed 0.0120 m/s, v_inf = 0.01, b0 = 1: r* = 1.563."""
    r_star = asymptote_radius(0.01, 1.0, CS)
    assert r_star == pytest.approx(1.5628, abs=2e-3)


def test_field_profile_branches_around_pole():
    r_star = asymptote_radius(0.01, 1.0, CS)
    before = field_profile_3d(r_star * 0.999, 0.01, 1.0, CS)
    beyond = field_profile_3d(r_star * 1.001, 0.01, 1.0, CS)
    assert before > RES.b_res          # +detuned branch, huge positive field
    assert beyond < RES.b_res          # beyond the pole B drops below B_res
    assert detuning_denominator(r_star * 1.001, 0.01, 1.0, CS) < 0.0


def test_field_profile_pole_error():
    """A radius engineered to make D exactly zero raises."""
    v_inf = 0.01
    ratio = CS.background_sound_speed / v_inf
    b0 = 1.0
    # choose term = ratio**2 exactly: r such that (r-b0)(r+b0)/b0^2 == ratio^2
    r = math.sqrt(ratio * ratio + 1.0)
    if detuning_denominator(r, v_inf, b0, CS) == 0.0:
        with pytest.raises(PoleError):
            field_profile_3d(r, v_inf, b0, CS)
    else:  # rounding moved us off the exact pole: nearby values are finite
        assert abs(field_profile_3d(r, v_inf, b0, CS)) > 1e4


def test_scattering_profile_values():
    assert scattering_profile_3d(1.0, 0.01, 1.0, CS) == 0.0
    r_star = asymptote_radius(0.01, 1.0, CS)
    assert scattering_profile_3d(r_star, 0.01, 1.0, CS) == pytest.approx(1.0, rel=1e-12)


def test_scattering_profile_composition():
    """scattering_from_field(B(r))/a_bg equals the direct expression."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        b0 = rng.uniform(0.3, 5.0)
        v_inf = rng.uniform(0.005, 0.02)
        r = b0 * (1.0 + rng.uniform(1e-3, 3.0))
        denom = detuning_denominator(r, v_inf, b0, CS)
        if abs(denom) < 1e-3:
            continue
        direct = scattering_profile_3d(r, v_inf, b0, CS)
        via_field = scattering_from_field(
            field_profile_3d(r, v_inf, b0, CS), RES) / RES.a_bg
        assert via_field == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_lab_profiles_reference_run():
    """R=5, b0=1, v_inf=0.01, Cs: a/a_bg at the walls is about 24, far
    above the background value."""
    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5)
    assert profile.x[0] == 0.0
    assert profile.a_over_abg[0] == pytest.approx(24.26, abs=0.3)
    assert profile.x[-1] == 10.0
    assert profile.a_over_abg.max() > 1.0


def test_lab_profiles_throat_column():
    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5)
    throat = np.flatnonzero(profile.x == 5.0)
    assert len(throat) == 1
    i = throat[0]
    assert profile.r[i] == 1.0
    assert profile.a_over_abg[i] == 0.0
    assert profile.b_gauss[i] == THROAT_FIELD
    assert profile.cs[i] == 0.0
    assert profile.cs0[i] == 0.01
    assert profile.valid[i] and not profile.near_asymptote[i]


def test_lab_profiles_mirror_symmetry():
    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.125)
    index = {x: i for i, x in enumerate(profile.x.tolist())}
    mirror = [index[10.0 - x] for x in profile.x.tolist()]
    for column in (profile.r, profile.a_over_abg, profile.cs0, profile.cs,
                   profile.b_gauss, profile.near_asymptote):
        assert np.array_equal(column[mirror], column, equal_nan=True)
    assert (profile.vr == 0.01).all()


def test_near_asymptote_samples_carry_no_field():
    layout = LabLayout(R=5.0, b0=1.0)
    # a coarse pole_delta makes several samples near-asymptotic
    profile = lab_profiles_3d(layout, 0.01, CS, 0.125, pole_delta=0.2)
    flagged = profile.near_asymptote
    assert flagged.any()
    assert np.isnan(profile.b_gauss[flagged]).all()
    assert not profile.valid[flagged].any()


@pytest.mark.parametrize("v_inf, step, pole_delta, near_count", [
    (0.01, 0.001, 1e-3, 2),
    (0.009, 0.0625, 0.2, 8),
    (0.02, 0.01, 1e-3, 0),
])
def test_lab_profile_columns_equal_scalar_functions(v_inf, step, pole_delta,
                                                    near_count):
    """Every column is the scalar recipe evaluated point by point, bit for
    bit; near-asymptote samples, and only they, carry a NaN field."""
    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, v_inf, CS, step, pole_delta=pole_delta)
    count = int(math.floor(10.0 / step + 1e-9)) + 1
    assert_same_bits(profile.x, [k * step for k in range(count)])
    r = [layout.radius_at(x) for x in profile.x.tolist()]
    assert_same_bits(profile.r, r)
    speeds = [sound_speed_profile_3d(ri, v_inf, 1.0) for ri in r]
    assert_same_bits(profile.cs0, [cs0 for cs0, _ in speeds])
    assert_same_bits(profile.cs, [cs for _, cs in speeds])
    assert_same_bits(profile.a_over_abg,
                     [scattering_profile_3d(ri, v_inf, 1.0, CS) for ri in r])
    near = [abs(detuning_denominator(ri, v_inf, 1.0, CS)) < pole_delta for ri in r]
    assert sum(near) == near_count
    assert profile.near_asymptote.tolist() == near
    assert profile.valid.tolist() == [not n for n in near]
    assert_same_bits(profile.b_gauss, [math.nan if n else field_profile_3d(ri, v_inf, 1.0, CS)
                                       for ri, n in zip(r, near)])
    assert (profile.vr == v_inf).all()


def test_detected_asymptotes_match_analytic():
    """Sign changes of a/a_bg - 1 bracket the analytic pole positions."""
    layout = LabLayout(R=5.0, b0=1.0)
    for step in (0.5, 0.25, 0.125, 0.0625):
        profile = lab_profiles_3d(layout, 0.01, CS, step)
        detected = detect_asymptotes(profile)
        analytic = analytic_asymptote_positions(layout, 0.01, CS)
        assert len(detected) == len(analytic) == 2
        for found, expected in zip(detected, analytic):
            assert abs(found - expected) <= step


def test_no_asymptote_when_pole_outside_layout():
    """Small enough v_inf pushes r* beyond the branch end."""
    layout = LabLayout(R=0.1, b0=1.0)
    assert analytic_asymptote_positions(layout, 0.01, CS) == []
    profile = lab_profiles_3d(layout, 0.01, CS, 0.01)
    assert detect_asymptotes(profile) == []


def test_composition_closure_sound_speed():
    """Field route reproduces the direct sound-speed profile."""
    rng = np.random.default_rng(37)
    for _ in range(200):
        b0 = rng.uniform(0.3, 3.0)
        v_inf = rng.uniform(0.005, 0.02)
        r = b0 * (1.0 + rng.uniform(0.01, 3.0))
        denom = detuning_denominator(r, v_inf, b0, CS)
        if abs(denom) < 1e-3 or denom < 0.0:
            continue  # no finite field, or beyond the pole
        _, cs_direct = sound_speed_profile_3d(r, v_inf, b0)
        cs_via_field = sound_speed_from_field(
            field_profile_3d(r, v_inf, b0, CS), CS)
        assert cs_via_field == pytest.approx(cs_direct, rel=1e-10, abs=1e-12)


def test_resolution_audit_reference_case():
    """Cs at cs0=0.01 with a 0.4 um step: ratio about 11.8, passes."""
    report = resolution_audit(0.01, SPECIES["Cs"], 0.4)
    assert report.step_ratio == pytest.approx(11.8, abs=0.2)
    assert report.step_ok
    assert report.throat_ok is None
    assert report.passed


def test_resolution_audit_throat_check():
    """Li at cs0=0.02, step 1.5, b0=0.1: the throat is smaller than the
    healing length (0.1 < 0.324), and the step ratio 4.6 misses the
    one-order-of-magnitude rule."""
    report = resolution_audit(0.02, SPECIES["Li"], 1.5, b0=0.1)
    assert report.healing_length_um == pytest.approx(0.324, abs=0.007)
    assert report.step_ratio == pytest.approx(4.6, abs=0.1)
    assert not report.step_ok
    assert report.throat_ok is False
    assert not report.passed


def test_resolution_audit_step_equal_to_healing_length_fails():
    xi_um = healing_length(0.01, SPECIES["Cs"]) * 1e6
    report = resolution_audit(0.01, SPECIES["Cs"], xi_um)
    assert not report.step_ok


def test_resolution_audit_from_solution_and_profile():
    solution = solve_matching(0.01, 1.0, 1.1, 10.0, 0.1)
    from_solution = resolution_audit(solution, SPECIES["Cs"], 0.4)
    assert from_solution.reference_cs0 == pytest.approx(0.011, rel=1e-9)
    assert from_solution.throat_b0_um == 1.0

    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5)
    from_profile = resolution_audit(profile, SPECIES["Cs"], 0.5)
    assert from_profile.reference_cs0 == 0.01  # throat value
    assert from_profile.throat_b0_um == 1.0


def test_feasibility_report_contents():
    layout = LabLayout(R=5.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.125)
    report = feasibility_report_3d(layout, 0.01, CS, profile, 0.125)
    assert report["asymptotes"]["analytic_x_um"] == pytest.approx(
        [5.0 - 0.5628, 5.0 + 0.5628], abs=2e-3)
    assert len(report["asymptotes"]["detected_x_um"]) == 2
    assert report["max_a_over_abg"] == pytest.approx(24.26, abs=0.3)
    assert report["resolution"]["species"] == "Cs"
    assert report["background_sound_speed_m_per_s"] == pytest.approx(0.0120, rel=0.01)


def test_layout_validation():
    with pytest.raises(DomainError):
        LabLayout(R=0.0, b0=1.0)
    with pytest.raises(DomainError):
        LabLayout(R=5.0, b0=-1.0)
    layout = LabLayout(R=5.0, b0=1.0)
    with pytest.raises(DomainError):
        layout.radius_at(10.5)


def test_profile_csv_layout(tmp_path):
    layout = LabLayout(R=1.0, b0=1.0)
    profile = lab_profiles_3d(layout, 0.01, CS, 0.5)
    path = write_csv(tmp_path / "p3.csv", CSV_COLUMNS, profile.columns(),
                     blank_nan=BLANK_NAN_COLUMNS)
    lines = path.read_text().splitlines()
    assert lines[0] == ("x_um,r_um,cs0_m_per_s,cs_m_per_s,B_gauss,"
                        "a_over_abg,vr_m_per_s,valid,near_asymptote")
    assert len(lines) == 1 + len(profile.x)


def test_profile_csv_leaves_near_asymptote_field_empty(tmp_path):
    """The two samples next to the poles have no B_gauss cell; no cell
    anywhere reads nan."""
    profile = lab_profiles_3d(LabLayout(R=5.0, b0=1.0), 0.01, CS, 0.001)
    path = write_csv(tmp_path / "p3.csv", CSV_COLUMNS, profile.columns(),
                     blank_nan=BLANK_NAN_COLUMNS)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    blank = [row for row in rows if row[4] == ""]
    assert len(blank) == 2
    assert all(row[7:] == ["false", "true"] for row in blank)
    assert not any("nan" in row for row in rows)


def test_profile_reaches_far_wall_despite_rounding():
    """0.3/0.1 rounds just below 3, so the last grid point 3 * 0.1 lies an
    ulp past 2R = 0.3; it is sampled rather than rejected."""
    profile = lab_profiles_3d(LabLayout(R=0.15, b0=1.0), 0.01, CS, 0.1)
    assert profile.x.tolist() == [0.0, 0.1, 0.2, 3 * 0.1]
    assert profile.r[-1] == pytest.approx(1.15, rel=1e-15)
