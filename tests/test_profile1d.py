"""1+1D profile synthesis and the slope feasibility audit."""

import math

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec.exceptions import DomainError
from wormbec.feshbach import (BOHR_RADIUS, cesium_condensate, m_to_bohr,
                              scattering_from_field, sound_speed_from_field,
                              sound_speed_from_scattering)
from wormbec.geometry import ShapeFunction, metric_factor
from wormbec.profile1d import (CSV_COLUMNS, SLOPE_CAPABILITY_PER_UM,
                               feasibility_1d, field_profile_1d,
                               lab_coordinate_1d, lab_coordinate_inverse,
                               sample_profile_1d, scattering_profile_1d,
                               slope_metric, symmetric_grid)
from wormbec.tableio import write_csv

CS = cesium_condensate()
RES = CS.resonance
THROAT_FIELD = RES.b_res + RES.width  # 47.923 G


def fd_slope(shape, res, x, h=1e-4):
    """Centered finite difference of a/(100 a0) along |x|."""
    scale = m_to_bohr(res.a_bg) / 100.0
    up = scattering_profile_1d(shape, abs(x) + h + shape.b0) * scale
    dn = scattering_profile_1d(shape, abs(x) - h + shape.b0) * scale
    return (up - dn) / (2.0 * h)


def test_field_profile_throat_value():
    """B at the throat is B_res + width for every exponent."""
    for q in (-1.0, -0.5, 0.5, 0.95, 1.0, 2.0):
        shape = ShapeFunction(1.0, q)
        assert field_profile_1d(shape, RES, 1.0) == THROAT_FIELD
    assert THROAT_FIELD == pytest.approx(47.923, abs=1e-12)


def test_field_profile_ellis_value():
    """q=-1, b0=1, r=2: B = B_res + 4*width = 48.394 G."""
    b = field_profile_1d(ShapeFunction(1.0, -1.0), RES, 2.0)
    assert b == pytest.approx(48.394, abs=1e-12)


def test_field_profile_constant_for_degenerate_throat():
    shape = ShapeFunction(1.0, 1.0)
    for r in (1.0, 2.0, 17.0, 400.0):
        assert field_profile_1d(shape, RES, r) == THROAT_FIELD


def test_scattering_profile_values():
    shape = ShapeFunction(1.0, -1.0)
    assert scattering_profile_1d(shape, 1.0) == 0.0
    assert scattering_profile_1d(shape, 2.0) == pytest.approx(0.75, rel=1e-15)
    assert scattering_profile_1d(ShapeFunction(1.0, 0.5), 1e14) == pytest.approx(1.0, rel=1e-6)


def test_lab_coordinate_roundtrip():
    assert lab_coordinate_1d(1.0, 1.0) == 0.0
    assert lab_coordinate_1d(11.0, 1.0, side=1) == 10.0
    assert lab_coordinate_inverse(-10.0, 1.0) == (11.0, -1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        b0 = rng.uniform(0.1, 10.0)
        r = b0 + rng.uniform(0.0, 50.0)
        side = 1 if rng.uniform() < 0.5 else -1
        x = lab_coordinate_1d(r, b0, side)
        r_back, side_back = lab_coordinate_inverse(x, b0)
        assert r_back == pytest.approx(r, rel=1e-15)
        if x != 0.0:
            assert side_back == side


def test_slope_reference_point():
    """q=0.95, b0=1, x=10 with the Cs background: 0.038 per um."""
    slope = slope_metric(ShapeFunction(1.0, 0.95), RES, 10.0)
    assert slope == pytest.approx(0.038, abs=1e-3)


def test_slope_matches_finite_difference():
    shape = ShapeFunction(1.0, 0.95)
    expected = fd_slope(shape, RES, 10.0)
    assert slope_metric(shape, RES, 10.0) == pytest.approx(expected, rel=1e-6)


def test_slope_zero_for_degenerate_throat():
    shape = ShapeFunction(1.0, 1.0)
    for x in (0.0, 1.0, 10.0):
        assert slope_metric(shape, RES, x) == 0.0


def test_slope_throat_limit_is_finite():
    """At x=0 the one-sided limit (1-q)/b0 * a_bg/(100 a0) is reported."""
    shape = ShapeFunction(2.0, 0.5)
    expected = 0.5 / 2.0 * m_to_bohr(RES.a_bg) / 100.0
    assert slope_metric(shape, RES, 0.0) == pytest.approx(expected, rel=1e-12)


def test_symmetric_grid_counts():
    grid = symmetric_grid(20.0, 0.1)
    assert len(grid) == 401
    assert grid[200] == 0.0
    assert grid[0] == -grid[-1]
    with pytest.raises(DomainError):
        symmetric_grid(20.0, 0.0)


def test_sample_profile_throat_column():
    """At x=0 the sample is a=0, B=B_res+width, c_s=0."""
    profile = sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 2.0, 0.5)
    center = np.flatnonzero(profile.x == 0.0)
    assert len(center) == 1
    i = center[0]
    assert profile.a_over_abg[i] == 0.0
    assert profile.a_over_100a0[i] == 0.0
    assert profile.b_gauss[i] == THROAT_FIELD
    assert profile.c_s[i] == 0.0
    assert profile.valid[i]


def test_sample_profile_reference_shape():
    """q=0.95, b0=1 on [-20, 20]: minimum 0 at the throat, even in x,
    strictly increasing with |x|, saturating toward a_bg/(100 a0) = 9.5."""
    profile = sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 20.0, 0.1)
    assert len(profile.x) == 401
    xs, values = profile.x.tolist(), profile.a_over_100a0.tolist()
    by_x = dict(zip(xs, values))
    assert by_x[0.0] == 0.0
    for x, value, valid in zip(xs, values, profile.valid.tolist()):
        assert by_x[-x] == value
        assert value < 9.5
        assert valid
    values = profile.a_over_100a0[profile.x >= 0.0].tolist()
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(9.5 * metric_factor(ShapeFunction(1.0, 0.95), 21.0),
                                       rel=1e-12)


def test_sample_profile_flags_broken_signature():
    """q=2 samples have a < 0 away from the throat: flagged, NaN speed."""
    profile = sample_profile_1d(ShapeFunction(1.0, 2.0), CS, 5.0, 1.0)
    off_throat = profile.x != 0.0
    assert (profile.a_over_abg[off_throat] < 0.0).all()
    assert not profile.valid[off_throat].any()
    assert np.isnan(profile.c_s[off_throat]).all()
    assert (profile.b_gauss[off_throat] < THROAT_FIELD).all()


@pytest.mark.parametrize("q", (2.0, 0.95, -0.5, -1.0))
@pytest.mark.parametrize("b0", (0.5, 1.0, 10.0))
def test_sample_profile_columns_equal_scalar_functions(q, b0):
    """Every column is the scalar recipe evaluated point by point, bit for bit."""
    shape = ShapeFunction(b0, q)
    profile = sample_profile_1d(shape, CS, 20.0, 0.01)
    assert_same_bits(profile.x, [k * 0.01 for k in range(-2000, 2001)])
    r = [abs(x) + b0 for x in profile.x.tolist()]
    a = [scattering_profile_1d(shape, ri) for ri in r]
    assert_same_bits(profile.r, r)
    assert_same_bits(profile.a_over_abg, a)
    assert_same_bits(profile.a_over_100a0,
                     [ai * RES.a_bg / (100.0 * BOHR_RADIUS) for ai in a])
    assert_same_bits(profile.b_gauss, [field_profile_1d(shape, RES, ri) for ri in r])
    assert profile.valid.tolist() == [ai >= 0.0 for ai in a]
    assert_same_bits(profile.c_s, [sound_speed_from_scattering(RES.a_bg * ai, CS)
                                   if ai >= 0.0 else math.nan for ai in a])


def test_profile_consistency_with_field_route():
    """scattering_from_field(B(r))/a_bg equals the direct profile, and the
    field-route sound speed realizes the metric factor."""
    rng = np.random.default_rng(5)
    cs0 = CS.background_sound_speed
    for _ in range(300):
        b0 = rng.uniform(0.3, 10.0)
        q = rng.uniform(-2.0, 0.99)
        shape = ShapeFunction(b0, q)
        r = b0 + rng.uniform(1e-2, 40.0)
        direct = scattering_profile_1d(shape, r)
        via_field = scattering_from_field(field_profile_1d(shape, RES, r), RES) / RES.a_bg
        assert via_field == pytest.approx(direct, rel=1e-12, abs=1e-12)
        speed = sound_speed_from_field(field_profile_1d(shape, RES, r), CS)
        assert speed ** 2 / cs0 ** 2 == pytest.approx(metric_factor(shape, r),
                                                      rel=1e-10, abs=1e-12)


def test_feasibility_threshold_zero_always_fails():
    audit = feasibility_1d(ShapeFunction(1.0, 0.95), CS, 20.0, 0.5, threshold=0.0)
    assert not audit.feasible


def test_feasibility_max_matches_finite_difference_oracle():
    shape = ShapeFunction(10.0, -1.0)
    audit = feasibility_1d(shape, CS, 20.0, 0.5, window=1.0)
    xs = [x for x in symmetric_grid(20.0, 0.5) if x >= 1.0]
    oracle = max(abs(fd_slope(shape, RES, x)) for x in xs)
    assert audit.max_slope == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q", (2.0, 1.0, 0.95, -0.5, -1.0, -299.0))
@pytest.mark.parametrize("b0", (0.5, 1.0, 10.5))
def test_feasibility_equals_slope_metric_scan(q, b0):
    """The audit returns, bit for bit, what a strict > scan of slope_metric
    over the candidates returns: the first maximum and its position (at
    q = 1 every slope is zero, so the first candidate; at q = -299 and
    b0 = 10.5 the slopes overflow to inf and then NaN, which never wins)."""
    shape = ShapeFunction(b0, q)
    audit = feasibility_1d(shape, CS, 20.0, 0.01, window=1.0)
    best, best_at = -math.inf, None
    for x in symmetric_grid(20.0, 0.01).tolist():
        if x >= 1.0 and abs(slope_metric(shape, RES, x)) > best:
            best, best_at = abs(slope_metric(shape, RES, x)), x
    assert_same_bits([audit.max_slope, audit.slope_at], [best, best_at])
    if q == 1.0:
        assert audit.slope_at == 1.0


def test_feasibility_reference_case():
    """q=0.95, b0=1: the slope at the 10 um evaluation point clears the
    0.067 capability, so a 10 um exclusion window is feasible. Slopes
    nearer the throat exceed the capability (0.229 at 1 um), so the
    1 um default window is not."""
    shape = ShapeFunction(1.0, 0.95)
    wide = feasibility_1d(shape, CS, 20.0, 0.1, window=10.0)
    assert wide.feasible
    assert wide.max_slope == pytest.approx(0.038, abs=1e-3)
    assert wide.slope_at == pytest.approx(10.0, abs=1e-12)

    narrow = feasibility_1d(shape, CS, 20.0, 0.1, window=1.0)
    assert not narrow.feasible
    assert narrow.max_slope == pytest.approx(0.2294, abs=1e-3)
    assert narrow.slope_at == pytest.approx(1.0, abs=1e-12)
    assert narrow.threshold == SLOPE_CAPABILITY_PER_UM


def test_profile_csv_layout(tmp_path):
    profile = sample_profile_1d(ShapeFunction(1.0, -1.0), CS, 1.0, 0.5)
    path = write_csv(tmp_path / "p.csv", CSV_COLUMNS, profile.columns())
    lines = path.read_text().splitlines()
    assert lines[0] == "x_um,r_um,a_over_abg,a_over_100a0,B_gauss,cs_m_per_s,valid"
    assert len(lines) == 1 + len(profile.x)
    assert lines[3].endswith(",true")
