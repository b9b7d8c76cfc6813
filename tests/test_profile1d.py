"""1+1D profile synthesis and the slope feasibility audit."""

import math

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec.exceptions import DomainError
from wormbec.feshbach import (BOHR_RADIUS, cesium_condensate, m_to_bohr,
                              scattering_from_field, sound_speed_from_field,
                              sound_speed_from_scattering)
from wormbec.geometry import ShapeFunction, metric_factor, uniform_grid
from wormbec.profile1d import (feasibility_1d, field_profile_1d, sample_profile_1d,
                               scattering_profile_1d, slope_metric)
from wormbec.tableio import Table, write_table

CS = cesium_condensate(1e21)
CAPABILITY = 0.067  # demonstrated control of a/(100 a0), per micron
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


def test_written_profile_grid_counts(tmp_path):
    """The written table over [-20, 20] at 0.1 has 401 rows, even in x:
    x = 0 once, and each row below it its mirror row with x negated."""
    profile = sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 20.0, 0.1)
    path = write_table(tmp_path / "p", profile, "csv")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 401
    assert [row[0] for row in rows].count("0.0") == 1 and rows[200][0] == "0.0"
    for below, above in zip(rows[:200], rows[:200:-1]):
        assert below == ["-" + above[0], *above[1:]]
    with pytest.raises(DomainError):
        sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 20.0, 0.0)


def test_sample_profile_throat_column():
    """At x=0 the sample is a=0, B=B_res+width, c_s=0."""
    columns = sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 2.0, 0.5).columns
    center = np.flatnonzero(columns["x_um"] == 0.0)
    assert center.tolist() == [0]
    assert columns["a_over_abg"][0] == 0.0
    assert columns["a_over_100a0"][0] == 0.0
    assert columns["B_gauss"][0] == THROAT_FIELD
    assert columns["cs_m_per_s"][0] == 0.0
    assert columns["valid"][0]


def test_sample_profile_reference_shape():
    """q=0.95, b0=1 on [-20, 20]: a mirrored half (even in x) with minimum
    0 at the throat, strictly increasing with |x|, saturating toward
    a_bg/(100 a0) = 9.5."""
    profile = sample_profile_1d(ShapeFunction(1.0, 0.95), CS, 20.0, 0.1)
    assert profile.mirror_at == 0.0
    columns = profile.columns
    assert len(columns["x_um"]) == 201 and columns["x_um"][0] == 0.0
    values = columns["a_over_100a0"].tolist()
    assert values[0] == 0.0
    assert max(values) < 9.5
    assert columns["valid"].all()
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(9.5 * metric_factor(ShapeFunction(1.0, 0.95), 21.0),
                                       rel=1e-12)


def test_sample_profile_flags_broken_signature():
    """q=2 samples have a < 0 away from the throat: flagged, NaN speed."""
    columns = sample_profile_1d(ShapeFunction(1.0, 2.0), CS, 5.0, 1.0).columns
    off_throat = columns["x_um"] != 0.0
    assert off_throat.sum() == 5
    assert (columns["a_over_abg"][off_throat] < 0.0).all()
    assert not columns["valid"][off_throat].any()
    assert np.isnan(columns["cs_m_per_s"][off_throat]).all()
    assert (columns["B_gauss"][off_throat] < THROAT_FIELD).all()


@pytest.mark.parametrize("q", (2.0, 0.95, -0.5, -1.0))
@pytest.mark.parametrize("b0", (0.5, 1.0, 10.0))
def test_sample_profile_columns_equal_scalar_functions(q, b0):
    """Every column is the recipe evaluated on floats point by point, bit
    for bit: the float and the array path of each formula agree."""
    shape = ShapeFunction(b0, q)
    columns = sample_profile_1d(shape, CS, 20.0, 0.01).columns
    assert_same_bits(columns["x_um"], [k * 0.01 for k in range(2001)])
    r = [x + b0 for x in columns["x_um"].tolist()]
    a = [scattering_profile_1d(shape, ri) for ri in r]
    assert_same_bits(columns["r_um"], r)
    assert_same_bits(columns["a_over_abg"], a)
    assert_same_bits(columns["a_over_100a0"],
                     [ai * RES.a_bg / (100.0 * BOHR_RADIUS) for ai in a])
    assert_same_bits(columns["B_gauss"], [field_profile_1d(shape, RES, ri) for ri in r])
    assert columns["valid"].tolist() == [ai >= 0.0 for ai in a]
    assert_same_bits(columns["cs_m_per_s"], [sound_speed_from_scattering(RES.a_bg * ai, CS)
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
    shape = ShapeFunction(1.0, 0.95)
    profile = sample_profile_1d(shape, CS, 20.0, 0.5)
    audit = feasibility_1d(shape, CS, profile, threshold=0.0, window=1.0)
    assert not audit["feasible"]


def test_feasibility_max_matches_finite_difference_oracle():
    shape = ShapeFunction(10.0, -1.0)
    audit = feasibility_1d(shape, CS, sample_profile_1d(shape, CS, 20.0, 0.5),
                           threshold=CAPABILITY, window=1.0)
    xs = [k * 0.5 for k in range(2, 41)]
    oracle = max(abs(fd_slope(shape, RES, x)) for x in xs)
    assert audit["max_slope_per_um"] == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("q", (2.0, 1.0, 0.95, -0.5, -1.0, -299.0))
@pytest.mark.parametrize("b0", (0.5, 1.0, 10.5))
def test_feasibility_equals_slope_metric_scan(q, b0):
    """The audit returns, bit for bit, what a strict > scan of slope_metric
    over the candidates returns: the first maximum and its position (at
    q = 1 every slope is zero, so the first candidate; at q = -299 the far
    slopes underflow to 0). The audit reads only the table's x_um column,
    so it is given that column alone: at q = -299 the field overflows."""
    shape = ShapeFunction(b0, q)
    half = Table({"x_um": uniform_grid(0.0, 20.0, 0.01)}, mirror_at=0.0)
    audit = feasibility_1d(shape, CS, half, threshold=CAPABILITY, window=1.0)
    best, best_at = -math.inf, None
    for x in (k * 0.01 for k in range(2001)):
        if x >= 1.0 and abs(slope_metric(shape, RES, x)) > best:
            best, best_at = abs(slope_metric(shape, RES, x)), x
    assert_same_bits([audit["max_slope_per_um"], audit["slope_at_x_um"]], [best, best_at])
    if q == 1.0:
        assert audit["slope_at_x_um"] == 1.0


def test_feasibility_reference_case():
    """q=0.95, b0=1: the slope at the 10 um evaluation point clears the
    0.067 capability, so a 10 um exclusion window is feasible. Slopes
    nearer the throat exceed the capability (0.229 at 1 um), so the
    1 um window (the CLI default) is not."""
    shape = ShapeFunction(1.0, 0.95)
    profile = sample_profile_1d(shape, CS, 20.0, 0.1)
    wide = feasibility_1d(shape, CS, profile, threshold=CAPABILITY, window=10.0)
    assert wide["feasible"]
    assert wide["max_slope_per_um"] == pytest.approx(0.038, abs=1e-3)
    assert wide["slope_at_x_um"] == pytest.approx(10.0, abs=1e-12)

    narrow = feasibility_1d(shape, CS, profile, threshold=CAPABILITY, window=1.0)
    assert not narrow["feasible"]
    assert narrow["max_slope_per_um"] == pytest.approx(0.2294, abs=1e-3)
    assert narrow["slope_at_x_um"] == pytest.approx(1.0, abs=1e-12)
    assert narrow["threshold_per_um"] == CAPABILITY


def test_profile_csv_layout(tmp_path):
    profile = sample_profile_1d(ShapeFunction(1.0, -1.0), CS, 1.0, 0.5)
    path = write_table(tmp_path / "p", profile, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x_um,r_um,a_over_abg,a_over_100a0,B_gauss,cs_m_per_s,valid"
    assert len(profile.columns["x_um"]) == 3
    assert len(lines) == 1 + 5
    assert lines[3].endswith(",true")
