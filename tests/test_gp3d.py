"""3+1D machinery: flow-adapted time offset and metric, congruence check,
condensate metric, and the exact matching solver."""

import math
import tracemalloc

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec import gp3d
from wormbec.exceptions import ConvergenceError, DomainError, PoleError
from wormbec.feshbach import cesium_condensate, sound_speed_from_scattering
from wormbec.geometry import ShapeFunction, metric_factor
from wormbec.gp3d import (LIGHT_SPEED, bec_metric,
                          fold_radius, gp_metric, gp_time_offset,
                          matching_residuals,
                          metric_congruence_check, solve_matching,
                          zero_order_solution)
from wormbec.profile1d import field_profile_1d, slope_metric
from wormbec.profile3d import (field_profile_3d, scattering_profile_3d,
                               sound_speed_profile_3d)

CS = cesium_condensate(1e21)
BLOCK = gp3d._KERNEL_BLOCK   # radii solved at once
ELLIS = ShapeFunction(1.0, -1.0)   # b(r) = b0**2 / r at b0 = 1


def riemann_offset(b0, energy, r, panels=10**6):
    """Midpoint sum for the time-offset integral in u = sqrt(r'-b0)."""
    u_max = np.sqrt(r - b0)
    du = u_max / panels
    u = (np.arange(panels) + 0.5) * du
    f = 2.0 * np.sqrt(energy**2 - 1.0) * (b0 + u * u) / np.sqrt(u * u + 2.0 * b0)
    return float(f.sum() * du)


def test_gp_time_offset_closed_form():
    """b0=1, E=sqrt(2), r=2: sqrt(E^2-1)*sqrt(r^2-b0^2) = sqrt(3)."""
    value = gp_time_offset(2.0, math.sqrt(2.0), ELLIS)
    assert value == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert gp_time_offset(1.0, math.sqrt(2.0), ELLIS) == 0.0


def test_gp_time_offset_riemann_oracle():
    for b0, energy, r in ((1.0, math.sqrt(2.0), 2.0), (0.5, 1.3, 7.0), (3.0, 2.0, 3.2)):
        value = gp_time_offset(r, energy, ShapeFunction(b0, -1.0))
        assert value == pytest.approx(riemann_offset(b0, energy, r), rel=1e-8)


@pytest.mark.parametrize("energy", [0.999, 0.0, -2.0])
def test_gp_time_offset_needs_energy_of_at_least_one(energy):
    """An observer bound below E = 1 per unit mass never falls in from
    infinity: a DomainError naming the energy."""
    with pytest.raises(DomainError, match=f"energy per unit mass must be >= 1, got {energy!r}"):
        gp_time_offset(2.0, energy, ELLIS)


def test_gp_metric_reference_point():
    """b0=1, gamma=1.25, c_ref=1, r=2."""
    g_tt, g_tr, g_rr = gp_metric(2.0, 1.25, 1.0, ELLIS)
    assert g_tt == pytest.approx(-0.64, rel=1e-15)
    assert g_rr == pytest.approx(1.0 / (1.5625 * 0.75), rel=1e-15)
    assert g_tr == pytest.approx(0.64 * math.sqrt(0.75), rel=1e-14)


def test_gp_metric_free_fall_is_diagonal():
    """gamma = 1 recovers the static diagonal metric exactly."""
    g_tt, g_tr, g_rr = gp_metric(2.0, 1.0, 3.0, ELLIS)
    assert g_tr == 0.0
    assert g_tt == -9.0
    assert g_rr == pytest.approx(1.0 / 0.75, rel=1e-15)


def test_gp_metric_signature_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b0 = rng.uniform(0.1, 5.0)
        r = b0 * (1.0 + rng.uniform(1e-4, 50.0))
        gamma = 1.0 + rng.uniform(0.0, 10.0)
        g_tt, g_tr, g_rr = gp_metric(r, gamma, 1.0, ShapeFunction(b0, -1.0))
        assert g_tt < 0.0
        assert g_tt * g_rr - g_tr ** 2 < 0.0


def test_gp_metric_pole_at_throat():
    with pytest.raises(PoleError):
        gp_metric(1.0, 1.25, 1.0, ELLIS)
    with pytest.raises(DomainError):
        gp_metric(2.0, 0.5, 1.0, ELLIS)


def test_congruence_free_fall_exact():
    assert metric_congruence_check(2.0, 1.0, 1.0, ELLIS) == 0.0


def test_congruence_reference_point():
    assert metric_congruence_check(2.0, 1.25, 1.0, ELLIS) < 1e-12


def test_congruence_random_sweep():
    """The coordinate change reproduces the diagonal metric everywhere."""
    rng = np.random.default_rng(19)
    for _ in range(1000):
        b0 = rng.uniform(0.1, 5.0)
        r = b0 * (1.0 + rng.uniform(1e-6, 100.0))
        gamma = 1.0 + rng.uniform(1e-6, 9.0)
        c_ref = 1.0 if rng.uniform() < 0.5 else LIGHT_SPEED
        assert metric_congruence_check(r, gamma, c_ref, ShapeFunction(b0, -1.0)) < 1e-12


def test_bec_metric_no_flow_is_diagonal():
    g_tt, g_tr, _ = bec_metric(3.0, 0.01, 0.0)
    assert g_tr == 0.0
    assert g_tt == pytest.approx(-1e-4, rel=1e-15)


def test_bec_metric_sound_at_light_speed_is_flat():
    _, g_tr, g_rr = bec_metric(3.0, LIGHT_SPEED, 0.35 * LIGHT_SPEED)
    assert g_tr == 0.0
    assert g_rr == 1.0


def test_bec_metric_duplicate_implementation_oracle():
    """Components match an independent outer-product construction.

    Run at order-one fractions of c: in the eta + v v form, g_tt is the
    remainder of -1 + (1 - (cs/c)^2) and underflows to zero at lab scale
    where (cs/c)^2 < eps, so only O(1) ratios exercise the algebra.
    """
    rng = np.random.default_rng(23)
    c = LIGHT_SPEED
    for _ in range(200):
        c_s = rng.uniform(0.05, 0.95) * c
        v_r = rng.uniform(-0.5, 0.5) * c
        g_tt, g_tr, g_rr = bec_metric(2.0, c_s, v_r)
        # eta + (1 - cs^2/c^2) v_mu v_nu / c^2 with v_mu = (-c, v_r)
        v_cov = np.array([-c, v_r])
        block = (np.diag([-1.0, 1.0])
                 + (1.0 - (c_s / c) ** 2) * np.outer(v_cov, v_cov) / c ** 2)
        # line-element components: tt scaled by c^2, tr by c
        assert g_tt == pytest.approx(block[0, 0] * c * c, rel=1e-12)
        assert g_tr == pytest.approx(block[0, 1] * c, rel=1e-12, abs=1e-14)
        assert g_rr == pytest.approx(block[1, 1], rel=1e-12)


@pytest.mark.parametrize("c_s", [0.0, -0.01, np.array([0.01, 0.0]), np.array([0.01, -0.01])],
                         ids=["zero", "negative", "array-zero", "array-negative"])
def test_bec_metric_needs_a_positive_sound_speed(c_s):
    """A sound speed at or below zero, as a float or anywhere in an array,
    is a DomainError naming the smallest one."""
    smallest = float(np.min(c_s))
    with pytest.raises(DomainError, match=f"sound speed must be positive, got {smallest!r}"):
        bec_metric(2.0, c_s, 0.01)


def test_bec_metric_lab_scale_components():
    """At lab scale the direct formulas stay exact: g_tt = -cs^2."""
    g_tt, g_tr, g_rr = bec_metric(2.0, 0.012, 0.01)
    assert g_tt == -0.012 ** 2
    assert g_tr == pytest.approx(-0.01, rel=1e-15)
    assert g_rr == pytest.approx(1.0, rel=1e-15)


def test_matching_residuals_zero_order_is_tiny():
    """The small-velocity limit satisfies the exact system to rounding."""
    for r, b0, v_inf in ((2.0, 1.0, 0.01), (1.5, 1.0, 0.009), (9.0, 3.0, 0.01)):
        shape = ShapeFunction(b0, -1.0)
        cs0 = zero_order_solution(r, v_inf, shape)
        res1, res2 = matching_residuals(r, cs0, v_inf, v_inf, shape)
        assert abs(res1) < 1e-13
        assert abs(res2) < 1e-13


def test_matching_residual2_far_limit():
    cs0 = zero_order_solution(1e8, 0.01, ELLIS)
    _, res2 = matching_residuals(1e8, cs0, 0.01, 0.01, ELLIS)
    assert abs(res2) < 1e-10


def test_matching_residual2_sign_flips_across_solution():
    cs0 = zero_order_solution(2.0, 0.01, ELLIS)
    _, res2_up = matching_residuals(2.0, cs0 * 1.1, 0.01, 0.01, ELLIS)
    _, res2_dn = matching_residuals(2.0, cs0 * 0.9, 0.01, 0.01, ELLIS)
    assert res2_up > 0.0 > res2_dn


def test_matching_residuals_domain():
    with pytest.raises(DomainError):
        matching_residuals(2.0, 0.005, 0.01, 0.01, ELLIS)  # cs0 <= v_inf
    with pytest.raises(PoleError):
        matching_residuals(1.0, 0.02, 0.01, 0.01, ELLIS)   # throat


def test_zero_order_solution_values():
    assert zero_order_solution(1.0, 0.01, ELLIS) == 0.01
    assert zero_order_solution(6.0, 0.01, ShapeFunction(3.0, -1.0)) == pytest.approx(
        0.02, rel=1e-15)


def test_solver_agrees_with_zero_order():
    """Exact solutions sit on the small-velocity limit to solver tolerance."""
    for v_inf, b0 in ((0.01, 1.0), (0.009, 1.0)):
        shape = ShapeFunction(b0, -1.0)
        solution, statistics = solve_matching(v_inf, shape, 1.1 * b0, 10.0 * b0, 0.1 * b0)
        columns = solution.columns
        assert bool(columns["converged"].all())
        assert float(np.abs(columns["res1"]).max()) < 1e-12
        assert float(np.abs(columns["res2"]).max()) < 1e-12
        deviation = statistics["max_rel_deviation_from_zero_order"]
        assert deviation["cs0"] < 1e-9
        assert deviation["vr"] < 1e-9
        assert bool((columns["cs0_m_per_s"] > v_inf).all())


def mpmath_matching_root(r, v_inf, b0, start, q=-1.0):
    """(cs0, v_r) solving the residual system of the shape (b0, q) to 40
    digits, found by mpmath.findroot from ``start``."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r, v_inf, b0, c = map(mp.mpf, (r, v_inf, b0, LIGHT_SPEED))
    factor = 1 - (b0 / r) ** (1 - mp.mpf(q))

    def residuals(cs0, vr):
        gs = 1 / mp.sqrt(1 - (v_inf / cs0) ** 2)
        return [mp.sqrt((gs * gs - 1) / factor) / gs - vr * (gs / cs0 - cs0 / (gs * c * c)),
                1 / (gs * gs * factor) - 1 - (1 - (cs0 / (c * gs)) ** 2) * (vr / c) ** 2]

    return mp.findroot(residuals, tuple(map(mp.mpf, start)), tol=mp.mpf(10) ** -35)


def speed(v, c):
    """The v_inf whose fraction of LIGHT_SPEED is v/c: v itself when c is
    LIGHT_SPEED. Both residuals depend on the speeds only through v_inf/c."""
    return v * (LIGHT_SPEED / c)


# (v, c) pairs: v_inf = speed(v, c), so the (v_inf/c)**2 of a pair is (v/c)**2
@pytest.mark.parametrize("v, c", [
    (1e3, LIGHT_SPEED), (3e7, LIGHT_SPEED), (1e8, LIGHT_SPEED),
    (0.01, 0.1), (0.01, 0.05), (0.01, 1.0), (0.01, LIGHT_SPEED),
])
def test_solve_matching_equals_mpmath_root(v, c):
    """Every converged radius carries the root of the residual system to
    1e-13 relative, near light speed and at O(1) corrections alike."""
    v_inf = speed(v, c)
    columns = solve_matching(v_inf, ELLIS, 1.101, 4.9, 0.19)[0].columns
    ok = columns["converged"]
    assert ok.any()
    for r, cs0, vr in zip(columns["r_um"][ok].tolist(), columns["cs0_m_per_s"][ok].tolist(),
                          columns["vr_m_per_s"][ok].tolist()):
        cs0_ref, vr_ref = mpmath_matching_root(r, v_inf, 1.0, (cs0, vr))
        assert cs0 == pytest.approx(float(cs0_ref), rel=1e-13)
        assert vr == pytest.approx(float(vr_ref), rel=1e-13)


@pytest.mark.parametrize("v, c, converged", [
    (1e3, LIGHT_SPEED, 179), (3e7, LIGHT_SPEED, 79),
    (1e8, LIGHT_SPEED, 12), (0.01, 0.1, 79), (0.01, 0.05, 30),
    (0.01, 1.0, 179),
])
def test_converged_exactly_up_to_the_fold(v, c, converged):
    """A radius converges exactly when it lies at or below the fold radius,
    where the discriminant vanishes; beyond it the values stay finite.

    At v/c = 0.1 and 0.2 a grid radius lies on the fold (5.05 and 2.6), 1-2
    ulp above the rounded r_fold, where the discriminant rounds below 0:
    the count pins it as flagged, and every radius is compared with r_fold."""
    v_inf = speed(v, c)
    columns = solve_matching(v_inf, ELLIS, 1.1, 10.0, 0.05)[0].columns
    assert int(columns["converged"].sum()) == converged
    r_fold = fold_radius(v_inf, ELLIS)
    assert columns["converged"].tolist() == (columns["r_um"] <= r_fold).tolist()
    for column in columns.values():
        assert np.isfinite(column.astype(float)).all()


SHAPE_QS = (-3.0, -1.0, 0.0, 0.5, 0.9)
# steep exponents at each v_inf whose default grid reaches inside the fold
STEEP_FOLDS = [(-10.0, 0.01), (-10.0, 3e7), (-30.0, 0.01), (-30.0, 3e7),
               (-100.0, 0.01), (-300.0, 0.01)]


@pytest.mark.parametrize("q, v_inf", [(q, v) for q in SHAPE_QS for v in (0.01, 3e7, 1e8)]
                         + STEEP_FOLDS)
def test_power_law_solve_converges_up_to_the_general_fold(q, v_inf):
    """For each shape exponent, every radius up to the fold
    b0 ((c^2 + v^2)/(2 v c))**(2/(1-q)) converges and every radius past it
    is flagged, and the converged cs0 (every tenth radius) and v^r are the
    40-digit root of the residual system. For q >= -3 both residuals are
    also below criterion 5's 1e-12 inside the fold; at q <= -10 they are
    not (res1 to 1.2e-8 at q = -30), though the root is right."""
    shape = ShapeFunction(1.0, q)
    columns = solve_matching(v_inf, shape, 1.1, 10.0, 0.05)[0].columns
    inside = columns["r_um"] <= fold_radius(v_inf, shape)
    assert inside.any()
    assert columns["converged"].tolist() == inside.tolist()
    if q in SHAPE_QS:
        assert np.abs(columns["res1"][inside]).max() < 1e-12
        assert np.abs(columns["res2"][inside]).max() < 1e-12
    for r, cs0, vr in list(zip(columns["r_um"][inside].tolist(),
                               columns["cs0_m_per_s"][inside].tolist(),
                               columns["vr_m_per_s"][inside].tolist()))[::10]:
        cs0_ref, vr_ref = mpmath_matching_root(r, v_inf, 1.0, (cs0, vr), q)
        assert cs0 == pytest.approx(float(cs0_ref), rel=1e-13)
        assert vr == pytest.approx(float(vr_ref), rel=1e-13)


@pytest.mark.parametrize("q", [0.99, 0.999, 0.9999, 0.99999])
def test_solve_converges_inside_the_fold_as_q_nears_1(q):
    """As q nears 1, f = 1 - (b0/r)**(1-q) shrinks and rounding lifts the
    residuals past 1e-12 (res1 to 1.1e-7 at q = 0.99999), though the root
    is right: every radius inside the fold converges, and cs0 and v^r
    (every tenth radius) are the 40-digit root of the residual system."""
    shape = ShapeFunction(1.0, q)
    columns = solve_matching(0.01, shape, 1.1, 10.0, 0.05)[0].columns
    assert (columns["r_um"] <= fold_radius(0.01, shape)).all()
    assert columns["converged"].all()
    for r, cs0, vr in list(zip(columns["r_um"].tolist(), columns["cs0_m_per_s"].tolist(),
                               columns["vr_m_per_s"].tolist()))[::10]:
        cs0_ref, vr_ref = mpmath_matching_root(r, 0.01, 1.0, (cs0, vr), q)
        assert cs0 == pytest.approx(float(cs0_ref), rel=1e-13)
        assert vr == pytest.approx(float(vr_ref), rel=1e-13)


@pytest.mark.parametrize("v_inf", [0.01, 3e7, 1e8])
@pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, 1e-12])
def test_solve_converges_near_the_throat(d, v_inf):
    """At r = b0 (1 + d) the dt*dr residual magnifies the rounding of cs0
    by about f**-1.5 (res1 to 1.7e-5 at d = 1e-9), yet the radius
    converges, with cs0 and v^r the 40-digit root."""
    r = 1.0 + d
    columns = solve_matching(v_inf, ELLIS, r, r, 1.0)[0].columns
    assert columns["converged"].tolist() == [True]
    cs0, vr = columns["cs0_m_per_s"][0], columns["vr_m_per_s"][0]
    cs0_ref, vr_ref = mpmath_matching_root(r, v_inf, 1.0, (cs0, vr))
    assert cs0 == pytest.approx(float(cs0_ref), rel=1e-13)
    assert vr == pytest.approx(float(vr_ref), rel=1e-13)


def test_grid_of_radii_whose_cs0_rounds_to_v_inf_names_that_cause():
    """One ulp off the throat at q = 0.9, c_s0 rounds to v_inf and the radius
    is flagged; a grid of only that radius lies inside the fold, so the
    whole-grid error names c_s0 rounding to v_inf and not the fold."""
    r = 1.0000000000000002
    with pytest.raises(ConvergenceError, match="c_s0 rounds to v_inf = 0.01") as failure:
        solve_matching(0.01, ShapeFunction(1.0, 0.9), r, r, 1.0)
    assert "beyond the fold" not in str(failure.value)


@pytest.mark.parametrize("v, c", [
    (0.01, LIGHT_SPEED), (3e7, LIGHT_SPEED), (1e8, LIGHT_SPEED), (0.01, 0.05),
])
@pytest.mark.parametrize("q", SHAPE_QS)
def test_fold_and_zero_order_closed_forms_equal_mpmath(q, v, c):
    """The fold radius is the 40-digit root of the discriminant
    g (1-k)^2 - 4 f k, to (8 + ln(r_fold/b0)) units of 2**-52: a rounding
    of the exponent 2/(1-q) moves r_fold by ln(r_fold/b0) times it (ln 470
    at q = 0.9, v_inf = 0.01). The small-velocity limit is the cs0 of
    gamma_s = 1/sqrt(f), i.e. v_inf / sqrt(g), at radii out to 1e4 b0."""
    mp = pytest.importorskip("mpmath")
    b0, v_inf = 3.0, speed(v, c)
    shape = ShapeFunction(b0, q)
    with mp.workdps(40):
        p, k = 1 - mp.mpf(q), (mp.mpf(v_inf) / mp.mpf(LIGHT_SPEED)) ** 2

        def excess(log_r):   # D / (4 f k) in log r: the fold lies out to 1e205 b0
            g = (b0 / mp.exp(log_r)) ** p
            return g * (1 - k) ** 2 / (4 * (1 - g) * k) - 1

        r_fold = fold_radius(v_inf, shape)
        root = mp.exp(mp.findroot(excess, mp.log(r_fold)))
        assert r_fold == pytest.approx(float(root), rel=2.2e-16 * (8 + math.log(r_fold / b0)))
        radii = b0 * np.geomspace(1.0, 1e4, 41)
        cs0 = zero_order_solution(radii, v_inf, shape)
        reference = [v_inf / mp.sqrt((b0 / mp.mpf(r)) ** p) for r in radii.tolist()]
        assert cs0.tolist() == pytest.approx([float(x) for x in reference], rel=4e-16)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_flow_adapted_construction_needs_q_below_one(q):
    """A degenerate or signature-broken throat is a DomainError naming q."""
    shape = ShapeFunction(1.0, q)
    for call in (lambda: solve_matching(0.01, shape, 1.1, 10.0, 0.05),
                 lambda: fold_radius(0.01, shape),
                 lambda: zero_order_solution(2.0, 0.01, shape),
                 lambda: gp_metric(2.0, 1.25, 1.0, shape),
                 lambda: gp_time_offset(2.0, 1.5, shape)):
        with pytest.raises(DomainError, match=f"q < 1, got q = {q!r}"):
            call()


def test_time_offset_is_energy_term_times_proper_distance():
    """The time-offset integrand is sqrt(E^2 - 1) times the proper-distance
    one, at every exponent: against a 40-digit quadrature."""
    mp = pytest.importorskip("mpmath")
    for q in SHAPE_QS:
        shape = ShapeFunction(2.0, q)
        with mp.workdps(30):
            p = 1 - mp.mpf(q)
            # r = b0 + u^2 removes the throat's inverse square root
            exact = mp.sqrt(mp.mpf(1.5) ** 2 - 1) * mp.quad(
                lambda u: 2 * u / mp.sqrt(-mp.expm1(-p * mp.log1p(u * u / 2))),
                [0, 1, mp.sqrt(5)])
        assert gp_time_offset(7.0, 1.5, shape) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("r, v, c", [
    (5.0, 1e8, 2.998e8),   # near light speed
    (8.15, 0.01, 0.05),    # O(1) corrections
])
def test_newton_stops_where_gamma_s_would_leave_its_domain(r, v, c):
    """These radii, where a finite-difference Newton step once left the
    domain gamma_s > 1, lie past the fold: on a grid that reaches them they
    come back flagged unconverged with finite values, and a one-point grid
    at r raises ConvergenceError naming the fold."""
    v_inf = speed(v, c)
    columns = solve_matching(v_inf, ELLIS, 1.5, r, r - 1.5)[0].columns
    assert columns["r_um"].tolist() == [1.5, r]
    assert columns["converged"].tolist() == [True, False]
    for name in ("cs0_m_per_s", "vr_m_per_s", "res1", "res2"):
        assert np.isfinite(columns[name]).all()
    r_fold = fold_radius(v_inf, ELLIS)
    with pytest.raises(ConvergenceError, match=f"fold at r = {r_fold!r}"):
        solve_matching(v_inf, ELLIS, r, r, 1.0)


def test_radius_where_no_vr_exists_stays_finite():
    """Past the fold at v_inf = 3e7 m/s the clamped root equals k at this
    radius, so no v^r balances the cross terms: the radius comes back
    flagged with finite values instead of failing the grid."""
    r = 7.101467683736689
    columns = solve_matching(3e7, ELLIS, 1.5, r, r - 1.5)[0].columns
    assert columns["r_um"].tolist() == [1.5, r]
    assert columns["converged"].tolist() == [True, False]
    for name in ("cs0_m_per_s", "vr_m_per_s", "res1", "res2"):
        assert np.isfinite(columns[name]).all()


def _parts(value):
    return value if isinstance(value, tuple) else (value,)


def test_matching_residuals_arrays_match_floats():
    """Each formula gives for an array, bit for bit, the floats it gives
    for the elements one by one: matching_residuals, the two metrics, and
    the 1D and 3D profile formulas the kernels call."""
    radii = np.array([1.2, 2.0, 7.5])
    cs0 = speed(np.array([0.013, 0.021, 0.07]), 0.1)
    vr = speed(np.array([0.011, 0.0099, 0.01]), 0.1)
    v_inf = speed(0.01, 0.1)
    res1, res2 = matching_residuals(radii, cs0, vr, v_inf, ELLIS)
    pointwise = [matching_residuals(*args, v_inf, ELLIS)
                 for args in zip(radii.tolist(), cs0.tolist(), vr.tolist())]
    assert all(type(value) is float for pair in pointwise for value in pair)
    assert_same_bits(res1, [pair[0] for pair in pointwise])
    assert_same_bits(res2, [pair[1] for pair in pointwise])
    with pytest.raises(DomainError):
        matching_residuals(radii, cs0 - speed(0.005, 0.1), vr, v_inf, ELLIS)   # one cs0 <= v_inf

    spec = CS
    res = spec.resonance
    shape = ShapeFunction(1.5, -0.7)
    ellis = ShapeFunction(1.5, -1.0)
    formulas = [
        lambda r: gp_metric(r, 1.25, 0.02, ELLIS),
        lambda r: bec_metric(r, speed(0.001, 0.1) * r, speed(0.01, 0.1) * r),
        lambda r: metric_factor(shape, r),
        lambda r: field_profile_1d(shape, res, r),
        lambda r: slope_metric(shape, res, r - 1.5),
        lambda r: sound_speed_from_scattering(1e-8 * r, spec),
        lambda r: sound_speed_profile_3d(r, 0.01, ellis),
        lambda r: scattering_profile_3d(r, 0.01, ellis, spec),
        lambda r: 1.0 - scattering_profile_3d(r, 0.01, ellis, spec),
        lambda r: field_profile_3d(r, 0.01, ellis, spec),
        lambda r: gp_metric(r, 1.25, 0.02, ShapeFunction(1.0, -0.7)),
        lambda r: zero_order_solution(r, 0.01, shape),
        lambda r: sound_speed_profile_3d(r, 0.01, shape),
        lambda r: field_profile_3d(r, 0.01, shape, spec),
    ]
    radii = np.array([1.5, 2.25, 9.1, 21.5])
    for formula in formulas:
        columns = _parts(formula(radii))
        pointwise = [_parts(formula(r)) for r in radii.tolist()]
        assert all(type(value) is float for parts in pointwise for value in parts)
        for k, column in enumerate(columns):
            assert_same_bits(column, [parts[k] for parts in pointwise])


def test_solver_grid_preconditions():
    with pytest.raises(DomainError):
        solve_matching(0.01, ELLIS, 1.0, 10.0, 0.1)   # starts on the throat
    with pytest.raises(DomainError):
        solve_matching(0.01, ELLIS, 1.1, 10.0, -0.1)
    with pytest.raises(DomainError):
        solve_matching(-0.01, ELLIS, 1.1, 10.0, 0.1)
    with pytest.raises(DomainError, match="v_inf < c"):
        solve_matching(LIGHT_SPEED, ELLIS, 1.1, 10.0, 0.1)
    with pytest.raises(DomainError, match="outside the throat"):
        solve_matching(0.01, ELLIS, 0.5, 10.0, 0.1)


def whole_grid(monkeypatch, compute):
    """COMPUTE() with every radius of the grid solved in one block."""
    with monkeypatch.context() as patch:
        patch.setattr(gp3d, "_KERNEL_BLOCK", 2**62)
        return compute()


def blocks_of(monkeypatch, compute):
    """The radius count of each block that COMPUTE() solves."""
    seen = []
    real = gp3d._closed_form

    def recording(radii, *args):
        seen.append(len(radii))
        return real(radii, *args)

    with monkeypatch.context() as patch:
        patch.setattr(gp3d, "_closed_form", recording)
        compute()
    return seen


# (v_inf, b0, r_min, r_max, step, radii): grids of one radius and of one
# block's size and either side of it; the grid_100x size; and two that
# cross the fold at 1e8 m/s, after radius 1132 at b0 = 1 and after radius
# 748 at b0 = 3, where radius 1500 (r = 6.70402737488122) has a clamped
# root equal to k, so the gap == 0 clamp keeps v^r finite.
BLOCKED_GRIDS = [
    (0.01, 1.0, 1.1, 1.1, 0.0005, 1),
    (0.01, 1.0, 1.1, 1.1 + (BLOCK - 2) * 0.0005, 0.0005, BLOCK - 1),
    (0.01, 1.0, 1.1, 1.1 + (BLOCK - 1) * 0.0005, 0.0005, BLOCK),
    (0.01, 1.0, 1.1, 1.1 + BLOCK * 0.0005, 0.0005, BLOCK + 1),
    (0.01, 1.0, 1.1, 10.0, 0.0005, 17801),
    (1e8, 1.0, 1.1, 10.0, 0.0005, 17801),
    (1e8, 3.0, 3.3, 9.0, 0.002269351583254147, 2512),
]


@pytest.mark.parametrize("v_inf, b0, r_min, r_max, step, radii", BLOCKED_GRIDS)
def test_blocked_solve_keeps_the_bits(monkeypatch, v_inf, b0, r_min, r_max, step, radii):
    """Solving the radii BLOCK at a time gives bit for bit the table
    of one block over the whole grid, converged flags included."""
    def solve():
        return solve_matching(v_inf, ShapeFunction(b0, -1.0), r_min, r_max, step)[0].columns

    assert blocks_of(monkeypatch, solve) == [
        min(BLOCK, radii - start) for start in range(0, radii, BLOCK)]
    columns, reference = solve(), whole_grid(monkeypatch, solve)
    assert list(columns) == list(reference)
    assert columns["r_um"].size == radii
    for name, column in columns.items():
        assert column.dtype == reference[name].dtype
        assert_same_bits(column, reference[name])
    if v_inf == 1e8:
        assert 0 < int(columns["converged"].sum()) < radii
    if b0 == 3.0:
        assert columns["r_um"][1500] == 6.70402737488122
        assert not columns["converged"][1500]
        assert np.isfinite(columns["vr_m_per_s"][1500])


def assert_whole_grid_error(monkeypatch, v_inf, shape, error):
    """A 17801-radius grid that fails fails with the error text of one
    block over the whole grid; returns that text."""
    def message():
        with pytest.raises(error) as failure:
            solve_matching(v_inf, shape, 1.1 * shape.b0, 10.0 * shape.b0, 0.0005 * shape.b0)
        return str(failure.value)

    assert message() == whole_grid(monkeypatch, message)
    return message()


@pytest.mark.parametrize("v_inf, b0, error", [
    (2e8, 1.0, ConvergenceError),        # past the fold at every radius
    (5e-324, 1.0, FloatingPointError),   # cs0 clamps to 1e-323: gamma_s/cs0 overflows
])
def test_blocked_solve_raises_the_whole_grid_error(monkeypatch, v_inf, b0, error):
    """A 17801-radius grid that fails fails with the error text of one
    block over the whole grid."""
    message = assert_whole_grid_error(monkeypatch, v_inf, ShapeFunction(b0, -1.0), error)
    if error is ConvergenceError:
        assert message == (
            f"matching solve failed at every radius in [{1.1!r}, {10.0!r}]: "
            f"no real solution beyond the fold at r = {fold_radius(2e8, ELLIS)!r}")


@pytest.mark.parametrize("q", [-2000.0, -1e300])
def test_blocked_solve_past_a_steep_fold_raises_the_whole_grid_error(monkeypatch, q):
    """g = (b0/r)**(1-q) underflows at the far radii (q = -2000) or at every
    radius (q = -1e300), where it is floored so that the flagged cells stay
    finite: every radius lies past the fold, and the ConvergenceError naming
    it has the text of one block over the whole grid."""
    shape = ShapeFunction(1.0, q)
    message = assert_whole_grid_error(monkeypatch, 0.01, shape, ConvergenceError)
    fold = fold_radius(0.01, shape)
    assert message.endswith(f"no real solution beyond the fold at r = {fold!r}")


@pytest.mark.parametrize("v_inf, q, converged", [
    (0.01, -440.0, 1), (1e-100, -1000.0, 7),
])
def test_radii_where_g_squared_underflows_are_flagged(v_inf, q, converged):
    """Where g * g underflows (g below 1.5e-154), D = g (g (1-k)^2 - 4 f k)
    loses its digits: those radii are flagged with finite cells, whether
    they lie past the fold (q = -440) or, at an observer speed below 2e-69
    m/s, inside it; the other radii inside the fold converge, and a grid of only
    flagged radii inside the fold names both causes."""
    shape = ShapeFunction(1.0, q)
    columns = solve_matching(v_inf, shape, 1.1, 10.0, 0.05)[0].columns
    g = (1.0 / columns["r_um"]) ** (1.0 - q)
    assert columns["converged"].tolist() == (
        (columns["r_um"] <= fold_radius(v_inf, shape)) & (g > gp3d._G_FLOOR)).tolist()
    assert int(columns["converged"].sum()) == converged
    for column in columns.values():
        assert np.isfinite(column.astype(float)).all()
    if v_inf < 2e-69:
        assert (1.0 / 1.5) ** (1.0 - q) < gp3d._G_FLOOR and fold_radius(v_inf, shape) > 1.5
        with pytest.raises(ConvergenceError, match=r"\(b0/r\)\*\*\(2-2q\) underflows, "
                                                   "though the grid starts at or inside"):
            solve_matching(v_inf, shape, 1.5, 1.5, 1.0)


def unblocked_summary(solution, v_inf, shape):
    """The solver statistics from whole-grid selections of the converged rows."""
    columns = solution.columns
    ok = columns["converged"]
    cs0, vr = columns["cs0_m_per_s"][ok], columns["vr_m_per_s"][ok]
    cs0_ref = zero_order_solution(columns["r_um"][ok], v_inf, shape)
    return {"points": int(ok.size), "points_converged": int(ok.sum()),
            "max_abs_residual1": float(abs(columns["res1"][ok]).max()),
            "max_abs_residual2": float(abs(columns["res2"][ok]).max()),
            "max_rel_deviation_from_zero_order": {
                "cs0": float(np.max(np.abs(cs0 - cs0_ref) / cs0_ref)),
                "vr": float(np.max(np.abs(vr - v_inf) / v_inf))}}


@pytest.mark.parametrize("v_inf, b0, r_min, r_max, step, radii", BLOCKED_GRIDS)
def test_blocked_summary_equals_the_unblocked_one(v_inf, b0, r_min, r_max, step, radii):
    """solve_matching's block-by-block statistics equal the whole-grid ones.
    At v_inf = 1e8 m/s whole blocks lie past the fold and hold no converged
    radius (16 of 18 at b0 = 1, 2 of 3 at b0 = 3)."""
    shape = ShapeFunction(b0, -1.0)
    solution, statistics = solve_matching(v_inf, shape, r_min, r_max, step)
    assert statistics == unblocked_summary(solution, v_inf, shape)
    deviation = statistics["max_rel_deviation_from_zero_order"]
    assert all(type(value) is float for value in (
        statistics["max_abs_residual1"], statistics["max_abs_residual2"], *deviation.values()))
    if v_inf == 1e8:
        converged = solution.columns["converged"]
        empty = [not converged[start:start + BLOCK].any()
                 for start in range(0, radii, BLOCK)]
        assert (sum(empty), len(empty)) == {1.0: (16, 18), 3.0: (2, 3)}[b0]


def test_solve_matching_memory_is_bounded():
    """A 178001-radius solve with its statistics peaks within 1.5x the bytes
    of the table's columns in traced memory (4.9x when the whole grid was
    evaluated at once)."""
    tracemalloc.start()
    try:
        solution, _ = solve_matching(0.01, ELLIS, 1.1, 10.0, 0.00005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = sum(column.nbytes for column in solution.columns.values())
    assert peak <= 1.5 * table_bytes


@pytest.mark.parametrize("q", [-1.0, 0.5])
def test_solve_matching_is_scale_covariant(q):
    """Scaling b0 and every grid length by 2**k (k = -1000 .. 1000 in steps
    of 10) scales r_um by exactly 2**k and leaves the other columns bit
    for bit as they were: the solve sees lengths only through r/b0."""
    def solve(scale):
        return solve_matching(1e8, ShapeFunction(scale, q), 1.1 * scale, 10.0 * scale,
                              0.05 * scale)[0].columns

    reference = solve(1.0)
    assert 0 < int(reference["converged"].sum()) < reference["r_um"].size
    for k in range(-1000, 1001, 10):
        columns = solve(2.0 ** k)
        assert_same_bits(columns["r_um"], reference["r_um"] * 2.0 ** k)
        for name in ("cs0_m_per_s", "vr_m_per_s", "res1", "res2", "converged"):
            assert_same_bits(columns[name], reference[name])
