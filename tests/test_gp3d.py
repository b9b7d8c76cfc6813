"""3+1D machinery: geodesics, flow-adapted metric, congruence check,
condensate metric, and the exact matching solver."""

import math

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec.exceptions import ConvergenceError, DomainError, PoleError
from wormbec.gp3d import (DEFAULT_LIGHT_SPEED, GpSolution, MetricAtPoint,
                          ObserverSpec, bec_metric, fold_radius, gp_metric,
                          gp_time_offset, lorentz_gamma, matching_residuals,
                          metric_congruence_check, radial_geodesic_velocity,
                          solve_matching, zero_order_solution)


def riemann_offset(b0, energy, r, panels=10**6):
    """Midpoint sum for the time-offset integral in u = sqrt(r'-b0)."""
    u_max = np.sqrt(r - b0)
    du = u_max / panels
    u = (np.arange(panels) + 0.5) * du
    f = 2.0 * np.sqrt(energy**2 - 1.0) * (b0 + u * u) / np.sqrt(u * u + 2.0 * b0)
    return float(f.sum() * du)


def test_lorentz_gamma_values():
    assert lorentz_gamma(0.0, DEFAULT_LIGHT_SPEED) == 1.0
    assert lorentz_gamma(0.6, 1.0) == pytest.approx(1.25, rel=1e-15)
    assert lorentz_gamma(0.01, 0.02) == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-15)


def test_lorentz_gamma_domain():
    with pytest.raises(DomainError):
        lorentz_gamma(1.0, 1.0)
    with pytest.raises(DomainError):
        lorentz_gamma(2.0, 1.0)
    with pytest.raises(DomainError):
        lorentz_gamma(0.5, 0.0)


def test_observer_spec():
    obs = ObserverSpec(v_inf=0.01, reference_speed=0.02)
    assert obs.gamma == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-15)
    with pytest.raises(DomainError):
        ObserverSpec(v_inf=0.03, reference_speed=0.02)
    with pytest.raises(DomainError):
        ObserverSpec(v_inf=0.0, reference_speed=0.02)


def test_radial_geodesic_velocity():
    assert radial_geodesic_velocity(1.0, 2.0, 1.0) == 0.0      # throat
    assert radial_geodesic_velocity(5.0, 1.0, 1.0) == 0.0      # marginal observer
    far = radial_geodesic_velocity(1e9, 2.0, 1.0)
    assert far == pytest.approx(-math.sqrt(3.0), rel=1e-12)
    assert far < 0.0  # ingoing branch
    with pytest.raises(DomainError):
        radial_geodesic_velocity(5.0, 0.5, 1.0)


def test_gp_time_offset_closed_form():
    """b0=1, E=sqrt(2), r=2: sqrt(E^2-1)*sqrt(r^2-b0^2) = sqrt(3)."""
    value = gp_time_offset(2.0, math.sqrt(2.0), 1.0)
    assert value == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert gp_time_offset(1.0, math.sqrt(2.0), 1.0) == 0.0


def test_gp_time_offset_riemann_oracle():
    for b0, energy, r in ((1.0, math.sqrt(2.0), 2.0), (0.5, 1.3, 7.0), (3.0, 2.0, 3.2)):
        value = gp_time_offset(r, energy, b0)
        assert value == pytest.approx(riemann_offset(b0, energy, r), rel=1e-8)


def test_gp_metric_reference_point():
    """b0=1, gamma=1.25, c_ref=1, r=2."""
    m = gp_metric(2.0, 1.25, 1.0, 1.0)
    assert m.g_tt == pytest.approx(-0.64, rel=1e-15)
    assert m.g_rr == pytest.approx(1.0 / (1.5625 * 0.75), rel=1e-15)
    assert m.g_tr == pytest.approx(0.64 * math.sqrt(0.75), rel=1e-14)
    assert m.spherical == 4.0
    assert m.is_lorentzian


def test_gp_metric_free_fall_is_diagonal():
    """gamma = 1 recovers the static diagonal metric exactly."""
    m = gp_metric(2.0, 1.0, 3.0, 1.0)
    assert m.g_tr == 0.0
    assert m.g_tt == -9.0
    assert m.g_rr == pytest.approx(1.0 / 0.75, rel=1e-15)


def test_gp_metric_signature_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b0 = rng.uniform(0.1, 5.0)
        r = b0 * (1.0 + rng.uniform(1e-4, 50.0))
        gamma = 1.0 + rng.uniform(0.0, 10.0)
        m = gp_metric(r, gamma, 1.0, b0)
        assert m.tr_determinant < 0.0
        assert m.is_lorentzian


def test_gp_metric_pole_at_throat():
    with pytest.raises(PoleError):
        gp_metric(1.0, 1.25, 1.0, 1.0)
    with pytest.raises(DomainError):
        gp_metric(2.0, 0.5, 1.0, 1.0)


def test_congruence_free_fall_exact():
    assert metric_congruence_check(2.0, 1.0, 1.0, 1.0) == 0.0


def test_congruence_reference_point():
    assert metric_congruence_check(2.0, 1.25, 1.0, 1.0) < 1e-12


def test_congruence_random_sweep():
    """The coordinate change reproduces the diagonal metric everywhere."""
    rng = np.random.default_rng(19)
    for _ in range(1000):
        b0 = rng.uniform(0.1, 5.0)
        r = b0 * (1.0 + rng.uniform(1e-6, 100.0))
        gamma = 1.0 + rng.uniform(1e-6, 9.0)
        c_ref = 1.0 if rng.uniform() < 0.5 else DEFAULT_LIGHT_SPEED
        assert metric_congruence_check(r, gamma, c_ref, b0) < 1e-12


def test_bec_metric_no_flow_is_diagonal():
    m = bec_metric(3.0, 0.01, 0.0)
    assert m.g_tr == 0.0
    assert m.g_tt == pytest.approx(-1e-4, rel=1e-15)


def test_bec_metric_sound_at_light_speed_is_flat():
    m = bec_metric(3.0, 2.0, 0.7, light_speed=2.0)
    assert m.g_tr == 0.0
    assert m.g_rr == 1.0


def test_bec_metric_duplicate_implementation_oracle():
    """Components match an independent outer-product construction.

    Run at order-one speeds: in the eta + v v form, g_tt is the remainder
    of -1 + (1 - (cs/c)^2) and underflows to zero at lab scale where
    (cs/c)^2 < eps, so only O(1) ratios exercise the algebra.
    """
    rng = np.random.default_rng(23)
    for _ in range(200):
        c = rng.uniform(1.5, 10.0)
        c_s = rng.uniform(0.05, 0.95) * c
        v_r = rng.uniform(-0.5, 0.5) * c
        m = bec_metric(2.0, c_s, v_r, light_speed=c)
        # eta + (1 - cs^2/c^2) v_mu v_nu / c^2 with v_mu = (-c, v_r)
        v_cov = np.array([-c, v_r])
        block = (np.diag([-1.0, 1.0])
                 + (1.0 - (c_s / c) ** 2) * np.outer(v_cov, v_cov) / c ** 2)
        # line-element components: tt scaled by c^2, tr by c
        assert m.g_tt == pytest.approx(block[0, 0] * c * c, rel=1e-12)
        assert m.g_tr == pytest.approx(block[0, 1] * c, rel=1e-12, abs=1e-14)
        assert m.g_rr == pytest.approx(block[1, 1], rel=1e-12)


def test_bec_metric_lab_scale_components():
    """At lab scale the direct formulas stay exact: g_tt = -cs^2."""
    m = bec_metric(2.0, 0.012, 0.01)
    assert m.g_tt == -0.012 ** 2
    assert m.g_tr == pytest.approx(-0.01, rel=1e-15)
    assert m.g_rr == pytest.approx(1.0, rel=1e-15)


def test_matching_residuals_zero_order_is_tiny():
    """The small-velocity limit satisfies the exact system to rounding."""
    for r, b0, v_inf in ((2.0, 1.0, 0.01), (1.5, 1.0, 0.009), (9.0, 3.0, 0.01)):
        cs0, vr = zero_order_solution(r, v_inf, b0)
        res1, res2 = matching_residuals(r, cs0, vr, v_inf, b0)
        assert abs(res1) < 1e-13
        assert abs(res2) < 1e-13


def test_matching_residual2_far_limit():
    cs0, vr = zero_order_solution(1e8, 0.01, 1.0)
    _, res2 = matching_residuals(1e8, cs0, vr, 0.01, 1.0)
    assert abs(res2) < 1e-10


def test_matching_residual2_sign_flips_across_solution():
    cs0, vr = zero_order_solution(2.0, 0.01, 1.0)
    _, res2_up = matching_residuals(2.0, cs0 * 1.1, vr, 0.01, 1.0)
    _, res2_dn = matching_residuals(2.0, cs0 * 0.9, vr, 0.01, 1.0)
    assert res2_up > 0.0 > res2_dn


def test_matching_residuals_domain():
    with pytest.raises(DomainError):
        matching_residuals(2.0, 0.005, 0.01, 0.01, 1.0)  # cs0 <= v_inf
    with pytest.raises(PoleError):
        matching_residuals(1.0, 0.02, 0.01, 0.01, 1.0)   # throat


def test_zero_order_solution_values():
    assert zero_order_solution(1.0, 0.01, 1.0) == (0.01, 0.01)
    cs0, vr = zero_order_solution(6.0, 0.01, 3.0)
    assert cs0 == pytest.approx(0.02, rel=1e-15)
    assert vr == 0.01
    assert zero_order_solution(40.0, 0.01, 3.0)[1] == 0.01  # vr independent of r


def test_solver_agrees_with_zero_order():
    """Exact solutions sit on the small-velocity limit to solver tolerance."""
    for v_inf, b0 in ((0.01, 1.0), (0.009, 1.0)):
        solution = solve_matching(v_inf, b0, 1.1 * b0, 10.0 * b0, 0.1 * b0)
        assert bool(solution.converged.all())
        assert float(np.abs(solution.residual1).max()) < 1e-12
        assert float(np.abs(solution.residual2).max()) < 1e-12
        dev_cs0, dev_vr = solution.zero_order_deviation()
        assert dev_cs0 < 1e-9
        assert dev_vr < 1e-9
        assert bool((solution.cs0 > v_inf).all())


def mpmath_matching_root(r, v_inf, b0, light_speed, start):
    """(cs0, v_r) solving the residual system to 40 digits, found by
    mpmath.findroot from ``start``."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r, v_inf, b0, c = map(mp.mpf, (r, v_inf, b0, light_speed))
    factor = 1 - (b0 / r) ** 2

    def residuals(cs0, vr):
        gs = 1 / mp.sqrt(1 - (v_inf / cs0) ** 2)
        return [mp.sqrt((gs * gs - 1) / factor) / gs - vr * (gs / cs0 - cs0 / (gs * c * c)),
                1 / (gs * gs * factor) - 1 - (1 - (cs0 / (c * gs)) ** 2) * (vr / c) ** 2]

    return mp.findroot(residuals, tuple(map(mp.mpf, start)), tol=mp.mpf(10) ** -35)


@pytest.mark.parametrize("v_inf, light_speed", [
    (1e3, DEFAULT_LIGHT_SPEED), (3e7, DEFAULT_LIGHT_SPEED), (1e8, DEFAULT_LIGHT_SPEED),
    (0.01, 0.1), (0.01, 0.05), (0.01, 1.0), (0.01, DEFAULT_LIGHT_SPEED),
])
def test_solve_matching_equals_mpmath_root(v_inf, light_speed):
    """Every converged radius carries the root of the residual system to
    1e-13 relative, near light speed and at O(1) corrections alike."""
    solution = solve_matching(v_inf, 1.0, 1.101, 4.9, 0.19, light_speed=light_speed)
    assert solution.converged.any()
    for r, cs0, vr in zip(solution.radii[solution.converged].tolist(),
                          solution.cs0[solution.converged].tolist(),
                          solution.vr[solution.converged].tolist()):
        cs0_ref, vr_ref = mpmath_matching_root(r, v_inf, 1.0, light_speed, (cs0, vr))
        assert cs0 == pytest.approx(float(cs0_ref), rel=1e-13)
        assert vr == pytest.approx(float(vr_ref), rel=1e-13)


@pytest.mark.parametrize("v_inf, light_speed, converged", [
    (1e3, DEFAULT_LIGHT_SPEED, 179), (3e7, DEFAULT_LIGHT_SPEED, 79),
    (1e8, DEFAULT_LIGHT_SPEED, 12), (0.01, 0.1, 80), (0.01, 0.05, 31),
    (0.01, 1.0, 179),
])
def test_converged_exactly_up_to_the_fold(v_inf, light_speed, converged):
    """A radius converges exactly when it lies at or below the fold radius,
    where the discriminant vanishes; beyond it the values stay finite."""
    solution = solve_matching(v_inf, 1.0, 1.1, 10.0, 0.05, light_speed=light_speed)
    assert int(solution.converged.sum()) == converged
    r_fold = fold_radius(v_inf, 1.0, light_speed)
    assert solution.converged.tolist() == (solution.radii <= r_fold).tolist()
    for column in solution.columns():
        assert np.isfinite(column.astype(float)).all()


@pytest.mark.parametrize("r, v_inf, light_speed", [
    (5.0, 1e8, 2.998e8),   # near light speed
    (8.15, 0.01, 0.05),    # O(1) corrections, API only
])
def test_newton_stops_where_gamma_s_would_leave_its_domain(r, v_inf, light_speed):
    """These radii, where a finite-difference Newton step once left the
    domain gamma_s > 1, lie past the fold: on a grid that reaches them they
    come back flagged unconverged with finite values, and a one-point grid
    at r raises ConvergenceError naming the fold."""
    solution = solve_matching(v_inf, 1.0, 1.5, r, r - 1.5, light_speed=light_speed)
    assert solution.radii.tolist() == [1.5, r]
    assert solution.converged.tolist() == [True, False]
    for column in solution.columns()[1:5]:
        assert np.isfinite(column).all()
    r_fold = fold_radius(v_inf, 1.0, light_speed)
    with pytest.raises(ConvergenceError, match=f"fold at r = {r_fold!r}"):
        solve_matching(v_inf, 1.0, r, r, 1.0, light_speed=light_speed)


def test_radius_where_no_vr_exists_stays_finite():
    """Past the fold at v_inf = 3e7 m/s the clamped root equals k at this
    radius, so no v^r balances the cross terms: the radius comes back
    flagged with finite values instead of failing the grid."""
    r = 7.101467683736689
    solution = solve_matching(3e7, 1.0, 1.5, r, r - 1.5)
    assert solution.radii.tolist() == [1.5, r]
    assert solution.converged.tolist() == [True, False]
    for column in solution.columns()[1:5]:
        assert np.isfinite(column).all()


def test_matching_residuals_arrays_match_floats():
    radii = np.array([1.2, 2.0, 7.5])
    cs0 = np.array([0.013, 0.021, 0.07])
    vr = np.array([0.011, 0.0099, 0.01])
    res1, res2 = matching_residuals(radii, cs0, vr, 0.01, 1.0, 0.1)
    pointwise = [matching_residuals(*args, 0.01, 1.0, 0.1)
                 for args in zip(radii.tolist(), cs0.tolist(), vr.tolist())]
    assert all(type(value) is float for pair in pointwise for value in pair)
    assert_same_bits(res1, [pair[0] for pair in pointwise])
    assert_same_bits(res2, [pair[1] for pair in pointwise])
    with pytest.raises(DomainError):
        matching_residuals(radii, cs0 - 0.005, vr, 0.01, 1.0)   # one cs0 <= v_inf


def test_solver_grid_preconditions():
    with pytest.raises(DomainError):
        solve_matching(0.01, 1.0, 1.0, 10.0, 0.1)   # touches the throat
    with pytest.raises(DomainError):
        solve_matching(0.01, 1.0, 1.1, 10.0, -0.1)
    with pytest.raises(DomainError):
        solve_matching(-0.01, 1.0, 1.1, 10.0, 0.1)
    with pytest.raises(DomainError):
        solve_matching(0.2, 1.0, 1.1, 10.0, 0.1, light_speed=0.2)   # v_inf = c
    with pytest.raises(PoleError):
        solve_matching(0.01, 1.0, 1.0, 10.0, 0.1, throat_epsilon=0.0)
