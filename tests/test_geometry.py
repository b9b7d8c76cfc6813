"""Geometry module: shape function, metric factor, proper distance,
embedding height, throat classification."""

import math
import tracemalloc

import numpy as np
import pytest

from bitcheck import assert_same_bits
from wormbec import geometry
from wormbec.exceptions import ConvergenceError, DomainError
from wormbec.geometry import (MAX_GRID_POINTS, ShapeFunction, ThroatClass,
                              _integrate_from_throat, classify_throat,
                              embedding_height, metric_factor, proper_distance,
                              uniform_grid)
from wormbec.gp3d import gp_time_offset

# Frozen from the brute-force midpoint oracle below at 10^6 panels.
PROPER_DISTANCE_Q05 = 6.271807848835146   # b0=1, q=0.5, r=4
EMBEDDING_HEIGHT_Q05 = 8.789472907742478  # b0=3, q=0.5, r=6


def riemann_proper(b0, q, r, panels=10**6):
    """Midpoint sum for the proper-distance integral in u = sqrt(r'-b0)."""
    u_max = np.sqrt(r - b0)
    du = u_max / panels
    u = (np.arange(panels) + 0.5) * du
    f = 2.0 * u / np.sqrt(-np.expm1(-(1.0 - q) * np.log1p(u * u / b0)))
    return float(f.sum() * du)


def riemann_embedding(b0, q, r, panels=10**6):
    """Midpoint sum for the embedding integral in u = sqrt(r'-b0)."""
    u_max = np.sqrt(r - b0)
    du = u_max / panels
    u = (np.arange(panels) + 0.5) * du
    f = 2.0 * u / np.sqrt(np.expm1((1.0 - q) * np.log1p(u * u / b0)))
    return float(f.sum() * du)


def test_shape_function_requires_positive_throat():
    with pytest.raises(DomainError):
        ShapeFunction(0.0, -1.0)
    with pytest.raises(DomainError):
        ShapeFunction(-2.0, 0.5)


def test_metric_factor_values():
    shape = ShapeFunction(1.0, -1.0)
    assert metric_factor(shape, 1.0) == 0.0
    assert metric_factor(shape, 2.0) == pytest.approx(0.75, rel=1e-15)


def test_metric_factor_asymptotically_flat():
    # q = 0.95 approaches flatness like r**-0.05, so r must be huge
    assert metric_factor(ShapeFunction(1.0, 0.95), 1e80) == pytest.approx(1.0, rel=1e-3)
    assert metric_factor(ShapeFunction(1.0, -1.0), 1e8) == pytest.approx(1.0, rel=1e-12)


def test_metric_factor_negative_for_broken_signature():
    """q > 1 values are returned, not raised; callers attach the flag."""
    assert metric_factor(ShapeFunction(1.0, 2.0), 3.0) < 0.0
    assert metric_factor(ShapeFunction(1.0, 1.0), 5.0) == 0.0


def test_proper_distance_ellis_closed_form():
    """Ellis case: l = sqrt(r^2 - b0^2), so (b0=3, r=5) -> 4."""
    assert proper_distance(ShapeFunction(3.0, -1.0), 5.0) == pytest.approx(4.0, rel=1e-10)


def test_proper_distance_throat_and_sides():
    shape = ShapeFunction(3.0, -1.0)
    assert proper_distance(shape, 3.0) == 0.0
    assert proper_distance(shape, 5.0, side=-1) == pytest.approx(-4.0, rel=1e-10)
    with pytest.raises(DomainError):
        proper_distance(shape, 5.0, side=0)


def test_proper_distance_brute_force_oracle():
    value = proper_distance(ShapeFunction(1.0, 0.5), 4.0)
    oracle = riemann_proper(1.0, 0.5, 4.0)
    assert value == pytest.approx(PROPER_DISTANCE_Q05, rel=1e-8)
    assert value == pytest.approx(oracle, rel=1e-8)


def test_proper_distance_rejects_broken_signature():
    with pytest.raises(DomainError):
        proper_distance(ShapeFunction(1.0, 1.0), 2.0)
    with pytest.raises(DomainError):
        proper_distance(ShapeFunction(1.0, 2.0), 2.0)


def test_embedding_height_ellis_closed_form():
    """Ellis case: z = b0 * arccosh(r/b0), so r = b0*cosh(1) -> z = b0."""
    r = 3.0 * math.cosh(1.0)
    assert embedding_height(ShapeFunction(3.0, -1.0), r) == pytest.approx(3.0, rel=1e-10)


def test_embedding_height_throat():
    assert embedding_height(ShapeFunction(3.0, 0.5), 3.0) == 0.0


def test_embedding_height_brute_force_oracle():
    value = embedding_height(ShapeFunction(3.0, 0.5), 6.0)
    oracle = riemann_embedding(3.0, 0.5, 6.0)
    assert value == pytest.approx(EMBEDDING_HEIGHT_Q05, rel=1e-8)
    assert value == pytest.approx(oracle, rel=1e-8)


def test_embedding_height_rejects_broken_signature():
    with pytest.raises(DomainError):
        embedding_height(ShapeFunction(1.0, 1.5), 2.0)


def test_monotonicity_in_radius():
    """Both integrals strictly increase with r outside the throat."""
    for q in (-1.0, -0.5, 0.0, 0.5, 0.95):
        shape = ShapeFunction(2.0, q)
        radii = 2.0 * np.geomspace(1.0 + 1e-6, 50.0, 25)
        distances = [proper_distance(shape, float(r)) for r in radii]
        heights = [embedding_height(shape, float(r)) for r in radii]
        assert all(b > a for a, b in zip(distances, distances[1:]))
        assert all(b > a for a, b in zip(heights, heights[1:]))


def test_ellis_oracle_sweep():
    """q = -1 matches the closed forms to 1e-8 relative over a wide range."""
    b0 = 3.0
    shape = ShapeFunction(b0, -1.0)
    for ratio in np.geomspace(1.0 + 1e-6, 100.0, 40):
        r = b0 * float(ratio)
        exact_l = math.sqrt(r * r - b0 * b0)
        exact_z = b0 * math.acosh(r / b0)
        assert proper_distance(shape, r) == pytest.approx(exact_l, rel=1e-8)
        assert embedding_height(shape, r) == pytest.approx(exact_z, rel=1e-8)


def test_throat_classification():
    assert classify_throat(0.5) is ThroatClass.TRAVERSABLE
    assert classify_throat(-1.0) is ThroatClass.TRAVERSABLE
    assert classify_throat(1.0) is ThroatClass.DEGENERATE
    assert classify_throat(2.0) is ThroatClass.SIGNATURE_BROKEN
    assert ShapeFunction(1.0, 0.95).throat_class is ThroatClass.TRAVERSABLE


def test_flare_out_matches_shape_derivative_at_throat():
    """db/dr at the throat equals q, so traversability is exactly q < 1
    (b(r) = r (1 - metric factor))."""
    for q in (-2.0, -1.0, 0.0, 0.5, 0.95, 1.0, 1.5):
        shape = ShapeFunction(2.0, q)
        h = 1e-7
        slope = ((2.0 + h) * (1.0 - metric_factor(shape, 2.0 + h)) - 2.0) / h
        assert slope == pytest.approx(q, abs=1e-5)
        assert (classify_throat(q) is ThroatClass.TRAVERSABLE) == (slope < 1.0 - 1e-5)


def mpmath_reference(kind, b0, q, r):
    """Proper distance ("l") or embedding height ("z") by tanh-sinh
    quadrature at 20 digits, in u = sqrt(r'-b0) on doubling panels."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        b0m, one_minus_q = mp.mpf(b0), 1 - mp.mpf(q)
        sign = 1 if kind == "z" else -1

        def integrand(u):
            rise = sign * mp.expm1(sign * one_minus_q * mp.log1p(u * u / b0m))
            return 2 * u / mp.sqrt(rise)

        u_max = mp.sqrt(mp.mpf(r) - b0m)
        points = [mp.mpf(0), mp.sqrt(b0m)]
        while points[-1] < u_max:
            points.append(2 * points[-1])
        points[-1] = u_max
        return float(mp.quad(integrand, points))


@pytest.mark.parametrize("q", [-2.0, 0.5, 0.95])
@pytest.mark.parametrize("ratio", [1e3, 1e6])
def test_far_field_mpmath_reference(q, ratio):
    """Both integrals hold 1e-12 far outside the throat, where the CLI's
    grid.r_max_um can reach."""
    b0 = 2.5
    shape = ShapeFunction(b0, q)
    r = b0 * ratio
    assert proper_distance(shape, r) == pytest.approx(
        mpmath_reference("l", b0, q, r), rel=1e-12)
    assert embedding_height(shape, r) == pytest.approx(
        mpmath_reference("z", b0, q, r), rel=1e-12)


def test_embedding_height_array_matches_scalar_calls():
    """One call over an array of radii equals one call per radius; the
    panels differ, so agreement is to a few hundred ulps, not bit for bit."""
    for q in (-1.0, 0.5, 0.95):
        shape = ShapeFunction(3.0, q)
        radii = 3.0 + np.linspace(0.0, 50.0, 201)
        heights = embedding_height(shape, radii)
        assert isinstance(heights, np.ndarray) and heights.shape == radii.shape
        assert heights[0] == 0.0
        scalar = [embedding_height(shape, float(r)) for r in radii]
        np.testing.assert_allclose(heights, scalar, rtol=1e-13, atol=0.0)
    with pytest.raises(DomainError):
        embedding_height(ShapeFunction(3.0, 0.5), np.array([3.0, 2.9]))


def test_quadrature_check_rejects_jump():
    """A jump inside one panel makes the 16- and 20-node sums disagree."""
    def step(u):
        return np.where(u < 0.3, 0.0, 1.0)

    with pytest.raises(ConvergenceError):
        _integrate_from_throat(step, 1.0, 0.7)
    # the same jump on a panel edge integrates exactly
    value = _integrate_from_throat(step, 1.0, np.array([0.3, 0.7]))
    np.testing.assert_allclose(value, [0.0, 0.4], rtol=1e-14, atol=1e-15)


BLOCK = geometry._PANEL_BLOCK


def panel_radii(b0, panels):
    """Radii on which the quadrature cuts the u axis into PANELS panels:
    past 5 panels the targets reach u = 30 sqrt(b0), adding the graded
    edges sqrt(b0) * 2**k for k < 5."""
    far = panels > 5
    t = np.geomspace(1e-3, 30.0 if far else 0.9, panels - 5 if far else panels)
    return b0 * (1.0 + t * t)


def one_block(monkeypatch, compute):
    """COMPUTE() with every panel of each rule evaluated in one block."""
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_PANEL_BLOCK", 2**62)
        return compute()


@pytest.mark.parametrize("panels", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_quadrature_keeps_the_bits(monkeypatch, panels):
    """Integrating the panels block by block gives bit for bit the heights
    of one block over all of them, at and around the block edges; so do
    the scalar integrals. (A block of 7 panels changes low bits: BLAS
    handles the tail of a matrix-vector product in another order.)"""
    seen = []
    real = geometry._embedding_integrand

    def recording(u, b0, one_minus_q):
        seen.append(len(u))
        return real(u, b0, one_minus_q)

    monkeypatch.setattr(geometry, "_embedding_integrand", recording)
    for q in (-3.0, -1.0, 0.5, 0.95, 0.999):
        for b0 in (0.01, 1.0, 1e3):
            shape = ShapeFunction(b0, q)
            radii = panel_radii(b0, panels)
            seen.clear()
            reference = one_block(monkeypatch, lambda: embedding_height(shape, radii))
            assert seen[0] == panels  # the 16-node rule's one block
            assert_same_bits(embedding_height(shape, radii), reference)
    for r in (1.5, 40.0, 3e4):
        shape = ShapeFunction(1.0, 0.5)
        assert_same_bits(proper_distance(shape, r),
                         one_block(monkeypatch, lambda: proper_distance(shape, r)))
        assert_same_bits(gp_time_offset(r, 1.5, 1.0),
                         one_block(monkeypatch, lambda: gp_time_offset(r, 1.5, 1.0)))


def test_blocked_quadrature_names_the_first_failing_panel(monkeypatch):
    """A jump inside a panel of the third block fails the check there, with
    the interval of one block over all panels."""
    u = np.arange(1, 2 * BLOCK + 4) * 0.001
    jump = 0.7 * u[2 * BLOCK + 1] + 0.3 * u[2 * BLOCK + 2]

    def step(v):
        return np.where(v < jump, 0.0, 1.0)

    def message():
        with pytest.raises(ConvergenceError) as failure:
            _integrate_from_throat(step, 1.0, u)
        return str(failure.value)

    expected = one_block(monkeypatch, message)
    assert message() == expected
    assert f"[1.0, {1.0 + float(u[2 * BLOCK + 2]) ** 2!r}]" in expected


def test_embedding_height_memory_is_bounded():
    """200001 radii integrate within 12x the radii's bytes of traced memory
    (85x when every panel's nodes were evaluated at once)."""
    shape = ShapeFunction(1.0, -1.0)
    radii = 1.0 + np.arange(200001) * 5e-5
    tracemalloc.start()
    try:
        embedding_height(shape, radii)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * radii.nbytes


def test_uniform_grid_points():
    """start + k*step up to the far end, kept when span/step rounds low."""
    assert uniform_grid(0.0, 0.3, 0.1).tolist() == [0.0, 0.1, 0.2, 3 * 0.1]
    assert uniform_grid(1.1, 0.0, 0.5).tolist() == [1.1]
    grid = uniform_grid(2.0, 4.0, 0.02)
    assert grid.tolist() == [2.0 + k * 0.02 for k in range(201)]
    with pytest.raises(DomainError):
        uniform_grid(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        uniform_grid(0.0, -1.0, 0.1)


def test_uniform_grid_cap_trips_before_allocation(monkeypatch):
    """A grid above MAX_GRID_POINTS is a one-line DomainError raised before
    any array exists; an unbounded count (inf, nan) is one too."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"exceeds {MAX_GRID_POINTS} points"):
            uniform_grid(0.0, 2.0, 1.0 / MAX_GRID_POINTS)  # twice the cap
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the grid alone would take 16 MB
    for span, step in ((1e300, 1e-300), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            uniform_grid(0.0, span, step)
    monkeypatch.setattr("wormbec.geometry.MAX_GRID_POINTS", 10)
    assert len(uniform_grid(0.0, 9.0, 1.0)) == 10
    with pytest.raises(DomainError):
        uniform_grid(0.0, 10.0, 1.0)
