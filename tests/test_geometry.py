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


def test_proper_distance_is_zero_at_the_throat():
    shape = ShapeFunction(3.0, -1.0)
    assert proper_distance(shape, 3.0) == 0.0
    assert proper_distance(shape, np.array([3.0, 3.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("q", [-3.0, -1.0, 0.5, 0.95])
def test_proper_distance_of_one_radius_is_the_float_call(q):
    """A 0-d or one-element array of radii integrates the same panels as
    the float, so it gives the float call's distance bit for bit."""
    shape = ShapeFunction(3.0, q)
    for r in (3.0, 3.0 + 1e-9, 5.0, 3e4):
        distance = proper_distance(shape, r)
        assert type(distance) is float
        assert_same_bits([proper_distance(shape, np.array(r))], [distance])
        assert_same_bits(proper_distance(shape, np.array([r])), [distance])


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
    """Proper distance ("l") or embedding height ("z") in closed form with
    mpmath. With a = 1/(1-q) and w = (b0/r)**(1-q) = 1 - f, both are
    a b0 times the integral of t**(p-1) (1-t)**(-1/2) from w to 1, an
    incomplete beta function with p = 1/2 - a (z) or -a (l): that is
    2 a b0 sqrt(f) 2F1(1/2, 1-p; 3/2; f), taken at 30 digits more than
    -log10(w) so that f holds w. Where that is over 60 digits and
    -1 < p != 0, it is a b0 (B(p, 1/2) - w**p/p 2F1(p, 1/2; p+1; w)),
    with w itself as the argument. At q = -1 and 0 the elementary forms."""
    mp = pytest.importorskip("mpmath")
    if q in (-1.0, 0.0):
        with mp.workdps(30):
            b0, r = mp.mpf(b0), mp.mpf(r)
            if kind == "l":
                value = (mp.sqrt((r - b0) * (r + b0)) if q == -1.0
                         else mp.sqrt(r * (r - b0)) + b0 * mp.acosh(mp.sqrt(r / b0)))
            else:
                value = b0 * mp.acosh(r / b0) if q == -1.0 else 2 * mp.sqrt(b0 * (r - b0))
            return float(value)
    with mp.workdps(40):
        a = 1 / (1 - mp.mpf(q))
        log_w = -(1 - mp.mpf(q)) * mp.log(mp.mpf(r) / b0)
        p = (0.5 if kind == "z" else 0) - a
        digits = 30 + int(-log_w / mp.ln10)
        if digits > 60 and -1 < p != 0:
            w = mp.exp(log_w)
            return float(a * b0 * (mp.beta(p, 0.5) - w**p / p * mp.hyp2f1(p, 0.5, p + 1, w)))
    with mp.workdps(digits):
        f = -mp.expm1(log_w)
        return float(2 * a * b0 * mp.sqrt(f) * mp.hyp2f1(0.5, 1 - p, 1.5, f))


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


@pytest.mark.parametrize("q", [-3.3, -2.0, -1.0, -0.5, 0.0, 0.25, 1 / 3, 0.5, 0.9, 0.999999])
def test_both_integrals_follow_the_closed_forms_out_to_1e300(q):
    """From r/b0 = 1 + 1e-9 out to r = 1e300, for b0 in {1e-3, 1, 1e3},
    both integrals agree with the closed forms to 5e-14 (2.2e-14 at worst,
    z at q = 1/3 and r = 1e300)."""
    for b0 in (1e-3, 1.0, 1e3):
        shape = ShapeFunction(b0, q)
        radii = np.array([b0 * (1.0 + 1e-9), 1.5 * b0, 1e3 * b0, 1e9 * b0, 1e100, 1e200, 1e300])
        for kind, integral in (("z", embedding_height), ("l", proper_distance)):
            expected = [mpmath_reference(kind, b0, q, r) for r in radii.tolist()]
            np.testing.assert_allclose(integral(shape, radii), expected, rtol=5e-14, atol=0.0)


@pytest.mark.parametrize("b0", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("q", [-50.0, -440.0, -1e4])
def test_strongly_negative_q_grades_panels_down_to_the_turnover(q, b0):
    """Below q = -3 the integrands turn over at u = sqrt(b0/(1-q)), below the
    first graded point sqrt(b0), where one panel on [0, sqrt(b0)] failed the
    16/20-node check. Graded down to the turnover, 400 geometric radii from
    b0 (1 + 1e-12) to 1e300 integrate to rising values that agree with the
    closed forms (4.4e-16 at worst)."""
    shape = ShapeFunction(b0, q)
    radii = np.geomspace(b0 * (1.0 + 1e-12), 1e300, 400)
    for kind, integral in (("z", embedding_height), ("l", proper_distance)):
        values = integral(shape, radii)
        assert values[0] > 0.0 and (np.diff(values) >= 0.0).all()
        for r, value in zip(radii.tolist(), values.tolist()):
            assert value == pytest.approx(mpmath_reference(kind, b0, q, r), rel=1e-12)


@pytest.mark.parametrize("b0", [1e-10, 1.0, 1e10])
def test_embedding_height_closed_forms_where_the_rise_overflows(b0):
    """The rise (r/b0)**(1-q) - 1 overflows past r/b0 ~ 1.3e154 at q = -1,
    and u**2/b0 itself past r/b0 ~ 1.8e308 (b0 = 1e-10); the heights keep
    to b0 arccosh(r/b0) and 2 sqrt(b0 (r - b0)) up to r = 1e300."""
    radii = np.geomspace(2.0 * b0, 1e300, 80)
    ellis = [b0 * (math.acosh(r / b0) if r < 1e150 * b0 else math.log(2.0 * r) - math.log(b0))
             for r in radii]
    np.testing.assert_allclose(embedding_height(ShapeFunction(b0, -1.0), radii), ellis,
                               rtol=2e-14, atol=0.0)
    np.testing.assert_allclose(embedding_height(ShapeFunction(b0, 0.0), radii),
                               2.0 * np.sqrt(b0) * np.sqrt(radii - b0), rtol=2e-14, atol=0.0)


@pytest.mark.parametrize("q", [-3.0, -0.5, 0.5])
def test_embedding_height_far_tail_is_the_power_law(q):
    """Once the rise passes 1e40, dz/dr = (r/b0)**(-(1-q)/2) to double
    precision, so z grows from there by the power law's integral, also
    where the rise overflows (r/b0 past about 1e205 at q = -0.5)."""
    b0 = 2.5
    r1 = b0 * 10.0 ** (40.0 / (1.0 - q))
    radii = np.array([r1, 1e200, 1e250, 1e300])
    z = embedding_height(ShapeFunction(b0, q), radii)
    power = (1.0 + q) / 2.0
    tail = b0 ** ((1.0 - q) / 2.0) * (radii[1:] ** power - r1 ** power) / power
    np.testing.assert_allclose(z[1:], z[0] + tail, rtol=2e-14, atol=0.0)


def test_infinite_radius_is_a_one_line_convergence_error():
    """The failing interval's end b0 + u*u overflows to inf, not to an
    OverflowError, for the integral and for the time offset built on it."""
    ellis = ShapeFunction(1.0, -1.0)
    for call in (lambda: proper_distance(ellis, math.inf),
                 lambda: gp_time_offset(math.inf, 1.5, ellis)):
        with pytest.raises(ConvergenceError, match=r"^quadrature failed on \[1\.0, inf\]") as failure:
            call()
        assert "\n" not in str(failure.value)


def test_embedding_height_array_matches_scalar_calls():
    """For embedding height and proper distance alike, one call over an
    array of radii equals one call per radius; the panels differ, so
    agreement is to a few hundred ulps, not bit for bit."""
    for integral in (embedding_height, proper_distance):
        for q in (-1.0, 0.5, 0.95):
            shape = ShapeFunction(3.0, q)
            radii = 3.0 + np.linspace(0.0, 50.0, 201)
            values = integral(shape, radii)
            assert isinstance(values, np.ndarray) and values.shape == radii.shape
            assert values[0] == 0.0
            scalar = [integral(shape, float(r)) for r in radii]
            np.testing.assert_allclose(values, scalar, rtol=1e-13, atol=0.0)
        with pytest.raises(DomainError):
            integral(ShapeFunction(3.0, 0.5), np.array([3.0, 2.9]))


def test_quadrature_check_rejects_jump():
    """A jump inside one panel makes the 16- and 20-node sums disagree."""
    def step(u):
        return np.where(u < 0.3, 0.0, 1.0)

    with pytest.raises(ConvergenceError):
        _integrate_from_throat(step, 1.0, 0.7, one_minus_q=1.0)
    # the same jump on a panel edge integrates exactly
    value = _integrate_from_throat(step, 1.0, np.array([0.3, 0.7]), one_minus_q=1.0)
    np.testing.assert_allclose(value, [0.0, 0.4], rtol=1e-14, atol=1e-15)


BLOCK = geometry._KERNEL_BLOCK


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
        patch.setattr(geometry, "_KERNEL_BLOCK", 2**62)
        return compute()


@pytest.mark.parametrize("panels", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_quadrature_keeps_the_bits(monkeypatch, panels):
    """Integrating the panels block by block gives bit for bit the heights
    of one block over all of them, at and around the block edges; so do
    the scalar integrals."""
    seen = []
    real = geometry._embedding_integrand

    def recording(u, b0, one_minus_q):
        seen.append(u.shape[-1])   # u holds one row of panels per node
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
        ellis = ShapeFunction(1.0, -1.0)
        assert_same_bits(gp_time_offset(r, 1.5, ellis),
                         one_block(monkeypatch, lambda: gp_time_offset(r, 1.5, ellis)))


def test_panel_sums_add_the_nodes_in_order(monkeypatch):
    """Each panel's sum adds its weighted node values one node after
    another, and the panel sums accumulate left to right: the bits of a
    plain loop, over two blocks, whatever BLAS or SIMD the host has."""
    monkeypatch.setattr(geometry, "_KERNEL_BLOCK", 5)
    values_seen = []

    def integrand(u):
        values = (1.0 + u) * np.exp(-u)
        values_seen.append(values.copy())
        return values

    edges = np.concatenate(([0.0], np.geomspace(0.01, 3.0, 8)))
    integral = geometry._integral_at_edges(integrand, 1.0, edges)
    weights = geometry._gauss_rules()[0][1].tolist()
    values = np.concatenate(values_seen[::2], axis=1)   # the 16-node rule's rows
    expected, total = [0.0], 0.0
    for j, half in enumerate((0.5 * (edges[1:] - edges[:-1])).tolist()):
        panel = values[0, j] * weights[0]
        for i in range(1, 16):
            panel += values[i, j] * weights[i]
        total += panel * half
        expected.append(total)
    assert_same_bits(integral, expected)


def test_blocked_quadrature_names_the_first_failing_panel(monkeypatch):
    """A jump inside a panel of the third block fails the check there, with
    the interval of one block over all panels."""
    u = np.arange(1, 2 * BLOCK + 4) * 0.001
    jump = 0.7 * u[2 * BLOCK + 1] + 0.3 * u[2 * BLOCK + 2]

    def step(v):
        return np.where(v < jump, 0.0, 1.0)

    def message():
        with pytest.raises(ConvergenceError) as failure:
            _integrate_from_throat(step, 1.0, u, one_minus_q=1.0)
        return str(failure.value)

    expected = one_block(monkeypatch, message)
    assert message() == expected
    assert f"[1.0, {1.0 + float(u[2 * BLOCK + 2]) ** 2!r}]" in expected


def test_embedding_height_memory_is_bounded():
    """200001 radii integrate within 7x the radii's bytes of traced memory
    (85x when every panel's nodes were evaluated at once, 9x when the
    panel sums of both rules were kept for the whole grid)."""
    radii = 1.0 + np.arange(200001) * 5e-5
    for integral in (embedding_height, proper_distance):
        tracemalloc.start()
        try:
            integral(ShapeFunction(1.0, -1.0), radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * radii.nbytes


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


@pytest.mark.parametrize("rule, nodes", [(0, 16), (1, 20)])
def test_gauss_rules_are_leggauss(rule, nodes):
    """The literal rules are numpy.polynomial's, bit for bit."""
    reference = np.polynomial.legendre.leggauss(nodes)
    for actual, expected in zip(geometry._gauss_rules()[rule], reference):
        assert actual.dtype == expected.dtype
        assert_same_bits(actual, expected)
