"""3+1D construction for the power-law wormholes b(r) = b0 (r/b0)**q, q < 1.

A radially infalling observer with asymptotic speed v_inf defines
flow-adapted coordinates of Gullstrand-Painleve type. In those coordinates
the wormhole metric picks up a dt*dr cross term with exactly the structure
of a condensate's effective metric, so matching the two component by
component yields, at every radius, two equations for the background sound
speed c_s0 and the flow velocity v^r. ``matching_residuals`` states them
once, as ``gp_metric`` minus ``bec_metric``: the dt*dr difference (times
gamma_s/c_s0) and the dr^2 difference. Both metrics return the components
(g_tt, g_tr, g_rr) of ds^2 = g_tt dt^2 + 2 g_tr dt dr + g_rr dr^2 + r^2
dOmega^2: floats for float inputs, else arrays of one shape.

The shape enters only through f = 1 - b/r (``geometry.metric_factor``)
and g = b/r = (b0/r)**(1-q) = 1 - f; q >= 1 is a DomainError. With
gamma_s = 1/sqrt(1 - (v_inf/c_s0)**2), X = gamma_s**2 - 1, c the speed of
light (the constant ``LIGHT_SPEED``) and k = (v_inf/c)**2, eliminating v^r
leaves the quadratic

    f X**2 - g (1 - k) X + g k = 0,  discriminant D = g (g (1-k)**2 - 4 f k).

``solve_matching`` takes the larger root X = (g (1-k) + sqrt(D)) / (2 f),
which tends to the small-velocity limit gamma_s = 1/sqrt(f) (c_s0 = v_inf
(r/b0)**((1-q)/2), v^r = v_inf: profile3d's lab flow) as k -> 0, and recovers
c_s0 = v_inf sqrt(1 + X) / sqrt(X) and
v^r = v_inf X / (sqrt((1 + X) f) (X - k)). D vanishes at the fold radius
r_fold = b0 ((c**2 + v_inf**2) / (2 v_inf c))**(2/(1-q)) (``fold_radius``)
and is negative beyond it, where no real solution exists. So a radius
converges where its root exists: D / g = g (1-k)**2 - 4 f k >= 0 and
c_s0 > v_inf. Past the fold D is clamped at 0, leaving finite flagged
values. Within an ulp or two of the throat c_s0 rounds to v_inf, where
gamma_s is not real: it is written as the next double up and flagged.
Where g * g underflows (g < 1.5e-154: past the fold unless v_inf < 2e-69
m/s), D loses its digits: g is floored there and the radius flagged. The
grid's one precondition is r_min > b0. The residuals judge no radius: they
magnify the rounding of the root by about f**-1.5 (res1) and f**-1 (res2),
without bound near the throat and as q nears 1, and reach 1.2e-8 at
q = -30. The time-offset integrand is sqrt(E**2 - 1) times the
proper-distance one, so ``gp_time_offset`` is sqrt(E**2 - 1) times
``geometry.proper_distance``.

Verified against 40-digit mpmath.findroot of the residual system for q in
{-3, -1, 0, 0.5, 0.9} and v_inf in {0.01, 3e7, 1e8} m/s (c_s0 to 9.1e-16,
v^r to 1.7e-15 relative, every radius past the fold unconverged), for q in
{-10, -30, -100, -300} where those grids reach inside the fold (7.1e-15),
for q up to 0.99999 and at r = b0 (1 + d), d down to 1e-12 (2.2e-16).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError, DomainError, PoleError
from .geometry import (ShapeFunction, _check_throat, _float_or_array, _require_traversable,
                       metric_factor, proper_distance, uniform_grid)
from .tableio import CHUNK_ROWS, Table

__all__ = [
    "LIGHT_SPEED",
    "gp_time_offset",
    "gp_metric",
    "metric_congruence_check",
    "bec_metric",
    "matching_residuals",
    "zero_order_solution",
    "fold_radius",
    "solve_matching",
]

LIGHT_SPEED = 299792458.0  # c in m/s, exact
_G_FLOOR = math.sqrt(np.finfo(float).tiny)  # below it g * g underflows


def gp_time_offset(r: float, energy: float, shape: ShapeFunction) -> float:
    """Radial part of the flow-adapted time coordinate, zero at the throat
    (c = 1 units, same length unit as r): sqrt(E**2 - 1) times proper_distance."""
    if energy < 1.0:
        raise DomainError(f"energy per unit mass must be >= 1, got {energy!r}")
    return math.sqrt(energy * energy - 1.0) * proper_distance(shape, r)


def _metric(r, g_tt, g_tr, g_rr) -> tuple:
    """(g_tt, g_tr, g_rr) broadcast against r and each other."""
    return tuple(map(_float_or_array, np.broadcast_arrays(r, g_tt, g_tr, g_rr)[1:]))


def gp_metric(r: float | np.ndarray, gamma: float | np.ndarray,
              c_ref: float | np.ndarray, shape: ShapeFunction) -> tuple:
    """Wormhole metric (g_tt, g_tr, g_rr) in the flow-adapted coordinates
    of an observer with Lorentz factor gamma.

    Acoustic mode is the same formula with c_ref the background sound
    speed and gamma the acoustic Lorentz factor. gamma = 1 gives back the
    diagonal static metric.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 1.0):
        raise DomainError(f"gamma must be >= 1, got {float(gamma.min())!r}")
    _require_traversable(shape, "the flow-adapted construction")
    factor = np.asarray(metric_factor(shape, r))
    if np.any(factor == 0.0):
        raise PoleError(f"g_rr diverges at the throat r = {shape.b0!r}")
    gamma2 = gamma * gamma
    return _metric(r, -c_ref * c_ref / gamma2,
                   c_ref / gamma2 * np.sqrt((gamma2 - 1.0) / factor),
                   1.0 / (gamma2 * factor))


def metric_congruence_check(r: float, gamma: float, c_ref: float,
                            shape: ShapeFunction) -> float:
    """Max relative deviation of the flow-adapted metric, pulled back
    through the coordinate change, from the diagonal static metric.

    The construction is a coordinate change and not a new geometry, so
    this must vanish to rounding for all valid inputs. The deviation is
    normalized by the largest entry of the diagonal target.
    """
    g_tt, g_tr, g_rr = gp_metric(r, gamma, c_ref, shape)
    block = np.array([[g_tt, g_tr], [g_tr, g_rr]])
    factor = metric_factor(shape, r)
    alpha = math.sqrt((gamma * gamma - 1.0) / factor) / gamma
    jacobian = np.array([[gamma, gamma * alpha / c_ref],
                         [0.0, 1.0]])
    transformed = jacobian.T @ block @ jacobian
    target = np.array([[-c_ref * c_ref, 0.0],
                       [0.0, 1.0 / factor]])
    scale = np.max(np.abs(target))
    return float(np.max(np.abs(transformed - target)) / scale)


def bec_metric(r: float | np.ndarray, c_s: float | np.ndarray,
               v_r: float | np.ndarray) -> tuple:
    """Effective metric (g_tt, g_tr, g_rr) of a condensate with sound speed
    c_s and radial flow v_r, as line-element components (conformal
    prefactor dropped)."""
    c_s = np.asarray(c_s, dtype=float)
    if np.any(c_s <= 0.0):
        raise DomainError(f"sound speed must be positive, got {float(c_s.min())!r}")
    speed = c_s / LIGHT_SPEED
    coupling = 1.0 - speed * speed
    flow = np.asarray(v_r, dtype=float) / LIGHT_SPEED
    return _metric(r, -c_s * c_s, -coupling * v_r, 1.0 + coupling * (flow * flow))


def matching_residuals(r: float | np.ndarray, cs0: float | np.ndarray,
                       v_r: float | np.ndarray, v_inf: float, shape: ShapeFunction
                       ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residuals of the exact component matching at radius r: gp_metric
    (acoustic mode: c_ref = cs0, gamma = gamma_s) minus bec_metric (sound
    speed cs0/gamma_s = sqrt(cs0^2 - v_inf^2), inflow speed v_r).

    res1 is the dt*dr difference times gamma_s/cs0, res2 the dr^2
    difference; both vanish when (cs0, v_r) realize the wormhole seen by
    the infalling observer. Floats give a pair of floats; arrays give a
    pair of arrays.
    """
    cs0 = np.asarray(cs0, dtype=float)
    if np.any(cs0 <= v_inf):
        raise DomainError(f"need cs0 > v_inf for a real acoustic Lorentz "
                          f"factor, got cs0 = {float(np.min(cs0))!r}, v_inf = {v_inf!r}")
    ratio = v_inf / cs0
    gs = 1.0 / np.sqrt(1.0 - ratio * ratio)
    _, wormhole_tr, wormhole_rr = gp_metric(r, gs, cs0, shape)
    _, condensate_tr, condensate_rr = bec_metric(r, cs0 / gs, np.negative(v_r))
    return (_float_or_array((wormhole_tr - condensate_tr) * (gs / cs0)),
            _float_or_array(wormhole_rr - condensate_rr))


def zero_order_solution(r: float | np.ndarray, v_inf: float, shape: ShapeFunction
                        ) -> float | np.ndarray:
    """c_s0 of the small-velocity limit of the matching system, profile3d's
    lab flow: c_s0 = v_inf (r/b0)**((1-q)/2), a power of r/b0 so that
    c_s0(b0) = v_inf exactly. Its v^r is v_inf at every radius."""
    _require_traversable(shape, "the flow-adapted construction")
    r = _check_throat(shape.b0, r)
    return _float_or_array(v_inf * np.power(r / shape.b0, 0.5 * (1.0 - shape.q)))


def fold_radius(v_inf: float, shape: ShapeFunction) -> float:
    """Radius where the matching discriminant vanishes; beyond it the
    system has no real solution. A radius that overflows is inf."""
    _require_traversable(shape, "the flow-adapted construction")
    ratio = (LIGHT_SPEED ** 2 + v_inf ** 2) / (2.0 * v_inf * LIGHT_SPEED)
    with np.errstate(over="ignore"):
        return shape.b0 * float(np.power(ratio, 2.0 / (1.0 - shape.q)))


def _closed_form(radii: np.ndarray, v_inf: float, shape: ShapeFunction,
                 k: float) -> tuple[np.ndarray, ...]:
    """(cs0, vr, res1, res2, converged) of the closed-form root at each
    radius, with k = (v_inf/c)**2 (module docstring)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        f = metric_factor(shape, radii)
        # floored where g * g underflows, so the flagged cells stay finite
        g = np.maximum((shape.b0 / radii) ** (1.0 - shape.q), _G_FLOOR)
        bracket = g * (1.0 - k) ** 2 - 4.0 * f * k   # D / g, negative past the fold
        disc = np.maximum(g * bracket, 0.0)
        xf = 0.5 * (g * (1.0 - k) + np.sqrt(disc))   # X f
        x = xf / f
        gs2f = 1.0 + (xf - g)   # (1 + X) f, as f + g = 1
        # a c_s0 that rounds to v_inf has no real gamma_s: the next double up, flagged
        root = v_inf * np.sqrt(gs2f) / np.sqrt(xf)
        cs0 = np.maximum(root, np.nextafter(v_inf, math.inf))
        # x > k up to the fold; past it the clamped root can equal k, where
        # no v^r balances the cross terms: keep that flagged radius finite
        gap = x - k
        gap[gap == 0.0] = np.spacing(k)
        vr = v_inf * (x / gap) / np.sqrt(gs2f)
        res1, res2 = matching_residuals(radii, cs0, vr, v_inf, shape)
        return cs0, vr, res1, res2, (root > v_inf) & (bracket >= 0.0) & (g > _G_FLOOR)


def solve_matching(v_inf: float, shape: ShapeFunction, r_min: float, r_max: float,
                   step: float) -> tuple[Table, dict]:
    """Solve the exact matching system on a radial grid, in closed form,
    with c = LIGHT_SPEED and v_inf < c; returns the table and its solver
    statistics.

    The one grid precondition is r_min > b0 (g_rr diverges at the throat):
    a grid starting at or inside the throat is a DomainError. A radius
    converges where it lies at or inside the fold and its c_s0 does not
    round to v_inf (module docstring). A whole-grid failure is a
    ConvergenceError naming its cause, the fold if the grid lies past it,
    else c_s0 rounding to v_inf; arithmetic leaving the finite doubles
    raises FloatingPointError.

    The statistics are the point counts, the largest absolute residuals
    and the largest relative deviation of (cs0, vr) from the small-velocity
    limit, all maxima over the converged radii (past the fold the values
    solve nothing). The radii are solved in blocks of
    CHUNK_ROWS into the preallocated output columns, which gives the bits
    of solving all at once, and each block's maxima are taken as the block
    is solved: beside the six columns, the working set is one block's ~25
    temporaries, about 0.2 MiB whatever the grid size.
    """
    _require_traversable(shape, "the flow-adapted construction")
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    if not v_inf < LIGHT_SPEED:
        raise DomainError(f"need v_inf < c = {LIGHT_SPEED!r} m/s, got v_inf = {v_inf!r}")
    if r_max < r_min:
        raise DomainError(f"need r_max >= r_min, got [{r_min!r}, {r_max!r}]")
    if not r_min > shape.b0:
        raise DomainError(f"grid must start outside the throat r = b0 = {shape.b0!r}, "
                          f"got r_min = {r_min!r}")

    radii = uniform_grid(r_min, r_max - r_min, step)
    k = (v_inf / LIGHT_SPEED) ** 2
    cs0, vr, res1, res2 = (np.empty_like(radii) for _ in range(4))
    converged = np.empty(radii.shape, dtype=bool)
    maxima = []
    for start in range(0, radii.size, CHUNK_ROWS):
        block = slice(start, start + CHUNK_ROWS)
        cs0[block], vr[block], res1[block], res2[block], converged[block] = _closed_form(
            radii[block], v_inf, shape, k)
        keep = converged[block]
        if keep.any():
            cs0_ref = zero_order_solution(radii[block][keep], v_inf, shape)
            maxima.append((np.abs(res1[block][keep]).max(), np.abs(res2[block][keep]).max(),
                           np.max(np.abs(cs0[block][keep] - cs0_ref) / cs0_ref),
                           np.max(np.abs(vr[block][keep] - v_inf) / v_inf)))

    if not maxima:
        fold = fold_radius(v_inf, shape)
        cause = (f"no real solution beyond the fold at r = {fold!r}" if r_min > fold else
                 f"at every radius c_s0 rounds to v_inf = {v_inf!r} or (b0/r)**(2-2q) "
                 f"underflows, though the grid starts at or inside the fold at r = {fold!r}")
        raise ConvergenceError(
            f"matching solve failed at every radius in [{r_min!r}, {r_max!r}]: {cause}")
    max_res1, max_res2, dev_cs0, dev_vr = np.max(maxima, axis=0).tolist()
    return (Table({"r_um": radii, "cs0_m_per_s": cs0, "vr_m_per_s": vr,
                   "res1": res1, "res2": res2, "converged": converged}),
            {"points": int(radii.size), "points_converged": int(converged.sum()),
             "max_abs_residual1": max_res1, "max_abs_residual2": max_res2,
             "max_rel_deviation_from_zero_order": {"cs0": dev_cs0, "vr": dev_vr}})
