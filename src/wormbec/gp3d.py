"""3+1D construction for the inverse-power (Ellis) wormhole b(r) = b0**2/r.

A radially infalling observer with asymptotic speed v_inf defines
flow-adapted coordinates of Gullstrand-Painleve type. In those coordinates
the wormhole metric picks up a dt*dr cross term with exactly the structure
of a condensate's effective metric, so matching the two component by
component yields, at every radius, two equations for the background sound
speed c_s0 and the flow velocity v^r (``matching_residuals``).

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
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError, PoleError
from .geometry import _integrate_from_throat, uniform_grid

__all__ = [
    "DEFAULT_LIGHT_SPEED",
    "ObserverSpec",
    "MetricAtPoint",
    "GpSolution",
    "lorentz_gamma",
    "radial_geodesic_velocity",
    "gp_time_offset",
    "gp_metric",
    "metric_congruence_check",
    "bec_metric",
    "matching_residuals",
    "zero_order_solution",
    "fold_radius",
    "solve_matching",
]

DEFAULT_LIGHT_SPEED = 299792458.0  # m/s, exact

CSV_COLUMNS = ("r_um", "cs0_m_per_s", "vr_m_per_s", "res1", "res2", "converged")


def lorentz_gamma(v_inf: float, c_ref: float) -> float:
    """gamma = 1/sqrt(1 - (v_inf/c_ref)**2) for 0 <= v_inf < c_ref."""
    if c_ref <= 0.0:
        raise DomainError(f"reference speed must be positive, got {c_ref!r}")
    if not 0.0 <= v_inf < c_ref:
        raise DomainError(f"need 0 <= v_inf < c_ref, got v_inf = {v_inf!r}, "
                          f"c_ref = {c_ref!r}")
    return 1.0 / math.sqrt(1.0 - (v_inf / c_ref) ** 2)


@dataclass(frozen=True)
class ObserverSpec:
    """Infalling observer: asymptotic speed and its reference speed
    (the light speed in real mode, the background sound speed in
    acoustic mode)."""

    v_inf: float
    reference_speed: float

    def __post_init__(self) -> None:
        if not 0.0 < self.v_inf < self.reference_speed:
            raise DomainError(
                f"need 0 < v_inf < reference_speed, got v_inf = {self.v_inf!r}, "
                f"reference_speed = {self.reference_speed!r}")

    @property
    def gamma(self) -> float:
        return lorentz_gamma(self.v_inf, self.reference_speed)


@dataclass(frozen=True)
class MetricAtPoint:
    """t-r block plus spherical factor of a spherically symmetric metric.

    Convention: ds^2 = g_tt dt^2 + 2 g_tr dt dr + g_rr dr^2
    + spherical * (dtheta^2 + sin^2(theta) dphi^2), with spherical = r^2.
    """

    r: float
    g_tt: float
    g_tr: float
    g_rr: float
    spherical: float

    def tr_block(self) -> np.ndarray:
        return np.array([[self.g_tt, self.g_tr], [self.g_tr, self.g_rr]])

    @property
    def tr_determinant(self) -> float:
        return self.g_tt * self.g_rr - self.g_tr ** 2

    @property
    def is_lorentzian(self) -> bool:
        return self.g_tt < 0.0 and self.tr_determinant < 0.0


def _ellis_factor(r: float | np.ndarray, b0: float) -> float | np.ndarray:
    """1 - b0**2/r**2, factored to stay exact at the throat."""
    if b0 <= 0.0:
        raise DomainError(f"throat radius must be positive, got {b0!r}")
    if np.any(r < b0):
        raise DomainError(f"r = {float(np.min(r))!r} is inside the throat (b0 = {b0!r})")
    return (r - b0) * (r + b0) / (r * r)


def radial_geodesic_velocity(r: float, energy: float, b0: float) -> float:
    """dr/dtau of the ingoing radial geodesic (c = 1 units), zero angular
    momentum; always <= 0."""
    if energy < 1.0:
        raise DomainError(f"energy per unit mass must be >= 1, got {energy!r}")
    return -math.sqrt(_ellis_factor(r, b0) * (energy * energy - 1.0))


def _offset_integrand(u: np.ndarray, b0: float, energy_term: float) -> np.ndarray:
    # r = b0 + u**2; 1 - b0**2/r**2 = u**2 (2 b0 + u**2) / r**2 keeps the
    # integrand finite at the throat.
    r = b0 + u * u
    return 2.0 * energy_term * r / np.sqrt(u * u + 2.0 * b0)


def gp_time_offset(r: float, energy: float, b0: float, *,
                   rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> float:
    """Radial part of the flow-adapted time coordinate, zero at the throat
    (c = 1 units, same length unit as r)."""
    if energy < 1.0:
        raise DomainError(f"energy per unit mass must be >= 1, got {energy!r}")
    _ellis_factor(r, b0)  # domain check
    if r == b0 or energy == 1.0:
        return 0.0
    energy_term = math.sqrt(energy * energy - 1.0)
    return float(_integrate_from_throat(
        lambda u: _offset_integrand(u, b0, energy_term),
        b0, math.sqrt(r - b0), rel_tol, abs_tol))


def gp_metric(r: float, gamma: float, c_ref: float, b0: float) -> MetricAtPoint:
    """Wormhole metric in the flow-adapted coordinates of an observer with
    Lorentz factor gamma.

    Acoustic mode is the same formula with c_ref the background sound
    speed and gamma the acoustic Lorentz factor. gamma = 1 gives back the
    diagonal static metric.
    """
    if gamma < 1.0:
        raise DomainError(f"gamma must be >= 1, got {gamma!r}")
    factor = _ellis_factor(r, b0)
    if factor == 0.0:
        raise PoleError(f"g_rr diverges at the throat r = {b0!r}")
    gamma2 = gamma * gamma
    return MetricAtPoint(
        r=r,
        g_tt=-c_ref * c_ref / gamma2,
        g_tr=c_ref / gamma2 * math.sqrt((gamma2 - 1.0) / factor),
        g_rr=1.0 / (gamma2 * factor),
        spherical=r * r,
    )


def metric_congruence_check(r: float, gamma: float, c_ref: float, b0: float) -> float:
    """Max relative deviation of the flow-adapted metric, pulled back
    through the coordinate change, from the diagonal static metric.

    The construction is a coordinate change and not a new geometry, so
    this must vanish to rounding for all valid inputs. The deviation is
    normalized by the largest entry of the diagonal target.
    """
    block = gp_metric(r, gamma, c_ref, b0).tr_block()
    factor = _ellis_factor(r, b0)
    alpha = math.sqrt((gamma * gamma - 1.0) / factor) / gamma
    jacobian = np.array([[gamma, gamma * alpha / c_ref],
                         [0.0, 1.0]])
    transformed = jacobian.T @ block @ jacobian
    target = np.array([[-c_ref * c_ref, 0.0],
                       [0.0, 1.0 / factor]])
    scale = np.max(np.abs(target))
    return float(np.max(np.abs(transformed - target)) / scale)


def bec_metric(r: float, c_s: float, v_r: float,
               light_speed: float = DEFAULT_LIGHT_SPEED) -> MetricAtPoint:
    """Effective metric of a condensate with sound speed c_s and radial
    flow v_r, as line-element components (conformal prefactor dropped)."""
    if c_s <= 0.0:
        raise DomainError(f"sound speed must be positive, got {c_s!r}")
    coupling = 1.0 - (c_s / light_speed) ** 2
    return MetricAtPoint(
        r=r,
        g_tt=-c_s * c_s,
        g_tr=-coupling * v_r,
        g_rr=1.0 + coupling * (v_r / light_speed) ** 2,
        spherical=r * r,
    )


def matching_residuals(r: float | np.ndarray, cs0: float | np.ndarray,
                       v_r: float | np.ndarray, v_inf: float, b0: float,
                       light_speed: float = DEFAULT_LIGHT_SPEED
                       ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residuals of the exact component matching at radius r.

    res1 compares the dt*dr cross terms, res2 the dr^2 terms; both vanish
    when (cs0, v_r) realize the wormhole seen by the infalling observer.
    Floats give a pair of floats; arrays give a pair of arrays.
    """
    cs0 = np.asarray(cs0, dtype=float)
    if np.any(cs0 <= v_inf):
        raise DomainError(f"need cs0 > v_inf for a real acoustic Lorentz "
                          f"factor, got cs0 = {float(np.min(cs0))!r}, v_inf = {v_inf!r}")
    factor = _ellis_factor(np.asarray(r, dtype=float), b0)
    if np.any(factor == 0.0):
        raise PoleError(f"matching system is singular at the throat r = {b0!r}")
    gs = 1.0 / np.sqrt(1.0 - (v_inf / cs0) ** 2)
    c2 = light_speed * light_speed
    res1 = (np.sqrt((gs * gs - 1.0) / factor) / gs
            - v_r * (gs / cs0 - cs0 / (gs * c2)))
    res2 = (1.0 / (gs * gs * factor)
            - 1.0 - (1.0 - (cs0 / (light_speed * gs)) ** 2) * (v_r / light_speed) ** 2)
    if np.ndim(res1) == 0:
        return float(res1), float(res2)
    return res1, res2


def zero_order_solution(r: float, v_inf: float, b0: float) -> tuple[float, float]:
    """Small-velocity limit of the matching system: c_s0 linear in r with
    slope v_inf/b0, v^r constant."""
    if r < b0:
        raise DomainError(f"r = {r!r} is inside the throat (b0 = {b0!r})")
    return v_inf * (r / b0), v_inf


@dataclass(frozen=True)
class GpSolution:
    """Exact matching solution on a radial grid, with residual diagnostics."""

    radii: np.ndarray
    cs0: np.ndarray
    vr: np.ndarray
    residual1: np.ndarray
    residual2: np.ndarray
    converged: np.ndarray
    v_inf: float
    b0: float

    def zero_order_deviation(self) -> tuple[float, float]:
        """Max relative deviation of (cs0, vr) from the small-velocity limit."""
        cs0_ref = self.v_inf * (self.radii / self.b0)
        dev_cs0 = float(np.max(np.abs(self.cs0 - cs0_ref) / cs0_ref))
        dev_vr = float(np.max(np.abs(self.vr - self.v_inf) / self.v_inf))
        return dev_cs0, dev_vr

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.radii, self.cs0, self.vr, self.residual1,
                self.residual2, self.converged)


def fold_radius(v_inf: float, b0: float,
                light_speed: float = DEFAULT_LIGHT_SPEED) -> float:
    """Radius where the matching discriminant vanishes; beyond it the
    system has no real solution."""
    return b0 * (light_speed ** 2 + v_inf ** 2) / (2.0 * v_inf * light_speed)


def solve_matching(v_inf: float, b0: float, r_min: float, r_max: float,
                   step: float, *, light_speed: float = DEFAULT_LIGHT_SPEED,
                   tol: float = 1e-12, throat_epsilon: float = 1e-3) -> GpSolution:
    """Solve the exact matching system on a radial grid, in closed form.

    The grid must stay off the throat (g_rr diverges there), hence the
    r_min >= b0 * (1 + throat_epsilon) precondition. A radius counts as
    converged when both residuals are below tol; radii past the fold are
    flagged, and only a whole-grid failure raises. Arithmetic that leaves
    the finite doubles raises FloatingPointError.
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
        res1, res2 = matching_residuals(radii, cs0, vr, v_inf, b0, light_speed)
    converged = np.maximum(np.abs(res1), np.abs(res2)) < tol

    if not converged.any():
        raise ConvergenceError(
            f"matching solve failed at every radius in [{r_min!r}, {r_max!r}]: "
            f"no real solution beyond the fold at r = "
            f"{fold_radius(v_inf, b0, light_speed)!r}")
    return GpSolution(radii=radii, cs0=cs0, vr=vr, residual1=res1,
                      residual2=res2, converged=converged, v_inf=v_inf, b0=b0)
