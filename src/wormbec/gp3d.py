"""3+1D construction for the inverse-power (Ellis) wormhole b(r) = b0**2/r.

A radially infalling observer with asymptotic speed v_inf defines
flow-adapted coordinates of Gullstrand-Painleve type. In those coordinates
the wormhole metric picks up a dt*dr cross term with exactly the structure
of a condensate's effective metric, so matching the two component by
component yields, at every radius, a 2-unknown nonlinear system for the
background sound speed c_s0 and the flow velocity v^r. The system is
solved here without approximation by a damped Newton iteration seeded
with its small-velocity limit (v^r = v_inf, c_s0 = v_inf * r / b0). On
a grid, the seed and its residuals are evaluated for all radii at once,
and only the radii where the seed misses the tolerance iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    "solve_matching",
    "solve_matching_point",
]

DEFAULT_LIGHT_SPEED = 2.998e8  # m/s

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


def _ellis_factor(r: float, b0: float) -> float:
    """1 - b0**2/r**2, factored to stay exact at the throat."""
    if b0 <= 0.0:
        raise DomainError(f"throat radius must be positive, got {b0!r}")
    if r < b0:
        raise DomainError(f"r = {r!r} is inside the throat (b0 = {b0!r})")
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


def _acoustic_gamma(cs0: float, v_inf: float) -> float:
    if cs0 <= v_inf:
        raise DomainError(f"need cs0 > v_inf for a real acoustic Lorentz "
                          f"factor, got cs0 = {cs0!r}, v_inf = {v_inf!r}")
    return 1.0 / math.sqrt(1.0 - (v_inf / cs0) ** 2)


def matching_residuals(r: float, cs0: float, v_r: float, v_inf: float,
                       b0: float, light_speed: float = DEFAULT_LIGHT_SPEED
                       ) -> tuple[float, float]:
    """Residuals of the exact component matching at radius r.

    res1 compares the dt*dr cross terms, res2 the dr^2 terms; both vanish
    when (cs0, v_r) realize the wormhole seen by the infalling observer.
    """
    gs = _acoustic_gamma(cs0, v_inf)
    factor = _ellis_factor(r, b0)
    if factor == 0.0:
        raise PoleError(f"matching system is singular at the throat r = {b0!r}")
    c2 = light_speed * light_speed
    res1 = (math.sqrt((gs * gs - 1.0) / factor) / gs
            - v_r * (gs / cs0 - cs0 / (gs * c2)))
    res2 = (1.0 / (gs * gs * factor)
            - 1.0 - (1.0 - (cs0 / (light_speed * gs)) ** 2) * (v_r / light_speed) ** 2)
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


def _fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    n = z.size
    jacobian = np.empty((n, n))
    for j in range(n):
        h = 1e-7 * max(abs(z[j]), 1.0)
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        jacobian[:, j] = (fun(zp) - fun(zm)) / (2.0 * h)
    return jacobian


def solve_matching_point(r: float, v_inf: float, b0: float, *,
                         light_speed: float = DEFAULT_LIGHT_SPEED,
                         tol: float = 1e-12, max_iterations: int = 50,
                         seed: tuple[float, float] | None = None
                         ) -> tuple[float, float, float, float, bool]:
    """Solve the matching system at one radius.

    Damped Newton in (gamma_s, v_r); cs0 is recovered as
    v_inf * gamma_s / sqrt(gamma_s**2 - 1), which keeps the square-root
    relation between cs0 and gamma_s out of the iteration. Seeded with the
    small-velocity limit unless an explicit (cs0, v_r) seed is given.

    Returns (cs0, v_r, res1, res2, converged).
    """
    factor = _ellis_factor(r, b0)
    if factor == 0.0:
        raise PoleError(f"cannot solve at the throat r = {b0!r}")

    def cs0_of(gs: float) -> float:
        if not gs > 1.0:
            raise DomainError(f"gamma_s = {gs!r} must stay above 1")
        return v_inf * gs / math.sqrt(gs * gs - 1.0)

    def residual(z: np.ndarray) -> np.ndarray:
        gs, vr = z
        return np.array(matching_residuals(r, cs0_of(gs), vr, v_inf, b0, light_speed))

    if seed is None:
        z = np.array([1.0 / math.sqrt(factor), v_inf])
    else:
        cs0_seed, vr_seed = seed
        gs_seed = _acoustic_gamma(cs0_seed, v_inf)
        z = np.array([gs_seed, vr_seed])

    res = residual(z)
    converged = bool(np.max(np.abs(res)) < tol)
    for _ in range(max_iterations):
        if converged:
            break
        try:
            step = np.linalg.solve(_fd_jacobian(residual, z), -res)
        except (np.linalg.LinAlgError, DomainError):
            break  # singular, or a difference step took gamma_s to <= 1
        norm0 = float(np.max(np.abs(res)))
        damping = 1.0
        while damping > 1e-12:
            trial = z + damping * step
            if trial[0] > 1.0:  # gamma_s must stay above 1
                trial_res = residual(trial)
                if float(np.max(np.abs(trial_res))) < norm0:
                    z, res = trial, trial_res
                    break
            damping *= 0.5
        else:
            break
        converged = bool(np.max(np.abs(res)) < tol)

    gs, vr = z
    return cs0_of(gs), float(vr), float(res[0]), float(res[1]), converged


def _seed_residuals(radii: np.ndarray, v_inf: float, b0: float,
                    light_speed: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cs0 and both residuals of the small-velocity seed at every radius:
    solve_matching_point's operations in its order, with ``** 2`` per
    element in the C library, whose pow can differ from x*x in the last bit."""
    # cs0 <= v_inf gives NaN residuals, so the scalar solver raises there
    with np.errstate(all="ignore"):
        factor = (radii - b0) * (radii + b0) / (radii * radii)
        gs_seed = 1.0 / np.sqrt(factor)
        cs0 = v_inf * gs_seed / np.sqrt(gs_seed * gs_seed - 1.0)
        # matching_residuals(r, cs0, v_inf, v_inf, b0, light_speed)
        gs = 1.0 / np.sqrt(1.0 - np.array([t ** 2 for t in (v_inf / cs0).tolist()]))
        c2 = light_speed * light_speed
        res1 = (np.sqrt((gs * gs - 1.0) / factor) / gs
                - v_inf * (gs / cs0 - cs0 / (gs * c2)))
        coupling = 1.0 - np.array([t ** 2 for t in (cs0 / (light_speed * gs)).tolist()])
        res2 = 1.0 / (gs * gs * factor) - 1.0 - coupling * (v_inf / light_speed) ** 2
    return cs0, res1, res2


def solve_matching(v_inf: float, b0: float, r_min: float, r_max: float,
                   step: float, *, light_speed: float = DEFAULT_LIGHT_SPEED,
                   tol: float = 1e-12, throat_epsilon: float = 1e-3,
                   max_iterations: int = 50) -> GpSolution:
    """Solve the exact matching system on a radial grid.

    The grid must stay off the throat (g_rr diverges there), hence the
    r_min >= b0 * (1 + throat_epsilon) precondition. Points that fail to
    converge are flagged; only a whole-grid failure raises.
    """
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    if r_max < r_min:
        raise DomainError(f"need r_max >= r_min, got [{r_min!r}, {r_max!r}]")
    if r_min < b0 * (1.0 + throat_epsilon):
        raise DomainError(
            f"grid must start at r >= b0 * (1 + {throat_epsilon!r}) = "
            f"{b0 * (1.0 + throat_epsilon)!r}, got r_min = {r_min!r}")

    radii = uniform_grid(r_min, r_max - r_min, step)
    cs0, res1, res2 = _seed_residuals(radii, v_inf, b0, light_speed)
    vr = np.full(radii.size, v_inf)
    converged = np.maximum(np.abs(res1), np.abs(res2)) < tol
    for i in np.flatnonzero(~converged).tolist():
        cs0[i], vr[i], res1[i], res2[i], converged[i] = solve_matching_point(
            radii[i].item(), v_inf, b0, light_speed=light_speed, tol=tol,
            max_iterations=max_iterations)

    if not converged.any():
        raise ConvergenceError(
            f"matching solve failed at every radius in [{r_min!r}, {r_max!r}]")
    return GpSolution(radii=radii, cs0=cs0, vr=vr, residual1=res1,
                      residual2=res2, converged=converged, v_inf=v_inf, b0=b0)
