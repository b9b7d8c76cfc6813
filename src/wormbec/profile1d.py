"""1+1D recipe: control profiles B(x), a(x), c_s(x) over the lab coordinate
and the slope-based feasibility audit against demonstrated field control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .feshbach import BOHR_RADIUS, HBAR, CondensateSpec, FeshbachResonance
from .geometry import (ShapeFunction, _require_outside_throat, metric_factor,
                       uniform_grid)

__all__ = [
    "SLOPE_CAPABILITY_PER_UM",
    "Profile1D",
    "Feasibility1D",
    "field_profile_1d",
    "scattering_profile_1d",
    "lab_coordinate_1d",
    "lab_coordinate_inverse",
    "slope_metric",
    "symmetric_grid",
    "sample_profile_1d",
    "feasibility_1d",
]

# Demonstrated spatial control of a/(100 a0), per micron.
SLOPE_CAPABILITY_PER_UM = 0.067

CSV_COLUMNS = ("x_um", "r_um", "a_over_abg", "a_over_100a0",
               "B_gauss", "cs_m_per_s", "valid")


@dataclass(frozen=True)
class Profile1D:
    """The 1+1D control profile, one array per CSV column (same order)."""

    x: np.ndarray
    r: np.ndarray
    a_over_abg: np.ndarray
    a_over_100a0: np.ndarray
    b_gauss: np.ndarray
    c_s: np.ndarray
    valid: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(vars(self).values())


@dataclass(frozen=True)
class Feasibility1D:
    """Result of the slope audit: max |d[a/(100a0)]/dx| outside the
    throat-exclusion window versus the capability threshold."""

    max_slope: float
    slope_at: float
    threshold: float
    feasible: bool
    window: float


def field_profile_1d(shape: ShapeFunction, res: FeshbachResonance, r: float) -> float:
    """Magnetic field (Gauss) that realizes the target sound-speed profile."""
    _require_outside_throat(shape, r)
    return (r / shape.b0) ** (1.0 - shape.q) * res.width + res.b_res


def scattering_profile_1d(shape: ShapeFunction, r: float) -> float:
    """a(r)/a_bg = 1 - (b0/r)**(1-q).

    Identical to the metric factor: that equality is the design condition
    the field profile enforces.
    """
    return metric_factor(shape, r)


def lab_coordinate_1d(r: float, b0: float, side: int = 1) -> float:
    """Lab coordinate x = +-(r - b0), zero at the throat."""
    if r < b0:
        raise DomainError(f"r = {r!r} is inside the throat (b0 = {b0!r})")
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    return side * (r - b0)


def lab_coordinate_inverse(x: float, b0: float) -> tuple[float, int]:
    """Map a lab coordinate back to (r, side)."""
    return abs(x) + b0, (1 if x >= 0.0 else -1)


def slope_metric(shape: ShapeFunction, res: FeshbachResonance, x: float) -> float:
    """Analytic d[a/(100 a0)]/d|x| at lab coordinate x (per micron).

    At x = 0 this evaluates to the finite one-sided throat limit
    (1-q)/b0 * a_bg/(100 a0); the profile itself only has a kink there.
    """
    scale = res.a_bg / (100.0 * BOHR_RADIUS)
    r = abs(x) + shape.b0
    return scale * (1.0 - shape.q) * shape.b0 ** (1.0 - shape.q) * r ** (shape.q - 2.0)


def symmetric_grid(x_max: float, step: float) -> np.ndarray:
    """Grid over [-x_max, x_max] containing x = 0 exactly."""
    half = uniform_grid(0.0, x_max, step)
    return np.concatenate((-half[:0:-1], half))


def sample_profile_1d(shape: ShapeFunction, spec: CondensateSpec,
                      x_max: float = 20.0, step: float = 0.1) -> Profile1D:
    """Sample all 1+1D control quantities on a symmetric lab grid.

    Samples where the scattering length goes negative (q > 1) carry
    valid=False and a NaN sound speed. log, expm1 and pow run per element
    in the C library, as in the scalar functions: numpy's SIMD versions
    may round differently in the last bit.
    """
    x = symmetric_grid(x_max, step)
    r = np.abs(x) + shape.b0
    ratio = (r / shape.b0).tolist()
    exponent = 1.0 - shape.q
    res = spec.resonance
    a_over = np.array([-math.expm1(-exponent * math.log(t)) for t in ratio])
    b = np.array([t ** exponent for t in ratio]) * res.width + res.b_res
    valid = a_over >= 0.0
    # the scattering route keeps c_s(throat) exactly zero
    rho_term = 4.0 * math.pi * spec.density
    c_s = HBAR / spec.species.mass * np.sqrt(
        rho_term * np.where(valid, res.a_bg * a_over, math.nan))
    return Profile1D(x=x, r=r, a_over_abg=a_over,
                     a_over_100a0=a_over * res.a_bg / (100.0 * BOHR_RADIUS),
                     b_gauss=b, c_s=c_s, valid=valid)


def feasibility_1d(shape: ShapeFunction, spec: CondensateSpec,
                   x_max: float = 20.0, step: float = 0.1, *,
                   threshold: float = SLOPE_CAPABILITY_PER_UM,
                   window: float = 1.0) -> Feasibility1D:
    """Audit the profile slope against the capability threshold.

    The max of |slope_metric| is taken over grid points with |x| >= window
    (the profile is even in x, so only the x >= 0 half needs scanning).
    """
    half = uniform_grid(0.0, x_max, step)
    candidates = half[half >= window]
    if not candidates.size:
        raise DomainError("exclusion window leaves no grid points")
    # slope_metric over the candidates, with its pow per element in libm
    q, b0 = shape.q, shape.b0
    coefficient = (spec.resonance.a_bg / (100.0 * BOHR_RADIUS)
                   * (1.0 - q) * b0 ** (1.0 - q))
    slopes = np.abs([coefficient * r ** (q - 2.0)
                     for r in (candidates + b0).tolist()])
    slopes[np.isnan(slopes)] = -math.inf  # NaN never wins, as in a strict > scan
    best = int(np.argmax(slopes))  # the first maximum
    max_slope = float(slopes[best])
    return Feasibility1D(max_slope=max_slope, slope_at=float(candidates[best]),
                         threshold=threshold,
                         feasible=max_slope <= threshold, window=window)
