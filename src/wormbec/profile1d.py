"""1+1D recipe: control profiles B(x), a(x), c_s(x) over the lab coordinate
and the slope-based feasibility audit against demonstrated field control.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError
from .feshbach import (BOHR_RADIUS, CondensateSpec, FeshbachResonance,
                       sound_speed_from_scattering)
from .geometry import (ShapeFunction, _check_throat, _float_or_array,
                       metric_factor, uniform_grid)
from .tableio import Table

__all__ = [
    "field_profile_1d",
    "scattering_profile_1d",
    "slope_metric",
    "sample_profile_1d",
    "feasibility_1d",
]

def field_profile_1d(shape: ShapeFunction, res: FeshbachResonance,
                     r: float | np.ndarray) -> float | np.ndarray:
    """Magnetic field (Gauss) that realizes the target sound-speed profile."""
    r = _check_throat(shape.b0, r)
    return _float_or_array(np.power(r / shape.b0, 1.0 - shape.q) * res.width + res.b_res)


def scattering_profile_1d(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """a(r)/a_bg = 1 - (b0/r)**(1-q).

    Identical to the metric factor: that equality is the design condition
    the field profile enforces.
    """
    return metric_factor(shape, r)


def slope_metric(shape: ShapeFunction, res: FeshbachResonance,
                 x: float | np.ndarray) -> float | np.ndarray:
    """Analytic d[a/(100 a0)]/d|x| at lab coordinate x (per micron).

    scale (1-q)/b0 (b0/r)**(2-q), r = |x| + b0, scale = a_bg/(100 a0): scaling
    every length by 2**k scales it by exactly 2**-k. At x = 0 this is the
    finite one-sided throat limit; the profile itself only has a kink there.
    A power that underflows gives 0 (q = -299, b0 = 0.5, x = 20); a (1-q)/b0
    that overflows inf, and inf times an underflowed power NaN (feasibility_1d
    never picks a NaN).
    """
    scale = res.a_bg / (100.0 * BOHR_RADIUS)
    r = np.abs(np.asarray(x, dtype=float)) + shape.b0
    with np.errstate(over="ignore", invalid="ignore"):
        return _float_or_array(scale * (1.0 - shape.q) / shape.b0
                               * np.power(shape.b0 / r, 2.0 - shape.q))


def sample_profile_1d(shape: ShapeFunction, spec: CondensateSpec,
                      x_max: float, step: float) -> Table:
    """Sample all 1+1D control quantities on the lab grid over [-x_max, x_max]
    that holds x = 0.

    Every quantity depends on x only through r = |x| + b0, so the table is
    even about the throat: it is returned as its x >= 0 half, mirrored at
    x = 0 (``tableio.write_table`` writes the whole table). Samples where
    the scattering length goes negative (q > 1) carry valid=False and a NaN
    sound speed. Neighbours at one radius (a step below the double spacing
    there) are a DomainError; arithmetic leaving the finite doubles,
    FloatingPointError.
    """
    res = spec.resonance
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x, r = uniform_grid(0.0, x_max, step), uniform_grid(shape.b0, x_max, step)
        a_over = scattering_profile_1d(shape, r)
        valid = a_over >= 0.0
        # the scattering route keeps c_s(throat) exactly zero
        c_s = sound_speed_from_scattering(np.where(valid, res.a_bg * a_over, math.nan), spec)
        return Table({"x_um": x, "r_um": r, "a_over_abg": a_over,
                      "a_over_100a0": a_over * res.a_bg / (100.0 * BOHR_RADIUS),
                      "B_gauss": field_profile_1d(shape, res, r), "cs_m_per_s": c_s,
                      "valid": valid}, mirror_at=0.0)


def feasibility_1d(shape: ShapeFunction, spec: CondensateSpec, profile: Table, *,
                   threshold: float, window: float) -> dict:
    """Audit the slope of ``profile``, the ``sample_profile_1d`` table of
    (shape, spec), against the capability threshold: the ``feasibility``
    section of the 1+1D report. The max of |slope_metric| is taken over the
    table's x >= 0 half (the profile is even in x) where |x| >= window.
    """
    half = profile.columns["x_um"]
    candidates = half[half >= window]
    if not candidates.size:
        raise DomainError("exclusion window leaves no grid points")
    slopes = np.abs(slope_metric(shape, spec.resonance, candidates))
    slopes[np.isnan(slopes)] = -math.inf  # NaN never wins, as in a strict > scan
    best = int(np.argmax(slopes))  # the first maximum
    max_slope = float(slopes[best])
    return {"max_slope_per_um": max_slope, "slope_at_x_um": float(candidates[best]),
            "threshold_per_um": threshold, "exclusion_window_um": window,
            "feasible": max_slope <= threshold}
