"""3+1D lab profiles: c_s0(x), B(x), a(x) over the lab coordinate x = R -+ d
sampled from the throat out, field-asymptote detection, and the
healing-length resolution audit. The parts return plain values (a
``Table``, lists of positions, a radius, the ``resolution`` section);
``cli.cmd_profile3d`` composes the run's report from them.

The lab flow c_s0 = v_inf (r/b0)**((1-q)/2), v^r = v_inf is the small-velocity
matching solution (``gp3d.zero_order_solution``). The shape b = b0 (r/b0)**q,
q < 1, enters the rest through the rise r/b - 1 (``geometry._rise``): c_s =
v_inf sqrt(rise), a/a_bg = (v_inf/c~_s)**2 rise, and the field pole sits at
r* = b0 (1 + (c~_s/v_inf)**2)**(1/(1-q)). Verified against 40-digit mpmath
for q in {-3, -1, 0, 0.5, 0.9} (c_s0 within 4 ulp, c_s and a/a_bg 6, r* 4).

``lab_profiles_3d`` is built from the three public formulas: a/a_bg from
``scattering_profile_3d``, then B outside the pole band from
``field_profile_3d``, then (c_s0, c_s) from ``sound_speed_profile_3d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .exceptions import DomainError, PoleError
from .feshbach import AtomSpecies, CondensateSpec, healing_length
from .geometry import (ShapeFunction, _float_or_array, _require_traversable,
                       _rise, uniform_grid)
from .gp3d import zero_order_solution
from .tableio import Table

__all__ = [
    "LabLayout",
    "sound_speed_profile_3d",
    "asymptote_radius",
    "field_profile_3d",
    "scattering_profile_3d",
    "lab_profiles_3d",
    "detect_asymptotes",
    "analytic_asymptote_positions",
    "resolution_audit",
]


@dataclass(frozen=True)
class LabLayout:
    """Two-branch lab coordinate x = R -+ d, the throat at x = R, so r = d + b0
    spans [b0, R + b0] on each branch; 2R must be finite."""

    R: float
    shape: ShapeFunction

    def __post_init__(self) -> None:
        if not 0.0 < 2.0 * self.R < math.inf:
            raise DomainError(f"branch length R must be positive, 2R finite, got {self.R!r}")
        _require_traversable(self.shape, "the 3+1D lab profile")


def sound_speed_profile_3d(r: float | np.ndarray, v_inf: float, shape: ShapeFunction
                           ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(cs0, cs) at radius r: cs0 = v_inf (r/b0)**((1-q)/2) (the lab flow)
    and cs = sqrt(cs0^2 - v_inf^2)."""
    rise = _rise(shape, r, "the 3+1D lab profile")
    return (zero_order_solution(r, v_inf, shape), _float_or_array(v_inf * np.sqrt(rise)))


def asymptote_radius(v_inf: float, shape: ShapeFunction, spec: CondensateSpec) -> float:
    """Radius r* where the required field diverges; one that overflows is inf."""
    _require_traversable(shape, "the 3+1D lab profile")
    ratio = spec.background_sound_speed / v_inf
    with np.errstate(over="ignore"):
        return shape.b0 * float(np.power(1.0 + ratio * ratio, 1.0 / (1.0 - shape.q)))


def field_profile_3d(r: float | np.ndarray, v_inf: float, shape: ShapeFunction,
                     spec: CondensateSpec) -> float | np.ndarray:
    """Magnetic field (Gauss) realizing the 3+1D sound-speed profile; it has
    a pole where the detuning denominator 1 - a/a_bg vanishes."""
    denom = 1.0 - scattering_profile_3d(r, v_inf, shape, spec)
    if np.any(denom == 0.0):
        raise PoleError(f"field diverges at r* = "
                        f"{asymptote_radius(v_inf, shape, spec)!r}")
    return spec.resonance.width / denom + spec.resonance.b_res


def scattering_profile_3d(r: float | np.ndarray, v_inf: float, shape: ShapeFunction,
                          spec: CondensateSpec) -> float | np.ndarray:
    """a(r)/a_bg = (v_inf/c~_s)**2 ((r/b0)**(1-q) - 1); grows without bound
    in r and is reported as-is."""
    rise = _rise(shape, r, "the 3+1D lab profile")
    ratio = np.float64(v_inf) / spec.background_sound_speed  # overflow obeys errstate
    return _float_or_array(ratio * ratio * rise)


def lab_profiles_3d(layout: LabLayout, v_inf: float, spec: CondensateSpec,
                    step: float, *, pole_delta: float) -> Table:
    """Sample the 3+1D control quantities at d = k*step, k = 0 .. floor(R/step),
    from the throat: they depend on x only through r = d + b0, so the table is
    the half from the throat out (x_um holds d) mirrored at x = R, written
    whole with x_um = R -+ d. Samples with |1 - a/a_bg| < pole_delta are
    flagged near_asymptote and carry no field (NaN ``B_gauss``, empty in CSV):
    they localize the unrealizable zone instead of hiding it. Neighbours at one
    radius (a step below the double spacing there) are a DomainError;
    arithmetic leaving the finite doubles, FloatingPointError."""
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    shape = layout.shape
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        d, r = uniform_grid(0.0, layout.R, step), uniform_grid(shape.b0, layout.R, step)
        a_over = scattering_profile_3d(r, v_inf, shape, spec)
        near = np.abs(1.0 - a_over) < pole_delta
        b = np.full(d.size, math.nan)
        b[~near] = field_profile_3d(r[~near], v_inf, shape, spec)
        cs0, cs = sound_speed_profile_3d(r, v_inf, shape)
        return Table({"x_um": d, "r_um": r, "cs0_m_per_s": cs0, "cs_m_per_s": cs, "B_gauss": b,
                      "a_over_abg": a_over, "near_asymptote": near},
                     mirror_at=layout.R, blank_nan=("B_gauss",))


def detect_asymptotes(profile: Table) -> list[float]:
    """Locate field poles from the ``lab_profiles_3d`` half.

    Poles sit exactly where a/a_bg crosses 1, so sign changes of
    (a/a_bg - 1) between neighbouring samples localize them to one grid
    step; for the midpoint d of each bracketing pair x = R -+ d is reported.
    Neighbours are compared by sign: a product of two gaps can overflow.
    """
    d = profile.columns["x_um"]
    gap = profile.columns["a_over_abg"] - 1.0
    exact = gap == 0.0
    crossing = np.concatenate(([False], np.sign(gap[:-1]) * np.sign(gap[1:]) < 0.0))
    found = np.flatnonzero(exact | crossing)
    offsets = np.where(exact[found], d[found], 0.5 * (d[found - 1] + d[found]))
    return (profile.mirror_at - offsets[::-1]).tolist() + (profile.mirror_at + offsets).tolist()


def analytic_asymptote_positions(layout: LabLayout, v_inf: float,
                                 spec: CondensateSpec) -> list[float]:
    """Lab positions x = R -+ (r* - b0) of the field poles, when the pole
    radius falls inside the layout."""
    r_star = asymptote_radius(v_inf, layout.shape, spec)
    if r_star > layout.R + layout.shape.b0:
        return []
    offset = r_star - layout.shape.b0
    return [layout.R - offset, layout.R + offset]


def resolution_audit(reference_cs0: float, species: AtomSpecies, step: float, *,
                     shape: ShapeFunction, factor: float) -> dict:
    """Compare the grid step with the healing length at the reference cs0
    (m/s): the smallest relevant one, where xi is largest.

    The shape's throat radius is also checked against xi: a throat smaller
    than the healing length sits below the scale the hydrodynamic
    description resolves. Returns the report's ``resolution`` section.
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    reference = float(reference_cs0)
    xi_um = healing_length(reference, species) * 1e6
    step_ok = step >= factor * xi_um
    throat_ok = shape.b0 >= xi_um
    return {"species": species.name, "reference_cs0_m_per_s": reference,
            "healing_length_um": xi_um, "step_um": step, "step_ratio": step / xi_um,
            "step_ok": step_ok, "factor": factor, "throat_b0_um": shape.b0,
            "throat_ok": throat_ok, "passed": step_ok and throat_ok}
