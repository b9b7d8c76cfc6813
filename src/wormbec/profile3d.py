"""3+1D lab profiles: c_s0(x), B(x), a(x) over the two-branch lab
coordinate, field-asymptote detection, and the healing-length resolution
audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .exceptions import DomainError, PoleError
from .feshbach import AtomSpecies, CondensateSpec, healing_length
from .geometry import _check_throat, _float_or_array, uniform_grid
from .tableio import Table

__all__ = [
    "LabLayout",
    "sound_speed_profile_3d",
    "detuning_denominator",
    "asymptote_radius",
    "field_profile_3d",
    "scattering_profile_3d",
    "lab_profiles_3d",
    "detect_asymptotes",
    "analytic_asymptote_positions",
    "resolution_audit",
    "feasibility_report_3d",
]


@dataclass(frozen=True)
class LabLayout:
    """Two-branch lab coordinate: x in [0, 2R] with the throat at x = R,
    so r = |x - R| + b0 spans [b0, R + b0] on each branch."""

    R: float
    b0: float

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise DomainError(f"branch length R must be positive, got {self.R!r}")
        _check_throat(self.b0)


def _radius_ratio_term(r: float | np.ndarray, b0: float) -> np.ndarray:
    """(r/b0)**2 - 1, factored to stay exact at the throat."""
    r = _check_throat(b0, r)
    return (r - b0) * (r + b0) / (b0 * b0)


def sound_speed_profile_3d(r: float | np.ndarray, v_inf: float, b0: float
                           ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(cs0, cs) at radius r: cs0 = v_inf r/b0 and cs = sqrt(cs0^2 - v_inf^2)."""
    term = _radius_ratio_term(r, b0)
    # ratio first: keeps cs0(throat) == v_inf exact
    return (_float_or_array(v_inf * (np.asarray(r, dtype=float) / b0)),
            _float_or_array(v_inf * np.sqrt(term)))


def detuning_denominator(r: float | np.ndarray, v_inf: float, b0: float,
                         spec: CondensateSpec) -> float | np.ndarray:
    """D(r) = 1 - (v_inf/c~_s)**2 ((r/b0)**2 - 1); the field pole is D = 0."""
    return 1.0 - scattering_profile_3d(r, v_inf, b0, spec)


def asymptote_radius(v_inf: float, b0: float, spec: CondensateSpec) -> float:
    """Radius r* where the required field diverges."""
    ratio = spec.background_sound_speed / v_inf
    return b0 * math.sqrt(1.0 + ratio * ratio)


def field_profile_3d(r: float | np.ndarray, v_inf: float, b0: float,
                     spec: CondensateSpec) -> float | np.ndarray:
    """Magnetic field (Gauss) realizing the 3+1D sound-speed profile."""
    denom = detuning_denominator(r, v_inf, b0, spec)
    if np.any(denom == 0.0):
        raise PoleError(f"field diverges at r* = "
                        f"{asymptote_radius(v_inf, b0, spec)!r}")
    return spec.resonance.width / denom + spec.resonance.b_res


def scattering_profile_3d(r: float | np.ndarray, v_inf: float, b0: float,
                          spec: CondensateSpec) -> float | np.ndarray:
    """a(r)/a_bg = (v_inf/c~_s)**2 ((r/b0)**2 - 1); grows without bound
    in r and is reported as-is."""
    ratio = np.float64(v_inf) / spec.background_sound_speed  # overflow obeys errstate
    return _float_or_array(ratio * ratio * _radius_ratio_term(r, b0))


def lab_profiles_3d(layout: LabLayout, v_inf: float, spec: CondensateSpec,
                    step: float, *, pole_delta: float = 1e-3) -> Table:
    """Sample the 3+1D control quantities over x in [0, 2R].

    Samples with |D| < pole_delta are flagged near_asymptote and carry no
    field value (NaN ``B_gauss``, written empty in CSV); they localize the
    experimentally unrealizable zone instead of hiding it. Arithmetic that
    leaves the finite doubles raises FloatingPointError.
    """
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    x = uniform_grid(0.0, 2.0 * layout.R, step)
    b0 = layout.b0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        r = np.abs(x - layout.R) + b0
        cs0, cs = sound_speed_profile_3d(r, v_inf, b0)
        near = np.abs(detuning_denominator(r, v_inf, b0, spec)) < pole_delta
        b = np.full(x.size, math.nan)
        b[~near] = field_profile_3d(r[~near], v_inf, b0, spec)
        return Table({"x_um": x, "r_um": r, "cs0_m_per_s": cs0, "cs_m_per_s": cs,
                      "B_gauss": b, "a_over_abg": scattering_profile_3d(r, v_inf, b0, spec),
                      "vr_m_per_s": np.full(x.size, v_inf), "valid": ~near,
                      "near_asymptote": near}, blank_nan=("B_gauss",))


def detect_asymptotes(profile: Table) -> list[float]:
    """Locate field poles from the sampled profile.

    Poles sit exactly where a/a_bg crosses 1, so sign changes of
    (a/a_bg - 1) between neighbouring samples localize them to one grid
    step; the midpoint of the bracketing pair is reported.
    """
    x = profile.columns["x_um"]
    gap = profile.columns["a_over_abg"] - 1.0
    exact = gap == 0.0
    crossing = np.concatenate(([False], gap[:-1] * gap[1:] < 0.0))
    found = np.flatnonzero(exact | crossing)
    midpoints = 0.5 * (x[found - 1] + x[found])
    return np.where(exact[found], x[found], midpoints).tolist()


def analytic_asymptote_positions(layout: LabLayout, v_inf: float,
                                 spec: CondensateSpec) -> list[float]:
    """Lab positions x = R -+ (r* - b0) of the field poles, when the pole
    radius falls inside the layout."""
    r_star = asymptote_radius(v_inf, layout.b0, spec)
    if r_star > layout.R + layout.b0:
        return []
    offset = r_star - layout.b0
    return [layout.R - offset, layout.R + offset]


def resolution_audit(reference_cs0: float, species: AtomSpecies, step: float, *,
                     b0: float | None = None, factor: float = 10.0) -> dict:
    """Compare the grid step with the healing length at the reference cs0
    (m/s): the smallest relevant one, where xi is largest.

    A known throat radius is also checked against xi: a throat smaller
    than the healing length sits below the scale the hydrodynamic
    description resolves. Returns the report's ``resolution`` section.
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    reference = float(reference_cs0)
    xi_um = healing_length(reference, species) * 1e6
    step_ok = step >= factor * xi_um
    throat_ok = None if b0 is None else b0 >= xi_um
    return {"species": species.name, "reference_cs0_m_per_s": reference,
            "healing_length_um": xi_um, "step_um": step, "step_ratio": step / xi_um,
            "step_ok": step_ok, "factor": factor, "throat_b0_um": b0,
            "throat_ok": throat_ok, "passed": step_ok and throat_ok is not False}


def feasibility_report_3d(layout: LabLayout, v_inf: float, spec: CondensateSpec,
                          profile: Table, step: float, *,
                          resolution_factor: float = 10.0) -> dict:
    """Assemble the JSON-ready feasibility report for a sampled profile."""
    columns = profile.columns
    return {
        "layout": {"R_um": layout.R, "b0_um": layout.b0},
        "v_inf_m_per_s": v_inf,
        "background_sound_speed_m_per_s": spec.background_sound_speed,
        "asymptotes": {
            "analytic_x_um": analytic_asymptote_positions(layout, v_inf, spec),
            "detected_x_um": detect_asymptotes(profile),
            "radius_um": asymptote_radius(v_inf, layout.b0, spec),
        },
        "max_a_over_abg": float(columns["a_over_abg"].max()),
        "near_asymptote_samples": int(columns["near_asymptote"].sum()),
        # the start-of-profile cs0, at the throat
        "resolution": resolution_audit(float(columns["cs0_m_per_s"].min()), spec.species, step,
                                       b0=layout.b0, factor=resolution_factor),
    }

