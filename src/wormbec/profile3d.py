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
from .geometry import uniform_grid
from .gp3d import GpSolution

__all__ = [
    "LabLayout",
    "LabProfile3D",
    "ResolutionReport",
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

CSV_COLUMNS = ("x_um", "r_um", "cs0_m_per_s", "cs_m_per_s", "B_gauss",
               "a_over_abg", "vr_m_per_s", "valid", "near_asymptote")
BLANK_NAN_COLUMNS = ("B_gauss",)  # near-asymptote cells are written empty


@dataclass(frozen=True)
class LabLayout:
    """Two-branch lab coordinate: x in [0, 2R] with the throat at x = R,
    so r = |x - R| + b0 spans [b0, R + b0] on each branch."""

    R: float
    b0: float

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise DomainError(f"branch length R must be positive, got {self.R!r}")
        if not self.b0 > 0.0:
            raise DomainError(f"throat radius must be positive, got {self.b0!r}")

    def radius_at(self, x: float) -> float:
        if not 0.0 <= x <= 2.0 * self.R:
            raise DomainError(f"x = {x!r} outside the lab extent [0, {2.0 * self.R!r}]")
        return abs(x - self.R) + self.b0


@dataclass(frozen=True)
class LabProfile3D:
    """The 3+1D control profile, one array per CSV column (same order).
    ``b_gauss`` is NaN on near-asymptote samples: no finite field realizes
    them."""

    x: np.ndarray
    r: np.ndarray
    cs0: np.ndarray
    cs: np.ndarray
    b_gauss: np.ndarray
    a_over_abg: np.ndarray
    vr: np.ndarray
    valid: np.ndarray
    near_asymptote: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(vars(self).values())


def _radius_ratio_term(r: float, b0: float) -> float:
    """(r/b0)**2 - 1, factored to stay exact at the throat."""
    if b0 <= 0.0:
        raise DomainError(f"throat radius must be positive, got {b0!r}")
    if r < b0:
        raise DomainError(f"r = {r!r} is inside the throat (b0 = {b0!r})")
    return (r - b0) * (r + b0) / (b0 * b0)


def sound_speed_profile_3d(r: float, v_inf: float, b0: float) -> tuple[float, float]:
    """(cs0, cs) at radius r: cs0 = v_inf r/b0 and cs = sqrt(cs0^2 - v_inf^2)."""
    term = _radius_ratio_term(r, b0)
    # ratio first: keeps cs0(throat) == v_inf exact
    return v_inf * (r / b0), v_inf * math.sqrt(term)


def detuning_denominator(r: float, v_inf: float, b0: float,
                         spec: CondensateSpec) -> float:
    """D(r) = 1 - (v_inf/c~_s)**2 ((r/b0)**2 - 1); the field pole is D = 0."""
    return 1.0 - scattering_profile_3d(r, v_inf, b0, spec)


def asymptote_radius(v_inf: float, b0: float, spec: CondensateSpec) -> float:
    """Radius r* where the required field diverges."""
    ratio = spec.background_sound_speed / v_inf
    return b0 * math.sqrt(1.0 + ratio * ratio)


def field_profile_3d(r: float, v_inf: float, b0: float,
                     spec: CondensateSpec) -> float:
    """Magnetic field (Gauss) realizing the 3+1D sound-speed profile."""
    denom = detuning_denominator(r, v_inf, b0, spec)
    if denom == 0.0:
        raise PoleError(f"field diverges at r* = "
                        f"{asymptote_radius(v_inf, b0, spec)!r}")
    return spec.resonance.width / denom + spec.resonance.b_res


def scattering_profile_3d(r: float, v_inf: float, b0: float,
                          spec: CondensateSpec) -> float:
    """a(r)/a_bg = (v_inf/c~_s)**2 ((r/b0)**2 - 1); grows without bound
    in r and is reported as-is."""
    ratio = v_inf / spec.background_sound_speed
    return ratio * ratio * _radius_ratio_term(r, b0)


def lab_profiles_3d(layout: LabLayout, v_inf: float, spec: CondensateSpec,
                    step: float, *, pole_delta: float = 1e-3) -> LabProfile3D:
    """Sample the 3+1D control quantities over x in [0, 2R].

    Samples with |D| < pole_delta are flagged near_asymptote and carry no
    field value; they localize the experimentally unrealizable zone
    instead of hiding it.
    """
    if v_inf <= 0.0:
        raise DomainError(f"v_inf must be positive, got {v_inf!r}")
    x = uniform_grid(0.0, 2.0 * layout.R, step)
    b0 = layout.b0
    r = np.abs(x - layout.R) + b0
    term = (r - b0) * (r + b0) / (b0 * b0)  # _radius_ratio_term
    ratio = v_inf / spec.background_sound_speed
    a_over = ratio * ratio * term
    denom = 1.0 - a_over
    near = np.abs(denom) < pole_delta
    b = np.full(x.size, math.nan)
    b[~near] = spec.resonance.width / denom[~near] + spec.resonance.b_res
    return LabProfile3D(x=x, r=r, cs0=v_inf * (r / b0), cs=v_inf * np.sqrt(term),
                        b_gauss=b, a_over_abg=a_over, vr=np.full(x.size, v_inf),
                        valid=~near, near_asymptote=near)


def detect_asymptotes(profile: LabProfile3D) -> list[float]:
    """Locate field poles from the sampled profile.

    Poles sit exactly where a/a_bg crosses 1, so sign changes of
    (a/a_bg - 1) between neighbouring samples localize them to one grid
    step; the midpoint of the bracketing pair is reported.
    """
    x = profile.x
    gap = profile.a_over_abg - 1.0
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


@dataclass(frozen=True)
class ResolutionReport:
    """Healing-length audit of a sampled profile or matching solution."""

    species: str
    reference_cs0: float
    healing_length_um: float
    step_um: float
    step_ratio: float
    step_ok: bool
    factor: float
    throat_b0_um: float | None
    throat_ok: bool | None

    @property
    def passed(self) -> bool:
        return self.step_ok and self.throat_ok is not False


def resolution_audit(data: float | GpSolution | LabProfile3D, species: AtomSpecies,
                     step: float, *, b0: float | None = None,
                     factor: float = 10.0) -> ResolutionReport:
    """Compare the grid step with the healing length at the smallest
    relevant cs0 (the start-of-profile value, where xi is largest).

    ``data`` may be a matching solution, a sampled 3+1D profile, or the
    reference cs0 itself (m/s). A known throat radius is also checked
    against xi: a throat smaller than the healing length sits below the
    scale the hydrodynamic description resolves.
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if isinstance(data, GpSolution):
        reference = float(data.cs0[data.converged].min())
        if b0 is None:
            b0 = data.b0
    elif isinstance(data, (int, float)):
        reference = float(data)
    else:
        reference = float(data.cs0.min())
        if b0 is None:
            b0 = float(data.r.min())
    xi_um = healing_length(reference, species) * 1e6
    return ResolutionReport(
        species=species.name,
        reference_cs0=reference,
        healing_length_um=xi_um,
        step_um=step,
        step_ratio=step / xi_um,
        step_ok=step >= factor * xi_um,
        factor=factor,
        throat_b0_um=b0,
        throat_ok=None if b0 is None else b0 >= xi_um,
    )


def feasibility_report_3d(layout: LabLayout, v_inf: float, spec: CondensateSpec,
                          profile: LabProfile3D, step: float, *,
                          resolution_factor: float = 10.0) -> dict:
    """Assemble the JSON-ready feasibility report for a sampled profile."""
    audit = resolution_audit(profile, spec.species, step,
                             b0=layout.b0, factor=resolution_factor)
    return {
        "layout": {"R_um": layout.R, "b0_um": layout.b0},
        "v_inf_m_per_s": v_inf,
        "background_sound_speed_m_per_s": spec.background_sound_speed,
        "asymptotes": {
            "analytic_x_um": analytic_asymptote_positions(layout, v_inf, spec),
            "detected_x_um": detect_asymptotes(profile),
            "radius_um": asymptote_radius(v_inf, layout.b0, spec),
        },
        "max_a_over_abg": float(profile.a_over_abg.max()),
        "near_asymptote_samples": int(profile.near_asymptote.sum()),
        "resolution": {
            "species": audit.species,
            "reference_cs0_m_per_s": audit.reference_cs0,
            "healing_length_um": audit.healing_length_um,
            "step_um": audit.step_um,
            "step_ratio": audit.step_ratio,
            "step_ok": audit.step_ok,
            "factor": audit.factor,
            "throat_b0_um": audit.throat_b0_um,
            "throat_ok": audit.throat_ok,
            "passed": audit.passed,
        },
    }

