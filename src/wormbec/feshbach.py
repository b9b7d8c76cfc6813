"""Condensate microphysics: scattering length vs. magnetic field near a
Feshbach resonance, sound speed, healing length, and species presets.

Boundary units: magnetic fields in Gauss, scattering lengths in metres
(helpers convert Bohr radii), speeds in m/s, densities in m^-3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import MappingProxyType

from .exceptions import DomainError, PoleError

__all__ = [
    "HBAR",
    "BOHR_RADIUS",
    "ATOMIC_MASS",
    "AtomSpecies",
    "FeshbachResonance",
    "CondensateSpec",
    "sound_speed_from_scattering",
    "scattering_from_field",
    "field_from_scattering",
    "sound_speed_from_field",
    "healing_length",
    "bohr_to_m",
    "m_to_bohr",
    "SPECIES",
    "RESONANCES",
    "DEFAULT_DENSITY",
    "cesium_condensate",
]

# CODATA 2022 recommended values (SI). hbar is h / (2 pi) evaluated in
# double precision from the exact SI Planck constant h = 6.62607015e-34
# J s; the Bohr radius and the atomic mass constant are the tabulated
# CODATA 2022 values. Changing any bit here changes the emitted tables.
HBAR = 1.0545718176461565e-34        # J s
BOHR_RADIUS = 5.29177210544e-11      # m
ATOMIC_MASS = 1.66053906892e-27      # kg


def bohr_to_m(a_bohr: float) -> float:
    return a_bohr * BOHR_RADIUS


def m_to_bohr(a_m: float) -> float:
    return a_m / BOHR_RADIUS


@dataclass(frozen=True)
class AtomSpecies:
    """An atomic species, identified by name, with its mass in kg."""

    name: str
    mass: float

    def __post_init__(self) -> None:
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass!r}")


@dataclass(frozen=True)
class FeshbachResonance:
    """Single-channel resonance a(B) = a_bg * (1 - width / (B - b_res)).

    ``a_bg`` in metres; ``width`` and ``b_res`` in Gauss.
    """

    a_bg: float
    width: float
    b_res: float

    def __post_init__(self) -> None:
        if not self.a_bg > 0.0:
            raise DomainError(f"a_bg must be positive, got {self.a_bg!r}")
        if not self.width > 0.0:
            raise DomainError(f"width must be positive, got {self.width!r}")

    @classmethod
    def from_lab_units(cls, a_bg_bohr: float, width_gauss: float,
                       b_res_gauss: float) -> "FeshbachResonance":
        return cls(bohr_to_m(a_bg_bohr), width_gauss, b_res_gauss)


@dataclass(frozen=True)
class CondensateSpec:
    """A condensate: species, resonance, and number density (m^-3)."""

    species: AtomSpecies
    resonance: FeshbachResonance
    density: float

    def __post_init__(self) -> None:
        if not self.density > 0.0:
            raise DomainError(f"density must be positive, got {self.density!r}")

    @property
    def background_sound_speed(self) -> float:
        """Sound speed at the background scattering length (m/s)."""
        return sound_speed_from_scattering(self.resonance.a_bg, self)


def sound_speed_from_scattering(a: float, spec: CondensateSpec) -> float:
    """c_s = (hbar/m) * sqrt(4 pi rho a) for a weakly interacting condensate."""
    if a < 0.0:
        raise DomainError(f"attractive regime a = {a!r} < 0 has no real sound speed")
    return HBAR / spec.species.mass * math.sqrt(4.0 * math.pi * spec.density * a)


def scattering_from_field(b: float, res: FeshbachResonance) -> float:
    """a(B) near the resonance. Negative values are returned, not raised;
    only the sound-speed operations reject them."""
    if b == res.b_res:
        raise PoleError(f"scattering length diverges at B = {res.b_res!r} G")
    return res.a_bg * (1.0 - res.width / (b - res.b_res))


def field_from_scattering(a: float, res: FeshbachResonance) -> float:
    """Inverse of scattering_from_field on its domain."""
    if a == res.a_bg:
        raise PoleError("background scattering length is only reached at "
                        "infinite detuning")
    return res.b_res + res.width / (1.0 - a / res.a_bg)


def sound_speed_from_field(b: float, spec: CondensateSpec) -> float:
    """c_s(B) = c_s0 * sqrt(1 - width/(B - b_res))."""
    offset = b - spec.resonance.b_res
    detuning = 1.0 - spec.resonance.width / offset
    if detuning < 0.0:
        # Gauss-scale cancellation in (B - b_res) can push an exact zero a
        # few ulps negative; forgive rounding-level negatives only.
        rounding = 16.0 * sys.float_info.epsilon * abs(b) / abs(offset)
        if detuning < -rounding:
            raise DomainError(f"B = {b!r} G gives a(B) < 0: imaginary sound speed")
        detuning = 0.0
    return spec.background_sound_speed * math.sqrt(detuning)


def healing_length(c_s: float, species: AtomSpecies) -> float:
    """xi = hbar / (sqrt(2) m c_s), in metres."""
    if c_s <= 0.0:
        raise DomainError(f"sound speed must be positive, got {c_s!r}")
    return HBAR / (math.sqrt(2.0) * species.mass * c_s)


# IUPAC standard atomic weights (u) for alkali species commonly condensed.
_ATOMIC_WEIGHTS = {
    "Li": 6.94,
    "Na": 22.98976928,
    "K": 39.0983,
    "Rb": 85.4678,
    "Cs": 132.90545196,
}

SPECIES = MappingProxyType({
    name: AtomSpecies(name, weight * ATOMIC_MASS)
    for name, weight in _ATOMIC_WEIGHTS.items()
})

# Narrow cesium resonance near 47.8 G used throughout the bundled demos.
CESIUM_RESONANCE = FeshbachResonance.from_lab_units(
    a_bg_bohr=950.0, width_gauss=0.157, b_res_gauss=47.766)

RESONANCES = MappingProxyType({"Cs": CESIUM_RESONANCE})

DEFAULT_DENSITY = 1e21  # m^-3, a typical condensate density


def cesium_condensate(density: float = DEFAULT_DENSITY) -> CondensateSpec:
    """The cesium condensate used as the default working point."""
    return CondensateSpec(SPECIES["Cs"], CESIUM_RESONANCE, density)
