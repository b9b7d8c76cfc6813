"""Feshbach module: field/scattering maps, sound speed, healing lengths,
species presets."""

import math

import numpy as np
import pytest

from wormbec.config import load_config
from wormbec.exceptions import ConfigError, DomainError, PoleError
from wormbec.feshbach import (BOHR_RADIUS, HBAR, CondensateSpec,
                              CESIUM_RESONANCE, SPECIES, AtomSpecies,
                              FeshbachResonance, bohr_to_m, cesium_condensate,
                              field_from_scattering, healing_length, m_to_bohr,
                              scattering_from_field, sound_speed_from_field,
                              sound_speed_from_scattering)

# Reference healing lengths (um) at c_s = 0.01 m/s for the five presets.
XI_TABLE_UM = {"Li": 0.648, "Na": 0.195, "K": 0.115, "Rb": 0.053, "Cs": 0.034}

CS = cesium_condensate()


def test_cesium_preset_values():
    assert m_to_bohr(CESIUM_RESONANCE.a_bg) == pytest.approx(950.0, rel=1e-12)
    assert CESIUM_RESONANCE.width == 0.157
    assert CESIUM_RESONANCE.b_res == 47.766
    assert CS.density == 1e21


def test_sound_speed_zero_at_zero_scattering():
    assert sound_speed_from_scattering(0.0, CS) == 0.0


def test_sound_speed_cesium_background():
    """Cs at a = 950 a0, rho = 1e21 m^-3 gives about 0.0120 m/s."""
    assert CS.background_sound_speed == pytest.approx(0.0120, rel=0.01)


def test_sound_speed_square_root_scaling():
    a_ref = bohr_to_m(200.0)
    assert sound_speed_from_scattering(4.0 * a_ref, CS) == pytest.approx(
        2.0 * sound_speed_from_scattering(a_ref, CS), rel=1e-14)


def test_sound_speed_rejects_attractive_regime():
    with pytest.raises(DomainError):
        sound_speed_from_scattering(-1e-10, CS)


def test_scattering_from_field_zero_crossing():
    # absolute tolerance is set by Gauss-scale cancellation in (B - b_res)
    b = CESIUM_RESONANCE.b_res + CESIUM_RESONANCE.width
    assert scattering_from_field(b, CESIUM_RESONANCE) == pytest.approx(0.0, abs=1e-20)


def test_scattering_from_field_background_limit():
    for b in (1e9, -1e9):
        a = scattering_from_field(b, CESIUM_RESONANCE)
        assert a == pytest.approx(CESIUM_RESONANCE.a_bg, rel=1e-8)


def test_scattering_from_field_two_widths_detuned():
    """B = B_res + 2*width = 48.080 G halves the background value."""
    b = CESIUM_RESONANCE.b_res + 2.0 * CESIUM_RESONANCE.width
    assert b == pytest.approx(48.080, abs=1e-12)
    a = scattering_from_field(b, CESIUM_RESONANCE)
    assert m_to_bohr(a) == pytest.approx(475.0, rel=1e-12)


def test_scattering_from_field_pole():
    with pytest.raises(PoleError):
        scattering_from_field(CESIUM_RESONANCE.b_res, CESIUM_RESONANCE)


def test_field_from_scattering_values():
    res = CESIUM_RESONANCE
    assert field_from_scattering(0.0, res) == res.b_res + res.width
    assert field_from_scattering(res.a_bg / 2.0, res) == pytest.approx(48.080, abs=1e-12)


def test_field_from_scattering_background_unreachable():
    with pytest.raises(PoleError):
        field_from_scattering(CESIUM_RESONANCE.a_bg, CESIUM_RESONANCE)


def test_field_scattering_roundtrip():
    """The two maps are mutual inverses to 1e-12 relative."""
    rng = np.random.default_rng(11)
    res = CESIUM_RESONANCE
    for _ in range(1000):
        a = rng.uniform(-res.a_bg, res.a_bg * 0.999)
        back = scattering_from_field(field_from_scattering(a, res), res)
        # near the zero crossing the Gauss roundtrip floors out absolutely
        assert back == pytest.approx(a, rel=1e-12, abs=2e-12 * res.a_bg)


def test_sound_speed_from_field_limits():
    res = CESIUM_RESONANCE
    assert sound_speed_from_field(res.b_res + res.width, CS) == pytest.approx(0.0, abs=1e-9)
    assert sound_speed_from_field(1e12, CS) == pytest.approx(
        CS.background_sound_speed, rel=1e-9)


def test_sound_speed_from_field_rejects_negative_scattering():
    # just inside the resonance, a(B) < 0
    with pytest.raises(DomainError):
        sound_speed_from_field(CESIUM_RESONANCE.b_res + 0.5 * CESIUM_RESONANCE.width, CS)


def test_sound_speed_composition():
    """c_s(B) equals c_s(a(B)) wherever both are defined."""
    rng = np.random.default_rng(13)
    res = CESIUM_RESONANCE
    for _ in range(1000):
        if rng.uniform() < 0.5:
            b = res.b_res + res.width * (1.0 + rng.uniform(1e-6, 1e3))
        else:
            b = res.b_res - res.width * rng.uniform(1e-6, 1e3)
        via_field = sound_speed_from_field(b, CS)
        via_a = sound_speed_from_scattering(scattering_from_field(b, res), CS)
        assert via_field == pytest.approx(via_a, rel=1e-12, abs=1e-15)


def test_healing_length_reference_table():
    """All five presets reproduce the reference column within 2 percent."""
    for name, xi_um in XI_TABLE_UM.items():
        xi = healing_length(0.01, SPECIES[name]) * 1e6
        assert xi == pytest.approx(xi_um, rel=0.02), name


def test_healing_length_inverse_scaling():
    for name in SPECIES:
        xi_1 = healing_length(0.01, SPECIES[name])
        xi_2 = healing_length(0.02, SPECIES[name])
        assert xi_2 == pytest.approx(xi_1 / 2.0, rel=1e-14)


def test_healing_length_rejects_nonpositive_speed():
    with pytest.raises(DomainError):
        healing_length(0.0, SPECIES["Cs"])
    with pytest.raises(DomainError):
        healing_length(-0.01, SPECIES["Cs"])


def test_healing_length_times_speed_is_species_constant():
    for name, species in SPECIES.items():
        expected = HBAR / (math.sqrt(2.0) * species.mass)
        for c_s in (0.003, 0.01, 0.02, 0.5):
            assert healing_length(c_s, species) * c_s == pytest.approx(expected, rel=1e-14)


def test_registry_lookup():
    """load_config finds presets by name, as given or capitalized."""
    def spec(override):
        return load_config(overrides=[override]).spec

    assert spec("condensate.species=Cs").species is SPECIES["Cs"]
    assert spec("condensate.species=cs").species is SPECIES["Cs"]
    assert spec("condensate.resonance=Cs").resonance is CESIUM_RESONANCE
    assert spec("condensate.resonance=cs").resonance is CESIUM_RESONANCE
    with pytest.raises(ConfigError):
        spec("condensate.species=Xe")


def test_invariant_validation():
    with pytest.raises(DomainError):
        AtomSpecies("bad", 0.0)
    with pytest.raises(DomainError):
        FeshbachResonance(a_bg=-1e-9, width=0.1, b_res=10.0)
    with pytest.raises(DomainError):
        FeshbachResonance(a_bg=1e-9, width=0.0, b_res=10.0)
    with pytest.raises(DomainError):
        CondensateSpec(SPECIES["Cs"], CESIUM_RESONANCE, 0.0)


def test_bohr_conversions_roundtrip():
    assert m_to_bohr(bohr_to_m(123.0)) == pytest.approx(123.0, rel=1e-15)
    assert BOHR_RADIUS == pytest.approx(5.29177e-11, rel=1e-5)
