"""Run configuration.

``SCHEMA`` is the one place a setting is declared: its default, parser
and constraint. ``load_config`` lays an optional INI file, then
``SECTION.KEY=VALUE`` overrides, over those defaults and parses every
value in one pass. A section or key outside ``SCHEMA`` is a
``ConfigError``, as is a value that does not parse, is not finite or
breaks its constraint. Preset sections, in the config file or in the
``*.ini`` files under ``$WORMBEC_PRESET_DIR``, add to the built-in
species and resonances; a preset name is looked up as given, then
capitalized (``cs`` finds ``Cs``).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .exceptions import ConfigError
from .feshbach import (ATOMIC_MASS, AtomSpecies, CondensateSpec,
                       FeshbachResonance, RESONANCES, SPECIES)

__all__ = ["RunConfig", "load_config", "PRESET_DIR_ENV", "SCHEMA"]

PRESET_DIR_ENV = "WORMBEC_PRESET_DIR"


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(map(_parse_float, parts))


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# A constraint names a test that every parsed value must pass.
POSITIVE = ("positive", lambda v: v > 0.0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0.0)

_RESONANCE = {
    "a_bg_a0": (None, _parse_float, POSITIVE),
    "width_g": (None, _parse_float, POSITIVE),
    "b_res_g": (None, _parse_float, None),
}

# section -> key -> (default, parser, constraint); a default of None makes
# the key optional. A section ending in ":" stands for every preset
# section [species:NAME] or [resonance:NAME], which must give every key.
SCHEMA: dict[str, dict[str, tuple]] = {
    "wormhole": {
        "b0_um": ("1.0", _parse_float_list, POSITIVE),
        "q": ("-1", _parse_float_list, None),
        "ellis": (None, _parse_bool, None),  # true forces q = -1
    },
    "observer": {"v_inf_m_per_s": ("0.01", _parse_float, POSITIVE)},
    "condensate": {
        "species": ("Cs", str.strip, None),
        "resonance": (None, str.strip, None),  # None: the species name
        "density_per_m3": ("1e21", _parse_float, POSITIVE),
        "mass_u": (None, _parse_float, POSITIVE),  # replaces the preset mass
        **_RESONANCE,  # all three replace the named resonance
    },
    "grid": {
        "x_max_um": ("20.0", _parse_float, POSITIVE),
        "step_um": ("0.1", _parse_float, POSITIVE),
        "r_min_um": (None, _parse_float, None),
        "r_max_um": (None, _parse_float, None),
        "r_step_um": (None, _parse_float, POSITIVE),
        "throat_epsilon": ("1e-3", _parse_float, POSITIVE),
        "throat_exclusion_um": ("1.0", _parse_float, NON_NEGATIVE),
    },
    "layout": {"R_um": ("5.0", _parse_float, POSITIVE)},
    "thresholds": {
        "slope_per_um": ("0.067", _parse_float, NON_NEGATIVE),
        "resolution_factor": ("10", _parse_float, POSITIVE),
        "pole_delta": ("1e-3", _parse_float, POSITIVE),
    },
    "output": {"dir": (".", Path, None),
               "format": ("csv", lambda raw: raw.strip().lower(),
                          ("csv or json", lambda v: v in ("csv", "json")))},
    "species:": {"mass_u": (None, _parse_float, POSITIVE)},
    "resonance:": _RESONANCE,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run parameters."""

    b0_list: tuple[float, ...]
    q_list: tuple[float, ...]
    v_inf: float
    spec: CondensateSpec
    x_max: float
    x_step: float
    r_min: float | None
    r_max: float | None
    r_step: float | None
    throat_epsilon: float
    throat_exclusion: float
    layout_r: float
    slope_threshold: float
    resolution_factor: float
    pole_delta: float
    out_dir: Path
    out_format: str
    species_registry: dict[str, AtomSpecies]
    resonance_registry: dict[str, FeshbachResonance]

    def single_b0(self) -> float:
        if len(self.b0_list) != 1:
            raise ConfigError("this subcommand needs exactly one b0_um value, "
                              f"got {list(self.b0_list)}")
        return self.b0_list[0]


def _read_ini(path: Path) -> dict[str, dict[str, str]]:
    """The sections of one INI file; a parse failure is a ConfigError."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (R_um)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
        return {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None


def _parse_section(section: str, raw: dict[str, str]) -> dict[str, Any]:
    """Every key of the section's schema, parsed and checked; absent keys
    take their default."""
    kind, colon, _ = section.partition(":")
    schema = SCHEMA.get(kind + colon)
    if schema is None:
        raise ConfigError(f"unknown section {section!r}; known: "
                          f"{', '.join(s + 'NAME' if s.endswith(':') else s for s in SCHEMA)}")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]; known: {', '.join(schema)}")
    values: dict[str, Any] = {}
    for key, (default, parse, constraint) in schema.items():
        text = raw.get(key, default)
        try:
            values[key] = value = None if text is None else parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        if constraint is not None and value is not None:
            label, test = constraint
            for number in value if isinstance(value, tuple) else (value,):
                if not test(number):
                    raise ConfigError(f"[{section}] {key} must be {label}, got {number!r}")
    return values


def _needs(section: str, values: dict[str, Any], keys) -> list[Any]:
    """The values of keys, all of which must be set."""
    missing = [key for key in keys if values[key] is None]
    if missing:
        raise ConfigError(f"[{section}] needs {', '.join(missing)}")
    return [values[key] for key in keys]


def _lookup(registry: dict[str, Any], kind: str, name: str) -> Any:
    for key in (name, name.capitalize()):
        if key in registry:
            return registry[key]
    raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(sorted(registry))}")


def load_config(config_path: str | None = None,
                overrides: list[str] | None = None,
                out_dir: str | None = None,
                out_format: str | None = None) -> RunConfig:
    """Lay the config file, SECTION.KEY=VALUE overrides and the output
    arguments over the schema defaults; resolve presets; validate all."""
    data: dict[str, dict[str, str]] = {}
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        if not Path(preset_dir).is_dir():
            raise ConfigError(f"{PRESET_DIR_ENV}={preset_dir!r} is not a directory")
        for path in sorted(Path(preset_dir).glob("*.ini")):
            for section, raw in _read_ini(path).items():
                if ":" not in section:
                    raise ConfigError(f"{path}: [{section}] is not a preset section")
                data.setdefault(section, {}).update(raw)
    if config_path is not None:
        if not Path(config_path).is_file():
            raise ConfigError(f"config file not found: {config_path}")
        for section, raw in _read_ini(Path(config_path)).items():
            data.setdefault(section, {}).update(raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like SECTION.KEY=VALUE, got {item!r}")
        key_part, value = item.split("=", 1)
        section, key = key_part.split(".", 1)
        data.setdefault(section.strip(), {})[key.strip()] = value.strip()
    for key, value in (("dir", out_dir), ("format", out_format)):
        if value is not None:
            data.setdefault("output", {})[key] = value

    species_registry: dict[str, AtomSpecies] = dict(SPECIES)
    resonance_registry: dict[str, FeshbachResonance] = dict(RESONANCES)
    for section, raw in data.items():
        kind, colon, name = section.partition(":")
        if colon:
            preset = _needs(section, _parse_section(section, raw), SCHEMA[kind + ":"])
            if kind == "species":
                species_registry[name.strip()] = AtomSpecies(name.strip(), preset[0] * ATOMIC_MASS)
            else:
                resonance_registry[name.strip()] = FeshbachResonance.from_lab_units(*preset)

    values = {section: _parse_section(section, data.get(section, {}))
              for section in dict.fromkeys([*SCHEMA, *data]) if ":" not in section}

    wormhole, condensate, grid, thresholds = (
        values[section] for section in ("wormhole", "condensate", "grid", "thresholds"))
    if condensate["mass_u"] is not None:
        species = AtomSpecies(condensate["species"], condensate["mass_u"] * ATOMIC_MASS)
    else:
        species = _lookup(species_registry, "species", condensate["species"])
    if any(condensate[key] is not None for key in _RESONANCE):
        resonance = FeshbachResonance.from_lab_units(
            *_needs("condensate", condensate, _RESONANCE))
    else:
        resonance_name = condensate["resonance"]
        resonance = _lookup(resonance_registry, "resonance",
                            species.name if resonance_name is None else resonance_name)

    return RunConfig(
        b0_list=wormhole["b0_um"],
        q_list=(-1.0,) if wormhole["ellis"] else wormhole["q"],
        v_inf=values["observer"]["v_inf_m_per_s"],
        spec=CondensateSpec(species, resonance, condensate["density_per_m3"]),
        x_max=grid["x_max_um"], x_step=grid["step_um"],
        r_min=grid["r_min_um"], r_max=grid["r_max_um"], r_step=grid["r_step_um"],
        throat_epsilon=grid["throat_epsilon"],
        throat_exclusion=grid["throat_exclusion_um"],
        layout_r=values["layout"]["R_um"],
        slope_threshold=thresholds["slope_per_um"],
        resolution_factor=thresholds["resolution_factor"],
        pole_delta=thresholds["pole_delta"],
        out_dir=values["output"]["dir"],
        out_format=values["output"]["format"],
        species_registry=species_registry, resonance_registry=resonance_registry,
    )
