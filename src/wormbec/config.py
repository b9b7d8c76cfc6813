"""Run configuration.

``SCHEMA`` is the one place a setting is declared: its default, parser
and constraint. ``load_config`` lays ``SECTION.KEY=VALUE`` overrides (the
command line's ``--set``) over those defaults, a later override of a key
winning over an earlier one, and parses every value in one pass. It
returns a ``RunConfig``: the parsed settings keyed as in ``SCHEMA``
(``settings["grid"]["step_um"]``, one dict per section that is not a
preset), the species and resonance registries, and, on reading ``spec``,
the ``CondensateSpec`` they name. No setting rewrites another:
``settings`` holds the given values laid over the defaults. Where a run
writes and in which table format are not settings: the command line's
``--out`` and ``--format`` alone state them (``cli``).

A section or key outside ``SCHEMA`` is a ``ConfigError``, as is a value
that does not parse, is not finite or breaks its constraint, and a preset
whose SI value underflows to zero. Presets come only from the overrides,
never from a file or the environment: their preset sections add to the
built-in species and resonances. An override splits its section from its
key at the first ".", so a preset name holds no ".". A preset name is
looked up exactly as given (``cs`` does not find ``Cs``), so ``settings``
holds the name that resolved. A custom species or resonance is a preset
section, which may replace a built-in one: for example
``--set species:Cs.mass_u=140``, or the three ``resonance:NAME`` keys with
``condensate.resonance=NAME`` (the species' own name needs no
``condensate.resonance``).
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .exceptions import ConfigError, DomainError
from .feshbach import (ATOMIC_MASS, AtomSpecies, CondensateSpec,
                       FeshbachResonance, RESONANCES, SPECIES)

__all__ = ["RunConfig", "load_config", "SCHEMA"]


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


# A constraint names a test that every parsed value must pass.
POSITIVE = ("positive", lambda v: v > 0.0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0.0)

# section -> key -> (default, parser, constraint); a default of None makes
# the key optional. A section ending in ":" stands for every preset
# section [species:NAME] or [resonance:NAME], which must give every key.
SCHEMA: dict[str, dict[str, tuple]] = {
    "wormhole": {
        "b0_um": ("1.0", _parse_float_list, POSITIVE),
        "q": ("-1", _parse_float_list, None),
    },
    "observer": {"v_inf_m_per_s": ("0.01", _parse_float, POSITIVE)},
    "condensate": {
        "species": ("Cs", str.strip, None),
        "resonance": (None, str.strip, None),  # None: the species name
        "density_per_m3": ("1e21", _parse_float, POSITIVE),
    },
    "grid": {
        "x_max_um": ("20.0", _parse_float, POSITIVE),
        "step_um": ("0.1", _parse_float, POSITIVE),
        "r_min_um": (None, _parse_float, None),
        "r_max_um": (None, _parse_float, None),
        "r_step_um": (None, _parse_float, POSITIVE),
        "throat_exclusion_um": ("1.0", _parse_float, NON_NEGATIVE),
    },
    "layout": {"R_um": ("5.0", _parse_float, POSITIVE)},
    "thresholds": {
        "slope_per_um": ("0.067", _parse_float, NON_NEGATIVE),
        "resolution_factor": ("10", _parse_float, POSITIVE),
        "pole_delta": ("1e-3", _parse_float, POSITIVE),
    },
    "species:": {"mass_u": (None, _parse_float, POSITIVE)},
    "resonance:": {"a_bg_a0": (None, _parse_float, POSITIVE),
                   "width_g": (None, _parse_float, POSITIVE),
                   "b_res_g": (None, _parse_float, None)},
}


class RunConfig(NamedTuple):
    """A resolved run: the settings by SCHEMA section and key, the preset
    registries and the condensate they name."""

    settings: dict[str, dict[str, Any]]
    species_registry: dict[str, AtomSpecies]
    resonance_registry: dict[str, FeshbachResonance]

    @property
    def spec(self) -> CondensateSpec:
        """Resolved when read, so only the commands that use it fail on it."""
        condensate = self.settings["condensate"]
        species = _lookup(self.species_registry, "species", condensate["species"])
        resonance_name = condensate["resonance"]
        if resonance_name is None:  # the species' own
            resonance = _lookup(self.resonance_registry, "resonance", species.name,
                                "; set condensate.resonance to one of them or add a "
                                f"[resonance:{species.name}] section")
        else:
            resonance = _lookup(self.resonance_registry, "resonance", resonance_name)
        return CondensateSpec(species, resonance, condensate["density_per_m3"])


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


def _lookup(registry: dict[str, Any], kind: str, name: str, fix: str = "") -> Any:
    if name in registry:
        return registry[name]
    raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(sorted(registry))}{fix}")


def load_config(overrides: list[str] | None = None) -> RunConfig:
    """Lay the SECTION.KEY=VALUE overrides, in order, over the schema
    defaults; resolve presets; validate all."""
    data: dict[str, dict[str, str]] = {}
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like SECTION.KEY=VALUE, got {item!r}")
        key_part, value = item.split("=", 1)
        section, key = key_part.split(".", 1)
        data.setdefault(section.strip(), {})[key.strip()] = value.strip()

    species_registry: dict[str, AtomSpecies] = dict(SPECIES)
    resonance_registry: dict[str, FeshbachResonance] = dict(RESONANCES)
    for section, raw in data.items():
        kind, colon, name = section.partition(":")
        if colon:
            preset = _needs(section, _parse_section(section, raw), SCHEMA[kind + ":"])
            try:  # SCHEMA's POSITIVE check leaves only an SI underflow to fail here
                if kind == "species":
                    species_registry[name.strip()] = AtomSpecies(name.strip(),
                                                                 preset[0] * ATOMIC_MASS)
                else:
                    resonance_registry[name.strip()] = FeshbachResonance.from_lab_units(*preset)
            except DomainError:
                key, unit = ("mass_u", "kg") if kind == "species" else ("a_bg_a0", "m")
                raise ConfigError(f"[{section}] {key} = {raw[key]} "
                                  f"underflows to 0 {unit}") from None

    settings = {section: _parse_section(section, data.get(section, {}))
                for section in dict.fromkeys([*SCHEMA, *data]) if ":" not in section}
    return RunConfig(settings, species_registry, resonance_registry)
