"""Run configuration: INI-style sections with typed accessors, preset
registries, and upfront validation of every pipeline precondition.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError
from .feshbach import (ATOMIC_MASS, AtomSpecies, CondensateSpec,
                       FeshbachResonance, RESONANCES, SPECIES,
                       get_resonance, get_species)

__all__ = ["RunConfig", "load_config", "PRESET_DIR_ENV"]

PRESET_DIR_ENV = "WORMBEC_PRESET_DIR"

DEFAULTS: dict[str, dict[str, str]] = {
    "wormhole": {"b0_um": "1.0", "q": "-1"},
    "observer": {"v_inf_m_per_s": "0.01"},
    "condensate": {"species": "Cs", "density_per_m3": "1e21"},
    "grid": {"x_max_um": "20.0", "step_um": "0.1", "throat_epsilon": "1e-3",
             "throat_exclusion_um": "1.0"},
    "layout": {"R_um": "5.0"},
    "thresholds": {"slope_per_um": "0.067", "resolution_factor": "10",
                   "pole_delta": "1e-3"},
    "output": {"dir": ".", "format": "csv"},
}


def _new_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (R_um)
    return parser


def _merge(base: dict[str, dict[str, str]], parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        base.setdefault(section, {}).update(parser[section])


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_float_list(raw: str, where: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{where}: expected at least one number")
    return tuple(_parse_float(p, where) for p in parts)


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


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


def _load_preset_sections(data: dict[str, dict[str, str]],
                          species: dict[str, AtomSpecies],
                          resonances: dict[str, FeshbachResonance]) -> None:
    for section, values in data.items():
        if section.startswith("species:"):
            name = section.split(":", 1)[1].strip()
            if "mass_u" not in values:
                raise ConfigError(f"[{section}] needs mass_u")
            mass_u = _parse_float(values["mass_u"], f"[{section}] mass_u")
            species[name] = AtomSpecies(name, mass_u * ATOMIC_MASS)
        elif section.startswith("resonance:"):
            name = section.split(":", 1)[1].strip()
            missing = [k for k in ("a_bg_a0", "width_g", "b_res_g") if k not in values]
            if missing:
                raise ConfigError(f"[{section}] needs {', '.join(missing)}")
            resonances[name] = FeshbachResonance.from_lab_units(
                _parse_float(values["a_bg_a0"], f"[{section}] a_bg_a0"),
                _parse_float(values["width_g"], f"[{section}] width_g"),
                _parse_float(values["b_res_g"], f"[{section}] b_res_g"))


def _load_env_presets(species: dict[str, AtomSpecies],
                      resonances: dict[str, FeshbachResonance]) -> None:
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if not preset_dir:
        return
    directory = Path(preset_dir)
    if not directory.is_dir():
        raise ConfigError(f"{PRESET_DIR_ENV}={preset_dir!r} is not a directory")
    for path in sorted(directory.glob("*.ini")):
        parser = _new_parser()
        parser.read(path, encoding="utf-8")
        data: dict[str, dict[str, str]] = {}
        _merge(data, parser)
        _load_preset_sections(data, species, resonances)


def _resolve_condensate(values: dict[str, str],
                        species_registry: dict[str, AtomSpecies],
                        resonance_registry: dict[str, FeshbachResonance]
                        ) -> CondensateSpec:
    species_name = values.get("species", "Cs").strip()
    if "mass_u" in values:
        mass_u = _parse_float(values["mass_u"], "[condensate] mass_u")
        species = AtomSpecies(species_name, mass_u * ATOMIC_MASS)
    else:
        try:
            species = get_species(species_name, species_registry)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None

    explicit = [k for k in ("a_bg_a0", "width_g", "b_res_g") if k in values]
    if explicit:
        missing = [k for k in ("a_bg_a0", "width_g", "b_res_g") if k not in values]
        if missing:
            raise ConfigError("[condensate] explicit resonance needs "
                              f"{', '.join(missing)} as well")
        resonance = FeshbachResonance.from_lab_units(
            _parse_float(values["a_bg_a0"], "[condensate] a_bg_a0"),
            _parse_float(values["width_g"], "[condensate] width_g"),
            _parse_float(values["b_res_g"], "[condensate] b_res_g"))
    else:
        resonance_name = values.get("resonance", species.name).strip()
        try:
            resonance = get_resonance(resonance_name, resonance_registry)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None

    density = _parse_float(values.get("density_per_m3", "1e21"),
                           "[condensate] density_per_m3")
    if density <= 0.0:
        raise ConfigError(f"[condensate] density_per_m3 must be positive, got {density!r}")
    return CondensateSpec(species, resonance, density)


def load_config(config_path: str | None = None,
                overrides: list[str] | None = None,
                out_dir: str | None = None,
                out_format: str | None = None) -> RunConfig:
    """Merge defaults, the optional config file, and SECTION.KEY=VALUE
    overrides; resolve presets; validate everything up front."""
    data = {section: dict(values) for section, values in DEFAULTS.items()}

    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser = _new_parser()
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {config_path}: {exc}") from None
        _merge(data, parser)

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like SECTION.KEY=VALUE, got {item!r}")
        key_part, value = item.split("=", 1)
        section, key = key_part.split(".", 1)
        data.setdefault(section.strip(), {})[key.strip()] = value.strip()

    species_registry: dict[str, AtomSpecies] = dict(SPECIES)
    resonance_registry: dict[str, FeshbachResonance] = dict(RESONANCES)
    _load_env_presets(species_registry, resonance_registry)
    _load_preset_sections(data, species_registry, resonance_registry)

    wormhole = data["wormhole"]
    if "ellis" in wormhole and _parse_bool(wormhole["ellis"], "[wormhole] ellis"):
        q_list: tuple[float, ...] = (-1.0,)
    else:
        q_list = _parse_float_list(wormhole.get("q", "-1"), "[wormhole] q")
    b0_list = _parse_float_list(wormhole.get("b0_um", "1.0"), "[wormhole] b0_um")
    for b0 in b0_list:
        if b0 <= 0.0:
            raise ConfigError(f"[wormhole] b0_um must be positive, got {b0!r}")

    v_inf = _parse_float(data["observer"].get("v_inf_m_per_s", "0.01"),
                         "[observer] v_inf_m_per_s")
    if v_inf <= 0.0:
        raise ConfigError(f"[observer] v_inf_m_per_s must be positive, got {v_inf!r}")

    spec = _resolve_condensate(data["condensate"], species_registry,
                               resonance_registry)

    grid = data["grid"]
    x_max = _parse_float(grid.get("x_max_um", "20.0"), "[grid] x_max_um")
    x_step = _parse_float(grid.get("step_um", "0.1"), "[grid] step_um")
    if x_max <= 0.0:
        raise ConfigError(f"[grid] x_max_um must be positive, got {x_max!r}")
    if x_step <= 0.0:
        raise ConfigError(f"[grid] step_um must be positive, got {x_step!r}")

    def optional_float(key: str) -> float | None:
        return _parse_float(grid[key], f"[grid] {key}") if key in grid else None

    r_min = optional_float("r_min_um")
    r_max = optional_float("r_max_um")
    r_step = optional_float("r_step_um")
    if r_step is not None and r_step <= 0.0:
        raise ConfigError(f"[grid] r_step_um must be positive, got {r_step!r}")

    throat_epsilon = _parse_float(grid.get("throat_epsilon", "1e-3"),
                                  "[grid] throat_epsilon")
    if throat_epsilon <= 0.0:
        raise ConfigError(f"[grid] throat_epsilon must be positive, got {throat_epsilon!r}")
    throat_exclusion = _parse_float(grid.get("throat_exclusion_um", "1.0"),
                                    "[grid] throat_exclusion_um")
    if throat_exclusion < 0.0:
        raise ConfigError(f"[grid] throat_exclusion_um must be non-negative, "
                          f"got {throat_exclusion!r}")

    layout_r = _parse_float(data["layout"].get("R_um", "5.0"), "[layout] R_um")
    if layout_r <= 0.0:
        raise ConfigError(f"[layout] R_um must be positive, got {layout_r!r}")

    thresholds = data["thresholds"]
    slope_threshold = _parse_float(thresholds.get("slope_per_um", "0.067"),
                                   "[thresholds] slope_per_um")
    if slope_threshold < 0.0:
        raise ConfigError("[thresholds] slope_per_um must be non-negative, "
                          f"got {slope_threshold!r}")
    resolution_factor = _parse_float(thresholds.get("resolution_factor", "10"),
                                     "[thresholds] resolution_factor")
    if resolution_factor <= 0.0:
        raise ConfigError("[thresholds] resolution_factor must be positive, "
                          f"got {resolution_factor!r}")
    pole_delta = _parse_float(thresholds.get("pole_delta", "1e-3"),
                              "[thresholds] pole_delta")
    if pole_delta <= 0.0:
        raise ConfigError(f"[thresholds] pole_delta must be positive, got {pole_delta!r}")

    output = data["output"]
    resolved_dir = Path(out_dir if out_dir is not None else output.get("dir", "."))
    resolved_format = (out_format if out_format is not None
                       else output.get("format", "csv")).strip().lower()
    if resolved_format not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {resolved_format!r}")

    return RunConfig(
        b0_list=b0_list, q_list=q_list, v_inf=v_inf, spec=spec,
        x_max=x_max, x_step=x_step, r_min=r_min, r_max=r_max, r_step=r_step,
        throat_epsilon=throat_epsilon, throat_exclusion=throat_exclusion,
        layout_r=layout_r, slope_threshold=slope_threshold,
        resolution_factor=resolution_factor, pole_delta=pole_delta,
        out_dir=resolved_dir, out_format=resolved_format,
        species_registry=species_registry, resonance_registry=resonance_registry,
    )
