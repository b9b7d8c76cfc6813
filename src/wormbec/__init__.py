"""Laboratory control profiles for acoustic wormhole spacetimes in a
Bose-Einstein condensate.

The package synthesizes the magnetic-field, scattering-length, and
sound-speed profiles under which phonons in a condensate propagate as if
on a traversable-wormhole background, in 1+1D (conformal sound-speed
modulation) and 3+1D (flow-adapted coordinates with an exact matching
solve), and audits the recipes against experimental capabilities. Both
recipes take the wormhole as a ``ShapeFunction``, b(r) = b0 (r/b0)**q (q < 1
in 3+1D); on the command line solve-gp and profile3d take one b0 and one q.

The public names below are imported from their submodules on first
access (PEP 562), so ``import wormbec`` alone loads no numpy. The formula
functions (metric factor, 1D and 3D field, scattering and sound-speed
profiles, slope, metrics and matching residuals, zero-order solution,
proper distance, embedding height) take floats or arrays: a float gives a
float, an array the array of values. Four take floats only:
``scattering_from_field``, ``field_from_scattering``,
``sound_speed_from_field`` and ``metric_congruence_check``. The sampling
kernels return ``tableio.Table``s, the named columns they are written as;
the two audits return the JSON report sections they fill.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ConfigError", "ConvergenceError", "DomainError",
                     "PoleError"), "exceptions"),
    **dict.fromkeys(("AtomSpecies", "CondensateSpec", "FeshbachResonance",
                     "RESONANCES", "SPECIES", "cesium_condensate",
                     "field_from_scattering", "healing_length",
                     "scattering_from_field", "sound_speed_from_field",
                     "sound_speed_from_scattering"), "feshbach"),
    **dict.fromkeys(("ShapeFunction", "embedding_height", "metric_factor",
                     "proper_distance"), "geometry"),
    **dict.fromkeys(("LIGHT_SPEED", "bec_metric", "fold_radius",
                     "gp_metric", "gp_time_offset", "matching_residuals",
                     "metric_congruence_check", "solve_matching",
                     "zero_order_solution"), "gp3d"),
    **dict.fromkeys(("feasibility_1d", "field_profile_1d", "sample_profile_1d",
                     "scattering_profile_1d", "slope_metric"), "profile1d"),
    **dict.fromkeys(("LabLayout", "asymptote_radius",
                     "detect_asymptotes", "field_profile_3d", "lab_profiles_3d",
                     "resolution_audit", "scattering_profile_3d",
                     "sound_speed_profile_3d"), "profile3d"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
