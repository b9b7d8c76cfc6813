"""Laboratory control profiles for acoustic wormhole spacetimes in a
Bose-Einstein condensate.

The package synthesizes the magnetic-field, scattering-length, and
sound-speed profiles under which phonons in a condensate propagate as if
on a traversable-wormhole background, in 1+1D (conformal sound-speed
modulation) and 3+1D (flow-adapted coordinates with an exact matching
solve), and audits the recipes against experimental capabilities.
"""

from .exceptions import (ConfigError, ConvergenceError, DomainError,
                         PoleError)
from .feshbach import (AtomSpecies, CondensateSpec, FeshbachResonance,
                       RESONANCES, SPECIES, cesium_condensate,
                       field_from_scattering, healing_length,
                       scattering_from_field, sound_speed_from_field,
                       sound_speed_from_scattering)
from .geometry import (ShapeFunction, ThroatClass, classify_throat,
                       effective_light_speed, embedding_height,
                       metric_factor, proper_distance, shape_b)
from .gp3d import (DEFAULT_LIGHT_SPEED, GpSolution, MetricAtPoint,
                   ObserverSpec, bec_metric, fold_radius, gp_metric,
                   gp_time_offset, lorentz_gamma, matching_residuals,
                   metric_congruence_check, radial_geodesic_velocity,
                   solve_matching, zero_order_solution)
from .profile1d import (Feasibility1D, Profile1D,
                        SLOPE_CAPABILITY_PER_UM, feasibility_1d,
                        field_profile_1d, lab_coordinate_1d,
                        lab_coordinate_inverse, sample_profile_1d,
                        scattering_profile_1d, slope_metric)
from .profile3d import (LabLayout, LabProfile3D, ResolutionReport,
                        asymptote_radius, detect_asymptotes,
                        field_profile_3d, lab_profiles_3d,
                        resolution_audit, scattering_profile_3d,
                        sound_speed_profile_3d)

__version__ = "0.1.0"
