"""NLOS specular wireless links bounced off flat passive screens.

Models both the plain conducting screen (physical-equivalent currents) and the
patterned electromagnetic skin (sheet-transition currents with per-cell
reflection tensors synthesized by phase conjugation), evaluates the scattered
field through a discretized Fresnel-zone radiation sum, and provides the
closed-form attenuation bounds and panel-sizing rules.
"""

from .analysis import (DeltaMetrics, MarkerSet, OptimalityInterval, TpaSweepRow,
                       delta_metrics, l_fresnel, l_threshold, markers,
                       optimality_interval, sweep)
from .aperture import (ApertureGrid, DescriptorVector, discretize, export_layout,
                       import_layout, scenario_fingerprint)
from .constants import C0, EPS0, ETA0, MU0
from .ems import (EmsPanel, ReflectionLookupTable, design_panel, ems_tpa,
                  ems_upper_bound_tpa, gstc_currents, ideal_current_phases,
                  load_reflection_table, parse_reflection_table, predicted_phase,
                  reflection_currents, save_reflection_table, synthesis_mismatch,
                  synthesize_layout, synthetic_table, wrap_phase)
from .errors import (ConfigError, DomainError, FresnelValidityError,
                     FresnelValidityWarning, GeometryError, LayoutError,
                     SkinlinkError)
from .field_engine import (CutMap, FieldCut, ObservationPoint, ScatteredField,
                           SurfaceCurrents, beta, check_fresnel, field_cut_map,
                           fresnel_min_distance, quadrature_oracle, received_power,
                           receiver_frame, receiver_tpa, scattered_field,
                           scattered_field_at_points, sinc)
from .pcs import PcsPanel, pcs_asymptotic_tpa, pcs_currents, pcs_tpa
from .scenario import (LinkScenario, db, incident_fields, load_scenario,
                       parse_scenario, wavelength)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
