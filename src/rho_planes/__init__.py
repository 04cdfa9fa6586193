"""Numerical geometry of two-dimensional normed planes.

Norm gauges and their unit circles, Birkhoff orthogonality, supporting
chords and the star map, inscribed/circumscribed polygon orbits,
supporting conics, Stieltjes sector areas, and a verification lab for the
midpoint-support property.
"""

from .errors import (ClassificationError, ConfigurationError,
                     DegenerateChordError, DomainError, GeometryError,
                     NonClosingError, NumericalError, RhoPlanesError,
                     UnsupportedSpecError)
from .norms import (NormSpec, TangentCheck, UnitPoint, as_unit_point,
                    birkhoff_orthogonality_defect, birkhoff_successor,
                    eval_norm, is_birkhoff_orthogonal, natural_param,
                    precedes, tangent_check, unit_points, wedge)
from .chords import (ChordFrame, ChordReport, MidpointReport, chord_frame,
                     chord_min, frame_grid, midpoint_check, star_map)
from .polygons import (ClosureRatio, PolygonClass, RhoPolygon, build_polygon,
                       classify, closure_ratios, polygon_to_dict, rho_from_kn,
                       wedge_sum)
from .conics import (ConicForm, conic_eval, conic_radius, conic_tangent_dir,
                     fit_rho_ellipse, tangency_dstar, tangency_star)
from .areas import SectorArea, cap_area, sector_area, total_ball_area
from .lab import (EvenProbeRecord, PartitionSuiteReport, PropertyReport,
                  SectorPartition, SelfTangencyScan, SweepResult,
                  check_midpoint_property, even_probe, frame_identities,
                  scan_self_tangency, sector_partition_suite, sweep,
                  sweep_to_csv, sweep_to_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
