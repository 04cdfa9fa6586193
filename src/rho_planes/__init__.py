"""Numerical geometry of two-dimensional normed planes.

Norm gauges and their unit circles, Birkhoff orthogonality, supporting
chords and the star map, inscribed/circumscribed polygon orbits,
supporting conics, Stieltjes sector areas, and a verification lab for the
midpoint-support property.
"""

from .errors import (ConfigurationError, DegenerateChordError, DomainError,
                     GeometryError, NonClosingError, NumericalError,
                     RhoPlanesError, UnsupportedSpecError)
from .norms import (NormSpec, UnitPoint, as_unit_point, birkhoff_successor,
                    is_birkhoff_orthogonal, natural_param, unit_points, wedge)
from .chords import (ChordFrame, ChordReport, MidpointReport, chord_frame,
                     chord_min, frame_grid, midpoint_check, star_map)
from .polygons import RhoPolygon, build_polygon, polygon_to_dict, rho_from_kn
from .conics import (ConicForm, conic_eval, fit_rho_ellipse, tangency_dstar,
                     tangency_star)
from .areas import SectorArea, cap_area, sector_area, total_ball_area
from .lab import (EvenProbeRecord, PartitionSuiteReport, PropertyReport,
                  SectorPartition, SweepResult, check_midpoint_property,
                  even_probe, frame_identities, sector_partition_suite, sweep,
                  sweep_to_csv, sweep_to_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
