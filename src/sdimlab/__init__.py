"""Certified connected-cover counts for plane continua and IFS attractors.

Two worlds under one roof.  The exact side builds shark-teeth truncations
as rational plane graphs and brackets their connected-cover numbers with
re-checkable certificates; its per-scale ratios grow without any visible
ceiling.  The floating-point side covers self-similar attractors by word
pieces, where the same ratios stay pinned below ln(n)/-ln(ratio).  The
dimension module sweeps both and puts the contrast side by side.
"""

from .continuum import (LimitCheck, ToothPolyline, ToothSequenceSpec,
                        build_shark_teeth, limit_check, n_k,
                        next_amplitude_bound, phi, phi_n, predicted_counts,
                        spec_from_meta, tooth_height, tooth_polyline)
from .cover import (CoverCertificate, EdgeFragment, GraphPoint,
                    SeparationCertificate, SubSet, TruncationGuard,
                    certificate_from_json_dict, check_cover,
                    check_separation, lower_separation, s_bounds,
                    truncation_guard, upper_cover)
from .dimension import (DimensionProfile, ScaleRow, ifs_bound_report,
                        make_row, read_profile_csv, scale_ratio,
                        sdim_estimate, sweep, write_profile_csv)
from .errors import (BudgetExceeded, DisconnectedInput, EmptySubset,
                     HostMismatch, OverlapError, ParseError, SdimlabError,
                     SizeLimit, TooFewScales, TooLarge, VerificationFailure)
from .geom import (PLGraph, Point, Segment, arrange, dist2, format_rational,
                   parse_rational, point, points_diameter2, segment)
from .ifs import (FIXTURES, AffineMap2, IFSSpec, WordCover, WordPiece,
                  attractor_cloud, cantor_dust, cloud_diameter, find_k0,
                  hausdorff, ifs_dimension_bound, lip_affine, s_upper_ifs,
                  segment_halves, sierpinski, word_cover)
from .limits import Budget
from .render import render_cloud_svg, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
