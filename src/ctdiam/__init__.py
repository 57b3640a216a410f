"""Graded polynomial degree, Chebyshev constants, and transfinite diameter on meshes.

The pieces, bottom up: `body` holds convex bodies in the nonnegative
orthant with an exact rational gauge; `order` the two total orders on
exponents; `mesh` finite weighted discretizations of compact sets;
`cheb` the monic min-max solves; `vdm` and `leja` the Vandermonde
maximizers; `tdiam` the diameter estimates and the consistency report;
`serialize` the format of every CSV and JSON artifact; `cli` the batch
driver.
"""

from .body import (
    ConvexBody,
    DaggerReport,
    average_total_degree,
    box_body,
    check_dagger,
    parse_body_spec,
    simplex_body,
    validate_body,
)
from .cheb import (
    ChebyshevRecord,
    TransformTable,
    chebyshev_constant,
    directional_constant,
    lower_monomials,
    transform_grid,
)
from .errors import CtdiamError, SolverFailure, ValidationError
from .leja import LejaSequence, leja_diameter, leja_sequence
from .mesh import Mesh, Polynomial, build_mesh, mesh_from_csv, monomial_values, weighted_sup_norm
from .order import CGREVLEX, GREVLEX, cgrevlex_cmp, grevlex_cmp, monomial_sequence
from .tdiam import (
    DiameterReport,
    ReportOptions,
    build_report,
    d_estimate_transform,
    d_estimate_vdm,
    delta_k,
    final_delta,
)
from .vdm import BruteForce, Greedy, VdmValue, fekete_points, max_vdm, vandermonde_det

__version__ = "0.1.0"

__all__ = [
    "BruteForce",
    "CGREVLEX",
    "ChebyshevRecord",
    "ConvexBody",
    "CtdiamError",
    "DaggerReport",
    "DiameterReport",
    "GREVLEX",
    "Greedy",
    "LejaSequence",
    "Mesh",
    "Polynomial",
    "ReportOptions",
    "SolverFailure",
    "TransformTable",
    "ValidationError",
    "VdmValue",
    "average_total_degree",
    "box_body",
    "build_mesh",
    "build_report",
    "cgrevlex_cmp",
    "chebyshev_constant",
    "check_dagger",
    "d_estimate_transform",
    "d_estimate_vdm",
    "delta_k",
    "directional_constant",
    "fekete_points",
    "final_delta",
    "grevlex_cmp",
    "leja_diameter",
    "leja_sequence",
    "lower_monomials",
    "max_vdm",
    "mesh_from_csv",
    "monomial_sequence",
    "monomial_values",
    "parse_body_spec",
    "simplex_body",
    "transform_grid",
    "validate_body",
    "vandermonde_det",
    "weighted_sup_norm",
]
