"""Exact computer algebra for flags of flat bundles on curves in characteristic p.

Four layers:

* ``fields`` / ``poly`` / ``ratfunc`` / ``matrix`` -- the arithmetic substrate:
  F_{p^k}, univariate polynomials, reduced rational functions, and square
  matrices over them, with a division-free characteristic polynomial and the
  connection-operator solvers.
* ``pone`` -- split-model connections on the projective line: validity,
  curvature at every level, Frobenius pullback, Cartier descent, and complete
  flags.
* ``elliptic`` -- the invariant calculus for indecomposable bundles on a
  genus-1 curve: the canonical filtration recursion, line classes, connection
  existence, and flag skeletons.
* ``hitchin`` -- the chart-level laboratory for the hyperbolic regime:
  characteristic polynomials of p-curvature, twist descent, dimension counts,
  rank-2 no-flag certificates, and nilpotent triangularization.

The ``pflags`` command line runs 14 of these operations over JSON payloads.
"""

from .elliptic import (
    AtiyahAtom,
    AtiyahProfile,
    FlagSkeleton,
    HomConstraint,
    Pic0Group,
    PicClass,
    admits_connection,
    atiyah_profile,
    first_line_class,
    flag_skeleton,
    hom_constraint,
    line_classes,
    peel_order,
)
from .errors import (
    InternalInvariantError,
    InvalidFieldError,
    NeedsExtensionError,
    ParseError,
    PflagsError,
    PreconditionError,
)
from .fields import GF
from .hitchin import (
    ChartConn,
    CharPolyP,
    HitchinDims,
    NilpotentFlag,
    NoFlagCertificate,
    Verdict,
    char_poly_psi,
    hitchin_dims,
    nilpotent_flag_chart,
    no_flag_certificate_rank2,
    p_curvature_chart,
)
from .matrix import (
    MatRF,
    apply_connection,
    charpoly_berkowitz,
    gauge_transform,
    horizontal_sections,
    inverse,
    is_nilpotent,
    kernel,
    p_curvature_matrix,
)
from .poly import Poly, find_irreducible, poly_gcd, roots_in_field
from .pone import (
    BundleP1,
    Conn0,
    DmBundle,
    FlagP1,
    Violation,
    admits_level,
    as_level,
    canonical_connection,
    cartier_descent,
    complete_flag,
    dual,
    frobenius_pullback,
    infinity_chart_matrix,
    p_curvature,
    pm1_curvature,
    structural_violations,
    tensor,
    validate,
    verify_flag,
)
from .ratfunc import RatFunc, in_frobenius_subfield, sqrt_ratfunc

__version__ = "0.1.0"

__all__ = [
    "AtiyahAtom", "AtiyahProfile", "BundleP1", "ChartConn", "CharPolyP",
    "Conn0", "DmBundle", "FlagP1", "FlagSkeleton", "GF",
    "HitchinDims", "HomConstraint", "InternalInvariantError",
    "InvalidFieldError", "MatRF", "NeedsExtensionError", "NilpotentFlag",
    "NoFlagCertificate", "ParseError", "PflagsError", "Pic0Group", "PicClass",
    "Poly", "PreconditionError", "RatFunc", "Verdict", "Violation",
    "admits_connection", "admits_level", "apply_connection", "as_level",
    "atiyah_profile", "canonical_connection", "cartier_descent",
    "char_poly_psi", "charpoly_berkowitz", "complete_flag", "dual",
    "find_irreducible", "first_line_class", "flag_skeleton",
    "frobenius_pullback", "gauge_transform", "hitchin_dims", "hom_constraint",
    "horizontal_sections", "in_frobenius_subfield", "infinity_chart_matrix",
    "inverse", "is_nilpotent", "kernel", "line_classes",
    "nilpotent_flag_chart", "no_flag_certificate_rank2", "p_curvature",
    "p_curvature_chart", "p_curvature_matrix", "peel_order", "pm1_curvature",
    "poly_gcd", "roots_in_field", "sqrt_ratfunc", "structural_violations",
    "tensor", "validate", "verify_flag",
]
