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

``_EXPORTS`` lists each exported name once, under the module that defines it.
``import pflags`` loads none of those modules: a name is imported on first use
(PEP 562) and then kept in the package namespace, so ``pflags.GF`` loads
``fields`` and what it imports, nothing more.  A submodule is an attribute of
the package once it has been imported, as with ``import pflags.matrix``.
"""

from importlib import import_module

_EXPORTS = {
    "elliptic": ("AtiyahAtom", "AtiyahProfile", "FlagSkeleton", "HomConstraint",
                 "Pic0Group", "PicClass", "admits_connection", "atiyah_profile",
                 "first_line_class", "flag_skeleton", "hom_constraint", "line_classes",
                 "peel_order"),
    "errors": ("InternalInvariantError", "InvalidFieldError", "NeedsExtensionError",
               "ParseError", "PflagsError", "PreconditionError"),
    "fields": ("GF",),
    "hitchin": ("ChartConn", "CharPolyP", "HitchinDims", "NilpotentFlag",
                "NoFlagCertificate", "Verdict", "char_poly_psi", "hitchin_dims",
                "nilpotent_flag_chart", "no_flag_certificate_rank2", "p_curvature_chart"),
    "matrix": ("MatRF", "apply_connection", "charpoly_berkowitz", "gauge_transform",
               "horizontal_sections", "inverse", "is_nilpotent", "kernel",
               "p_curvature_matrix"),
    "poly": ("Poly", "find_irreducible", "poly_gcd", "roots_in_field"),
    "pone": ("BundleP1", "Conn0", "DmBundle", "FlagP1", "Violation", "admits_level",
             "as_level", "canonical_connection", "cartier_descent", "complete_flag", "dual",
             "frobenius_pullback", "infinity_chart_matrix", "p_curvature", "pm1_curvature",
             "structural_violations", "tensor", "validate", "verify_flag"),
    "ratfunc": ("RatFunc", "in_frobenius_subfield", "sqrt_ratfunc"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
