"""The package's front door: exports loaded on first use, and the op registry."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pflags
from pflags import ops

EXPORTS = {
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
}

OPS = [
    "find_irreducible", "charpoly", "sqrt_ratfunc", "in_frobenius_subfield",
    "roots_in_field", "admits_level", "canonical_connection", "validate",
    "pm1_curvature", "frobenius_pullback", "tensor", "dual", "cartier_descent",
    "complete_flag", "verify_flag", "atiyah_profile", "line_classes",
    "admits_connection", "flag_skeleton", "hom_constraint", "peel_order",
    "p_curvature_chart", "char_poly_psi", "hitchin_dims", "no_flag_certificate",
    "nilpotent_flag",
]


def test_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(Path(pflags.__file__).resolve().parents[1])}
    code = ("import sys, pflags; "
            "print(sorted(m for m in sys.modules if m.startswith('pflags.'))); "
            "from pflags import jsonio; import pflags.jsonio; "
            "print(jsonio is sys.modules['pflags.jsonio'])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nTrue\n"


def test_star_import_binds_each_export_from_its_defining_module():
    namespace = {}
    exec("from pflags import *", namespace)
    del namespace["__builtins__"]
    assert len(EXPORTS) == 66
    assert set(namespace) == EXPORTS == set(pflags.__all__)
    for name, value in namespace.items():
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(pflags)[name] is value  # kept after its first use


def test_dir_lists_every_export_and_unknown_names_raise():
    assert EXPORTS <= set(dir(pflags))
    assert not hasattr(pflags, "Field")  # defined in fields, but not exported
    with pytest.raises(AttributeError, match="has no attribute 'Field'"):
        pflags.Field  # noqa: B018


def test_op_table_is_every_op_function_in_definition_order():
    assert list(ops.OP_TABLE) == OPS
    for name, fn in ops.OP_TABLE.items():
        assert fn is getattr(ops, "op_" + name)
