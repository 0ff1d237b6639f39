"""JSON-in, JSON-out wrappers around every library operation.

The CLI subcommands and the fixture selftest both dispatch through
``OP_TABLE``, which maps each op's name to its ``op_<name>`` function, in
definition order: defining the function registers the op.  The CLI runs 14
of these ops (its ``SUBCOMMANDS`` rows name them); the fixtures exercise
every op.  Payload validation errors raise ParseError; domain violations
raise through from the library untouched.
"""

from __future__ import annotations

from typing import Any, Callable

from . import elliptic, hitchin, jsonio, pone
from .errors import ParseError
from .matrix import charpoly_berkowitz
from .poly import find_irreducible, roots_in_field
from .pone import BundleP1
from .ratfunc import in_frobenius_subfield, sqrt_ratfunc


def _require(payload: Any, *keys: str) -> None:
    if not isinstance(payload, dict):
        raise ParseError("input payload must be a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise ParseError(f"input payload is missing {', '.join(missing)}")


def _int(payload: dict, key: str) -> int:
    v = payload.get(key)
    if type(v) is not int:  # JSON true/false are not integers
        raise ParseError(f"{key} must be an integer")
    return v


def _ints(payload: dict, key: str) -> list[int]:
    v = payload.get(key)
    if not isinstance(v, list) or not all(type(d) is int for d in v):
        raise ParseError(f"{key} must be an integer array")
    return v


# -- algebra ----------------------------------------------------------------------


def op_find_irreducible(payload: dict) -> Any:
    _require(payload, "p", "k")
    p, k = _int(payload, "p"), _int(payload, "k")
    if k > jsonio.K_MAX:
        raise ParseError(f"k must be <= {jsonio.K_MAX}")
    if k > 1 and p >= jsonio.P_SEARCH:
        raise ParseError("an irreducible of degree k > 1 is searched for only when "
                         f"p < {jsonio.P_SEARCH}")
    return jsonio.poly_to_json(find_irreducible(p, k))


def op_charpoly(payload: dict) -> Any:
    _require(payload, "field", "A")
    field = jsonio.field_from_json(payload["field"])
    m = jsonio.matrix_from_json(field, payload["A"])
    return [jsonio.ratfunc_to_json(c) for c in charpoly_berkowitz(m)]


def op_sqrt_ratfunc(payload: dict) -> Any:
    _require(payload, "field", "f")
    field = jsonio.field_from_json(payload["field"])
    root = sqrt_ratfunc(jsonio.ratfunc_from_json(field, payload["f"]))
    return None if root is None else jsonio.ratfunc_to_json(root)


def op_in_frobenius_subfield(payload: dict) -> Any:
    _require(payload, "field", "f", "s")
    field = jsonio.field_from_json(payload["field"])
    return in_frobenius_subfield(jsonio.ratfunc_from_json(field, payload["f"]),
                                 _int(payload, "s"))


def op_roots_in_field(payload: dict) -> Any:
    _require(payload, "field", "f")
    field = jsonio.field_from_json(payload["field"])
    f = jsonio.poly_from_json(field, payload["f"])
    return [jsonio.elem_to_json(field, a) for a in roots_in_field(f)]


# -- projective line ------------------------------------------------------------------


def op_admits_level(payload: dict) -> Any:
    _require(payload, "degrees", "p", "m")
    return pone.admits_level(BundleP1(_ints(payload, "degrees")), _int(payload, "p"),
                             _int(payload, "m"))


def op_canonical_connection(payload: dict) -> Any:
    _require(payload, "degrees", "field", "m")
    field = jsonio.field_from_json(payload["field"])
    d = pone.canonical_connection(BundleP1(_ints(payload, "degrees")), field, _int(payload, "m"))
    return jsonio.connection_to_json(d)


def op_validate(payload: dict) -> Any:
    _require(payload, "connection")
    d = jsonio.connection_from_json(payload["connection"])
    violations = pone.validate(d.base)
    return [{"row": v.row, "col": v.col, "order": v.order} for v in violations]


def op_pm1_curvature(payload: dict) -> Any:
    _require(payload, "connection")
    d = jsonio.connection_from_json(payload["connection"], iterates=True)
    psi = pone.pm1_curvature(d)
    return {"psi": jsonio.matrix_to_json(psi), "zero": psi.is_zero()}


def op_frobenius_pullback(payload: dict) -> Any:
    _require(payload, "connection", "s")
    d = jsonio.connection_from_json(payload["connection"], iterates=True)
    out = pone.frobenius_pullback(d, _int(payload, "s"))
    return {
        "connection": jsonio.connection_to_json(out),
        "underlying_degrees": list(out.underlying_degrees()),
        "psi": jsonio.matrix_to_json(pone.pm1_curvature(out)),
    }


def _level0(obj: Any, name: str, where: str = "connection",
            iterates: bool = False) -> pone.Conn0:
    """The level-0 connection of the connection payload ``obj``, read at
    ``where`` (see ``jsonio.connection_from_json``), for an op that refuses
    any other level with a parse error naming it ``name``."""
    d = jsonio.connection_from_json(obj, where, iterates)
    if d.m:
        raise ParseError(f"{name} operates on level-0 connections")
    return d.base


def op_tensor(payload: dict) -> Any:
    _require(payload, "a", "b")
    conn, perm = pone.tensor(_level0(payload["a"], "tensor", "a"),
                             _level0(payload["b"], "tensor", "b"))
    return {
        "connection": jsonio.connection_to_json(pone.as_level(conn)),
        "perm": list(perm),
        "valid": not pone.validate(conn),
    }


def op_dual(payload: dict) -> Any:
    _require(payload, "connection")
    conn, perm = pone.dual(_level0(payload["connection"], "dual"))
    return {
        "connection": jsonio.connection_to_json(pone.as_level(conn)),
        "perm": list(perm),
        "valid": not pone.validate(conn),
    }


def op_cartier_descent(payload: dict) -> Any:
    _require(payload, "connection")
    bundle, frame = pone.cartier_descent(_level0(payload["connection"], "descent", iterates=True))
    return {
        "descended_degrees": list(bundle.degrees),
        "frame": jsonio.matrix_to_json(frame),
    }


def op_complete_flag(payload: dict) -> Any:
    _require(payload, "connection")
    d = jsonio.connection_from_json(payload["connection"])
    flag = pone.complete_flag(d)
    return jsonio.flag_to_json(flag)


def op_verify_flag(payload: dict) -> Any:
    _require(payload, "connection", "flag")
    d = jsonio.connection_from_json(payload["connection"])
    flag = jsonio.flag_from_json(payload["flag"])
    return pone.verify_flag(d.base, flag)


# -- elliptic ---------------------------------------------------------------------------


def op_atiyah_profile(payload: dict) -> Any:
    _require(payload, "r", "d")
    pr = elliptic.atiyah_profile(_int(payload, "r"), _int(payload, "d"))
    return {
        "pairs": [list(p) for p in pr.pairs],
        "degL": list(pr.deg_l),
        "grRanks": list(pr.gr_ranks),
        "m": pr.m,
        "ell": pr.ell,
        "h": pr.h,
    }


def _group(payload: dict):
    return jsonio.group_from_json(payload.get("group", {"factors": []}))


def _atoms(payload: dict):
    group = _group(payload)
    atoms = payload.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ParseError("atoms must be a nonempty array of atoms")
    return [jsonio.atom_from_json(group, a, f"atoms[{i}]") for i, a in enumerate(atoms)]


def op_line_classes(payload: dict) -> Any:
    _require(payload, "atom")
    atom = jsonio.atom_from_json(_group(payload), payload["atom"])
    return [jsonio.pic_class_to_json(c) for c in elliptic.line_classes(atom)]


def op_admits_connection(payload: dict) -> Any:
    _require(payload, "atoms", "p")
    return elliptic.admits_connection(_atoms(payload), _int(payload, "p"))


def op_flag_skeleton(payload: dict) -> Any:
    _require(payload, "atoms", "p")
    return jsonio.skeleton_to_json(elliptic.flag_skeleton(_atoms(payload), _int(payload, "p")))


def op_hom_constraint(payload: dict) -> Any:
    _require(payload, "src", "dst")
    group = _group(payload)
    src = jsonio.atom_from_json(group, payload["src"], "src")
    dst = jsonio.atom_from_json(group, payload["dst"], "dst")
    return elliptic.hom_constraint(src, dst).value


def op_peel_order(payload: dict) -> Any:
    _require(payload, "atoms")
    return [jsonio.pic_class_to_json(c) for c in elliptic.peel_order(_atoms(payload))]


# -- hyperbolic chart ---------------------------------------------------------------------


def op_p_curvature_chart(payload: dict) -> Any:
    _require(payload, "chart")
    chart = jsonio.chart_from_json(payload["chart"])
    return jsonio.matrix_to_json(hitchin.p_curvature_chart(chart))


def op_char_poly_psi(payload: dict) -> Any:
    _require(payload, "chart")
    chart = jsonio.chart_from_json(payload["chart"])
    return jsonio.charpoly_to_json(hitchin.char_poly_psi(chart))


def op_hitchin_dims(payload: dict) -> Any:
    _require(payload, "g", "r")
    dims = hitchin.hitchin_dims(_int(payload, "g"), _int(payload, "r"))
    return {"dimB": dims.dim_b, "dimD": dims.dim_d,
            "gamma_nondominant": dims.gamma_nondominant}


def op_no_flag_certificate(payload: dict) -> Any:
    _require(payload, "chart")
    chart = jsonio.chart_from_json(payload["chart"])
    return jsonio.certificate_to_json(hitchin.no_flag_certificate_rank2(chart))


def op_nilpotent_flag(payload: dict) -> Any:
    _require(payload, "chart")
    chart = jsonio.chart_from_json(payload["chart"])
    result = hitchin.nilpotent_flag_chart(chart)
    return {"gauge": jsonio.matrix_to_json(result.gauge), "perm": list(result.perm)}


OP_TABLE: dict[str, Callable[[dict], Any]] = {
    name.removeprefix("op_"): fn for name, fn in globals().items() if name.startswith("op_")}
