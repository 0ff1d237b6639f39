"""JSON codecs for every value the library exchanges.

Encodings (documented in docs/formats.md): a field element is an integer for
prime fields and an ascending residue array otherwise; polynomials are
ascending coefficient arrays; rational functions are {"num", "den"} pairs;
matrices are row-major nested arrays.  Decoders raise ParseError with a
location string on malformed input; an integer must be a JSON integer (``type``
exactly ``int``), so ``true``/``false`` are rejected wherever a number is read.
Encoders produce values whose canonical json.dumps is byte-stable.

A coefficient array is decoded in one pass, residue arrays read as base-p
digits in the same loop, and a location (``chart.A[1][0].num[2]``) is
formatted only when a fault is raised: matrix and connection entries are
decoded at the empty location and their own location is put in front of a
fault's.  A field's extension degree is capped at ``K_MAX``, an extension
field with p >= ``P_SEARCH`` must give its modulus, and a chart's field needs
p < ``P_CHART``, as does a connection's for the ops that iterate T.

Every matrix payload has one shape decoder, ``_square_rows``, which decodes
each entry with the decoder it is handed: ``poly_from_json`` for a
connection's A, once its row count is checked against ``twist_degrees``.  A
matrix of rational functions, a chart's A and ``charpoly``'s alike, has one
decoder, ``matrix_from_json``: each entry is read as the (num, den) it is
written as, and ``matrix._clear_fractions`` clears the matrix with no entry
reduced, to the pair (B, beta) of a ``MatRF``; the parse builds no
``RatFunc``, and the matrix forms its rows only if they are read.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .elliptic import AtiyahAtom, FlagSkeleton, Pic0Group, PicClass
from .errors import InvalidFieldError, ParseError, PflagsError
from .fields import Field, GF
from .hitchin import ChartConn, CharPolyP, NoFlagCertificate
from .matrix import MatRF, _clear_fractions
from .poly import Poly
from .pone import BundleP1, Conn0, DmBundle, FlagP1, _level_fits
from .ratfunc import RatFunc


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ParseError(f"{where}: {msg}")


# -- fields and algebra ----------------------------------------------------------


def field_to_json(field: Field) -> dict:
    out = {"p": field.p, "k": field.k}
    if field.k > 1:
        out["modulus"] = list(field.modulus)
    return out


# The largest extension degree a payload may name.  GF searches for the
# default modulus with Ben-Or's test; on a shared 2-vCPU Intel Xeon with
# CPython 3.11 that search took 7.3 s at k = 64 (p = 31) and 83 s at k = 96
# (p = 251).  The cost is not monotone in k: at k = 32 itself it took at most
# 2.6 s over every p < 600 (0.7 s at k = 16), but one pass over every p < 600
# and every k from 2 to 32 found p = 79 at k = 31 taking 11.6-16.4 s, though
# most (p, k) end in under 2 s (see P_SEARCH).
K_MAX = 32

# The search steps through the constant term first, so at large p a degree with no
# irreducible binomial scans about p candidates: on the same machine p = 10,007 at
# k = 8 took 2.5 s, p = 100,003 at k = 4 took 27 s, and p = 2^61 - 1 at k = 4 did not
# end in 20 s.  A payload names an extension field with p >= P_SEARCH by its modulus.
# Below it the slowest (p, k) with k <= K_MAX was p = 79, k = 31: 11.6 s.
P_SEARCH = 600


def field_from_json(obj: Any, where: str = "field") -> Field:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect(type(obj.get("p")) is int, where, "p must be an integer")
    k = obj.get("k", 1)
    _expect(type(k) is int, where, "k must be an integer")
    _expect(k <= K_MAX, where, f"k must be <= {K_MAX}")
    modulus = obj.get("modulus")
    if modulus is not None:
        _expect(isinstance(modulus, list) and all(type(c) is int for c in modulus),
                where, "modulus must be an integer array")
    else:
        _expect(k == 1 or obj["p"] < P_SEARCH, where,
                f"give the modulus: the default is searched for only when p < {P_SEARCH}")
    try:
        return GF(obj["p"], k, modulus)
    except InvalidFieldError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def elem_to_json(field: Field, e: int) -> Any:
    return e if field.k == 1 else field.coeffs(e)


def elem_from_json(field: Field, obj: Any, where: str = "element") -> int:
    return _elems_from_json(field, (obj,), lambda i: where)[0]


def _elems_from_json(field: Field, objs, at) -> list[int]:
    """The elements encoded by the JSON values ``objs``, in one pass: an
    element is an int in [0, p), or an array of at most k ints in [0, p),
    its base-p digits constant first (missing digits are zero).  A fault in
    objs[i] raises ParseError at the location ``at(i)``, formatted only then."""
    p, k = field.p, field.k
    out = []
    for c in objs:
        if type(c) is int:
            if 0 <= c < p:
                out.append(c)
                continue
        elif isinstance(c, list) and len(c) <= k:
            n = 0
            for d in reversed(c):
                if type(d) is not int or not 0 <= d < p:
                    break
                n = n * p + d
            else:
                out.append(n)
                continue
        if type(c) is int:  # the element's checks, in the order they apply
            msg = f"residue out of range for {field!r}"
        elif not (isinstance(c, list) and all(type(d) is int for d in c)):
            msg = "expected an integer or residue array"
        elif not all(0 <= d < p for d in c):
            msg = "residues must be in [0, p)"
        else:
            msg = f"element needs <= {k} residues, got {len(c)}"
        raise ParseError(f"{at(len(out))}: {msg}")
    return out


def poly_to_json(f: Poly) -> list:
    field = f.field
    if field.k == 1:
        return list(f.coeffs)
    p = field.p
    places = [p**i for i in range(field.k)]
    return [[c // w % p for w in places] for c in f.coeffs]


def poly_from_json(field: Field, obj: Any, where: str = "poly") -> Poly:
    _expect(isinstance(obj, list), where, "expected a coefficient array")
    return Poly(field, _elems_from_json(field, obj, lambda i: f"{where}[{i}]"))


def ratfunc_to_json(f: RatFunc) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfunc_from_json(field: Field, obj: Any, where: str = "ratfunc") -> RatFunc:
    return RatFunc(*_fraction_from_json(field, obj, where))


def _fraction_from_json(field: Field, obj: Any, where: str) -> tuple[Poly, Poly]:
    """(num, den) of a ratfunc's JSON value as written, not reduced; a bare
    polynomial is accepted, over 1."""
    if isinstance(obj, list):
        return poly_from_json(field, obj, where), Poly.one(field)
    _expect(isinstance(obj, dict) and "num" in obj and "den" in obj,
            where, "expected {num, den}")
    num = poly_from_json(field, obj["num"], f"{where}.num")
    den = poly_from_json(field, obj["den"], f"{where}.den")
    if den.is_zero():
        raise ParseError(f"{where}: zero denominator")
    return num, den


def matrix_to_json(m: MatRF) -> list:
    return [[ratfunc_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(field: Field, obj: Any, where: str = "matrix") -> MatRF:
    """A matrix carrying its cleared pair (B, beta), formed here once: each
    entry is decoded as its (num, den) as written, and ``_clear_fractions``
    clears the matrix with no entry reduced.  Its rows are formed only if
    they are read."""
    rows = _square_rows(_fraction_from_json, field, obj, where)
    return MatRF.from_cleared(field, *_clear_fractions(field, rows))


def _square_rows(decode, field: Field, obj: Any, where: str) -> list[list]:
    """The rows of a square matrix payload, each entry decoded by ``decode``
    at the empty location; a fault in entry (i, j) is raised again behind
    ``where[i][j]``, so entry locations are formatted only on a fault."""
    _expect(isinstance(obj, list) and obj, where, "expected a nonempty nested array")
    rows = []
    for i, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == len(obj), where,
                f"row {i} must have length {len(obj)}")
        out = []
        try:
            for e in row:
                out.append(decode(field, e, ""))
        except ParseError as exc:
            raise ParseError(f"{where}[{i}][{len(out)}]{exc}") from exc
        rows.append(out)
    return rows


# -- projective line ---------------------------------------------------------------


def connection_to_json(d: DmBundle) -> dict:
    base = d.base
    return {
        "field": field_to_json(base.field),
        "level": d.m,
        "twist_degrees": list(base.degrees),
        "A": [[poly_to_json(e) for e in row] for row in base.A],
    }


def connection_from_json(obj: Any, where: str = "connection", iterates: bool = False) -> DmBundle:
    """A connection payload; with ``iterates`` (the ops that iterate T: the
    p-curvature, the pullback and Cartier descent) its field needs p < P_CHART."""
    _expect(isinstance(obj, dict), where, "expected an object")
    field = field_from_json(obj.get("field"), f"{where}.field")
    _expect(not iterates or field.p < P_CHART, f"{where}.field",
            f"iterating T needs p < {P_CHART}")
    level = obj.get("level", 0)
    _expect(type(level) is int and level >= 0, where, "level must be a nonnegative integer")
    _expect(_level_fits(field.p, level), where, "level must have p^level <= 2^16")
    degs = obj.get("twist_degrees")
    _expect(isinstance(degs, list) and degs and all(type(x) is int for x in degs),
            where, "twist_degrees must be a nonempty integer array")
    sorted_degs = sorted(degs, reverse=True)
    _expect(list(degs) == sorted_degs, where, "twist_degrees must be descending")
    amat = obj.get("A")
    _expect(isinstance(amat, list) and len(amat) == len(degs), where,
            f"A must be a {len(degs)}x{len(degs)} matrix of polynomials")
    base = Conn0(field, BundleP1(degs), _square_rows(poly_from_json, field, amat, f"{where}.A"))
    return DmBundle(level, base)


def flag_to_json(f: FlagP1) -> dict:
    return {"perm": list(f.perm)}


def flag_from_json(obj: Any, where: str = "flag") -> FlagP1:
    _expect(isinstance(obj, dict) and isinstance(obj.get("perm"), list)
            and all(type(i) is int for i in obj["perm"]), where,
            "expected {perm: [...]} with integer entries")
    try:
        return FlagP1(obj["perm"])
    except PflagsError as exc:
        raise ParseError(f"{where}: {exc}") from exc


# -- elliptic -----------------------------------------------------------------------


def group_to_json(g: Pic0Group) -> dict:
    return {"factors": list(g.factors)}


def group_from_json(obj: Any, where: str = "group") -> Pic0Group:
    _expect(isinstance(obj, dict) and isinstance(obj.get("factors"), list), where,
            "expected {factors: [...]}")
    _expect(all(type(n) is int and n >= 1 for n in obj["factors"]), where,
            "factors must be integers >= 1")
    return Pic0Group(tuple(obj["factors"]))


def atom_to_json(a: AtiyahAtom) -> dict:
    return {"r": a.r, "d": a.d, "lam": list(a.lam)}


def atom_from_json(group: Pic0Group, obj: Any, where: str = "atom") -> AtiyahAtom:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect(type(obj.get("r")) is int and type(obj.get("d")) is int, where,
            "r and d must be integers")
    lam = obj.get("lam", [0] * len(group.factors))
    _expect(isinstance(lam, list) and all(type(t) is int for t in lam), where,
            "lam must be an integer array")
    try:
        return AtiyahAtom(group, obj["r"], obj["d"], tuple(lam))
    except PflagsError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def pic_class_to_json(c: PicClass) -> dict:
    return {"degree": c.degree, "tor": list(c.tor)}


def skeleton_to_json(s: FlagSkeleton) -> list:
    return [{"degree": cls.degree, "tor": list(cls.tor), "mult": m} for cls, m in s.entries]


# -- hyperbolic chart ------------------------------------------------------------------


def chart_to_json(c: ChartConn) -> dict:
    return {"field": field_to_json(c.field), "r": c.r, "A": matrix_to_json(c.A)}


# Katz's recurrence for psi takes about p^2 steps at any rank.  On the same machine,
# r x r charts with numerators of degree 2 or 6 over one quadratic denominator took
# 0.14-0.80 s in char_poly_psi and 0.32-1.96 s in p_curvature_chart at p = 293, the
# largest prime below the cap (r = 2-3), against 0.79-4.84 s and 1.28-10.3 s at p = 509
# (r = 2-4); at p = 10,007 a rank-1 chart did not end in 20 s.  Rank and entry degree
# still scale the cost.  A chart payload names a field with p < P_CHART, and so does
# the connection payload of an op that iterates T (p-curvature, pullback, Cartier
# descent): pone-descend on a rank-2 flat connection took 5.5 s at p = 10,007 and
# 0.03 s at p = 293.
P_CHART = 300


def chart_from_json(obj: Any, where: str = "chart") -> ChartConn:
    """A chart whose A is ``matrix_from_json``'s: it carries its cleared pair
    (B, beta), and its rows are formed only if they are read."""
    _expect(isinstance(obj, dict), where, "expected an object")
    field = field_from_json(obj.get("field"), f"{where}.field")
    _expect(field.p < P_CHART, f"{where}.field", f"a chart needs p < {P_CHART}")
    a = matrix_from_json(field, obj.get("A"), f"{where}.A")
    r = obj.get("r", a.n)
    _expect(type(r) is int and r == a.n, where, "r must match the matrix size")
    return ChartConn(field, r, a)


def charpoly_to_json(cp: CharPolyP) -> dict:
    return {
        "charpoly": [ratfunc_to_json(c) for c in cp.full()],
        "descent_ok": cp.descent_ok,
    }


def certificate_to_json(cert: NoFlagCertificate) -> dict:
    return {
        **charpoly_to_json(cert.char),
        "verdict": cert.verdict.value,
        "witness": None if cert.witness is None else ratfunc_to_json(cert.witness),
        "reason": cert.reason,
    }
