import dataclasses
import random

import pytest

from pflags import jsonio
from pflags.elliptic import AtiyahAtom, Pic0Group
from pflags.errors import InvalidFieldError, ParseError
from pflags.fields import GF
from pflags.matrix import MatRF
from pflags.poly import Poly
from pflags.pone import DmBundle
from pflags.ratfunc import RatFunc
from pflags.sampling import random_chart_conn, random_conn0, random_poly, random_ratfunc

from test_matrix import _clear_denominators


def test_field_roundtrip_and_default_modulus():
    f = GF(3, 2)
    assert jsonio.field_from_json(jsonio.field_to_json(f)) is f
    assert jsonio.field_from_json({"p": 3, "k": 2}) is f  # default modulus
    assert jsonio.field_to_json(GF(5)) == {"p": 5, "k": 1}


def test_field_parse_errors():
    with pytest.raises(ParseError):
        jsonio.field_from_json({"p": 6, "k": 1})
    with pytest.raises(ParseError):
        jsonio.field_from_json({"p": 2, "k": 2, "modulus": [1, 0, 1]})
    with pytest.raises(ParseError):
        jsonio.field_from_json(["not", "an", "object"])
    for bad in ({"p": True}, {"p": 3, "k": True}, {"p": 2, "k": 2, "modulus": [True, 1, 1]},
                {"p": 3, "k": 1, "modulus": [0, 2]}, {"p": 3, "k": 1, "modulus": [0, 0, 1]}):
        with pytest.raises(ParseError):
            jsonio.field_from_json(bad)



def test_extension_degree_is_capped_at_parse():
    assert jsonio.field_from_json({"p": 2, "k": jsonio.K_MAX}) is GF(2, 32)
    for bad in ({"p": 2, "k": 33}, {"p": 3, "k": 2000},
                {"p": 2, "k": 33, "modulus": [1] + [0] * 32 + [1]}):
        with pytest.raises(ParseError) as info:
            jsonio.field_from_json(bad)
        assert str(info.value) == "field: k must be <= 32"

def test_elem_codec():
    prime = GF(7)
    assert jsonio.elem_to_json(prime, 5) == 5
    assert jsonio.elem_from_json(prime, 5) == 5
    ext = GF(2, 2)
    assert jsonio.elem_to_json(ext, 3) == [1, 1]
    assert jsonio.elem_from_json(ext, [1, 1]) == 3
    assert jsonio.elem_from_json(ext, 1) == 1  # prime-subfield shorthand
    with pytest.raises(ParseError):
        jsonio.elem_from_json(prime, 9)
    for field, bad in ((prime, True), (prime, False), (ext, [True, 0]), (ext, False)):
        with pytest.raises(ParseError):
            jsonio.elem_from_json(field, bad)


def test_poly_and_ratfunc_roundtrip():
    rng = random.Random(61)
    for field in (GF(2), GF(5), GF(3, 2)):
        for _ in range(20):
            f = random_poly(rng, field, 4)
            assert jsonio.poly_from_json(field, jsonio.poly_to_json(f)) == f
            g = random_ratfunc(rng, field)
            assert jsonio.ratfunc_from_json(field, jsonio.ratfunc_to_json(g)) == g



def test_poly_encoding_is_the_element_encoding_per_coefficient():
    rng = random.Random(65)
    for field in (GF(5), GF(2, 2), GF(3, 2), GF(2, 13)):
        f = Poly(field, [0, 1, field.p - 1, field.p, field.q - 1] +
                 [rng.randrange(field.q) for _ in range(20)])
        enc = jsonio.poly_to_json(f)
        assert enc == [jsonio.elem_to_json(field, c) for c in f.coeffs]
        assert all(type(c) is int if field.k == 1 else len(c) == field.k for c in enc)

def test_ratfunc_accepts_bare_poly_array():
    F = GF(3)
    assert jsonio.ratfunc_from_json(F, [1, 2]) == RatFunc(Poly(F, (1, 2)))
    with pytest.raises(ParseError):
        jsonio.ratfunc_from_json(F, {"num": [1]})
    with pytest.raises(ParseError):
        jsonio.ratfunc_from_json(F, {"num": [1], "den": []})


def test_matrix_roundtrip_and_shape_errors():
    rng = random.Random(62)
    F = GF(3)
    m = MatRF(F, [[random_ratfunc(rng, F) for _ in range(2)] for _ in range(2)])
    assert jsonio.matrix_from_json(F, jsonio.matrix_to_json(m)) == m
    with pytest.raises(ParseError):
        jsonio.matrix_from_json(F, [[jsonio.ratfunc_to_json(RatFunc.one(F))], []])


def test_connection_roundtrip():
    rng = random.Random(63)
    for _ in range(10):
        field = GF(rng.choice([2, 3, 5]))
        c = random_conn0(rng, field, r_max=3)
        d = DmBundle(rng.randint(0, 2), c)
        back = jsonio.connection_from_json(jsonio.connection_to_json(d))
        assert back == d


def test_connection_requires_descending_degrees():
    with pytest.raises(ParseError, match="descending"):
        jsonio.connection_from_json(
            {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [0, 2],
             "A": [[[], []], [[], []]]})


def test_chart_roundtrip():
    rng = random.Random(64)
    for _ in range(10):
        field = GF(rng.choice([2, 3, 5]))
        c = random_chart_conn(rng, field, r_max=3)
        back = jsonio.chart_from_json(jsonio.chart_to_json(c))
        assert back == c and hash(back) == hash(c) and repr(back) == repr(c)
    # the record of (field, r, A) it was as a frozen dataclass
    one = jsonio.chart_from_json({"field": {"p": 3}, "A": [[{"num": [0, 2], "den": [2]}]]})
    assert repr(one) == "ChartConn(field=GF(3), r=1, A=[x])"
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.r = 2


def _oracle_pair(obj):
    """The cleared pair of the entrywise parse: every entry decoded by
    ``ratfunc_from_json`` (reduced), then cleared, apart from ``_clear_fractions``."""
    field = jsonio.field_from_json(obj["field"])
    rows = [[jsonio.ratfunc_from_json(field, e) for e in row] for row in obj["A"]]
    bmat, beta = _clear_denominators(rows)
    return tuple(map(tuple, bmat)), beta


def _named_pair_payloads():
    f3 = {"p": 3}
    x, x1, x2_1 = [0, 1], [1, 1], [1, 0, 1]  # x, x + 1 and x^2 + 1 over GF(3)

    def fr(num, den):
        return {"num": num, "den": den}

    return {
        # x (x + 1)/(x + 1) and x/x: beta = 1, so neither den divides beta
        "unreduced": {"field": f3, "A": [[fr([0, 1, 1], x1), fr(x, x)], [[1], []]]},
        "non-monic": {"field": f3, "A": [[fr([1], [2, 2]), fr([2, 1], [1, 2])],
                                         [fr([0, 2], [2]), [1, 1]]]},
        "shared": {"field": f3, "A": [[fr([1, 2], x2_1), fr(x, x2_1)],
                                      [fr([2], x2_1), fr([], x2_1)]]},
        "distinct": {"field": f3, "A": [[fr([1], x), fr([1], x1)],
                                        [fr([1], [2, 1]), fr(x, x2_1)]]},
        "bare": {"field": f3, "A": [[[1, 2, 1], []], [[0, 0, 2], [2]]]},
        "zero": {"field": f3, "A": [[fr([], x1), fr([], [2])], [fr([0], x2_1), []]]},
        # x (x + 1) over x^2 (x + 1) reduces to 1/x; beta = x (x + 1) lacks an x
        "den-not-dividing-beta": {"field": f3, "A": [[fr([1], x1), fr([0, 1, 1], [0, 0, 1, 1])],
                                                     [fr(x, [0, 0, 1]), []]]},
        "extension": {"field": {"p": 2, "k": 2}, "A": [[fr([[0, 1], 1], [[1, 1], [0, 1]])]]},
    }


def _random_fraction_payload(rng, field, r):
    """A chart payload of fractions with common factors and non-monic dens
    drawn in, over shared and distinct dens, with zero and bare entries."""
    shared = random_poly(rng, field, 2, nonzero=True)
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            kind = rng.randrange(5)
            num = random_poly(rng, field, 2)
            if kind == 0:
                row.append(jsonio.poly_to_json(num))
                continue
            den = shared if kind == 1 else random_poly(rng, field, rng.randrange(3), nonzero=True)
            common = random_poly(rng, field, rng.randrange(2), nonzero=True)
            if kind == 4:
                num = Poly.zero(field)
            row.append({"num": jsonio.poly_to_json(num * common),
                        "den": jsonio.poly_to_json(den * common)})
        rows.append(row)
    return {"field": jsonio.field_to_json(field), "A": rows}


def test_parsed_pair_matches_the_reduced_parse():
    named = _named_pair_payloads()
    for name, obj in named.items():
        assert jsonio.chart_from_json(obj).A.cleared == _oracle_pair(obj), name
    # the fallback is taken: some den does not divide beta
    obj = named["den-not-dividing-beta"]
    beta = _oracle_pair(obj)[1]
    assert beta == Poly(GF(3), [0, 1, 1]) and divmod(beta, Poly(GF(3), [0, 0, 1, 1]))[1]
    rng = random.Random(2027)
    for field in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)):
        for r in (1, 2, 3):
            for _ in range(6):
                obj = _random_fraction_payload(rng, field, r)
                c = jsonio.chart_from_json(obj)
                assert c.A.cleared == _oracle_pair(obj)
                assert c.A == MatRF(field, [[jsonio.ratfunc_from_json(field, e) for e in row]
                                            for row in obj["A"]])


def test_chart_parse_builds_no_ratfunc_and_charpoly_reads_no_a(monkeypatch):
    from pflags import matrix, ops
    from pflags.hitchin import char_poly_psi, no_flag_certificate_rank2, p_curvature_chart

    rng = random.Random(2028)
    payloads = [*_named_pair_payloads().values(),
                *(jsonio.chart_to_json(random_chart_conn(rng, GF(p), r_max=3)) for p in (2, 3, 5))]
    built = []
    for cls, name in ((RatFunc, "__init__"), (RatFunc, "_canonical"), (MatRF, "__init__")):
        true_fn = getattr(cls, name)
        if name == "_canonical":
            monkeypatch.setattr(cls, name, classmethod(
                lambda c, *a, _f=true_fn: built.append(c) or _f(*a)))
        else:
            monkeypatch.setattr(cls, name, lambda s, *a, _f=true_fn: built.append(s) or _f(s, *a))
    charts = [jsonio.chart_from_json(obj) for obj in payloads]
    assert built == []
    # op_charpoly: the first RatFunc it builds is a reduced coefficient of its output
    true_over = matrix._over_power
    monkeypatch.setattr(matrix, "_over_power", lambda *a: built.append("output") or true_over(*a))
    for obj in payloads:
        built.clear()
        ops.op_charpoly({"field": obj["field"], "A": obj["A"]})
        assert built[0] == "output"
    monkeypatch.undo()
    true_getattr = MatRF.__getattr__
    monkeypatch.setattr(MatRF, "__getattr__", lambda m, name: pytest.fail(
        "a MatRF formed rows from its pair") if name == "rows" else true_getattr(m, name))
    for c in charts:
        char_poly_psi(c)
        p_curvature_chart(c)
        if c.r == 2:
            no_flag_certificate_rank2(c)
    monkeypatch.undo()
    assert all(c.A.n == c.r for c in charts)


def test_charpoly_parse_is_the_entrywise_parse():
    """op_charpoly's A goes through the chart decoder; its result is that of
    the MatRF of entries decoded one by one by ``ratfunc_from_json``."""
    from pflags import ops
    from pflags.matrix import charpoly_berkowitz

    rng = random.Random(2029)
    payloads = [*_named_pair_payloads().values(),
                *(_random_fraction_payload(rng, GF(p, k), r)
                  for p, k in ((2, 1), (3, 1), (2, 2), (3, 2)) for r in (1, 2, 3))]
    for obj in payloads:
        field = jsonio.field_from_json(obj["field"])
        rows = [[jsonio.ratfunc_from_json(field, e) for e in row] for row in obj["A"]]
        want = [jsonio.ratfunc_to_json(c) for c in charpoly_berkowitz(MatRF(field, rows))]
        assert ops.op_charpoly({"field": obj["field"], "A": obj["A"]}) == want


# op_charpoly's parse errors, pinned when its A moved to the chart decoder
_CHARPOLY_FAULTS = [
    ([[[1], {"num": [1], "den": []}], [[0, 1], [2]]], "matrix[0][1]: zero denominator"),
    ([[[1], [2]], 5], "matrix: row 1 must have length 2"),
    ([[[1], [2]], [[1]]], "matrix: row 1 must have length 2"),
    ([[[1], [2], [0]], [[1], [2], [0]]], "matrix: row 0 must have length 2"),
    ([[[1], [0, 3]], [[1], [2]]], "matrix[0][1][1]: residue out of range for GF(3)"),
    ([[[1], True], [[1], [2]]], "matrix[0][1]: expected {num, den}"),
    ([[[1], [True]], [[1], [2]]], "matrix[0][1][0]: expected an integer or residue array"),
    ([], "matrix: expected a nonempty nested array"),
]


@pytest.mark.parametrize("amat, error", _CHARPOLY_FAULTS)
def test_charpoly_parse_errors_are_pinned(amat, error):
    from pflags import ops

    with pytest.raises(ParseError) as info:
        ops.op_charpoly({"field": {"p": 3}, "A": amat})
    assert str(info.value) == error


# A connection's A: its row count is checked against twist_degrees first, and
# its rows then take the shape decoder every matrix payload shares, so a row
# fault is reported at `connection.A`.
_CONNECTION_SHAPE_FAULTS = [
    ([[[], []], [[]]], "connection.A: row 1 must have length 2"),
    ([[[], []], 5], "connection.A: row 1 must have length 2"),
    (5, "connection: A must be a 2x2 matrix of polynomials"),
    ([[[], []]], "connection: A must be a 2x2 matrix of polynomials"),
    ([[[], []], [[3], []]], "connection.A[1][0][0]: residue out of range for GF(2)"),
]


@pytest.mark.parametrize("amat, error", _CONNECTION_SHAPE_FAULTS)
def test_connection_shape_errors_are_pinned(amat, error):
    obj = {"field": {"p": 2}, "level": 0, "twist_degrees": [1, 0], "A": amat}
    with pytest.raises(ParseError) as info:
        jsonio.connection_from_json(obj)
    assert str(info.value) == error
    with pytest.raises(ParseError) as info:
        jsonio.connection_from_json(obj, "a")
    assert str(info.value) == "a" + error.removeprefix("connection")


def test_atom_and_group_codecs():
    g = Pic0Group((2, 3))
    assert jsonio.group_from_json(jsonio.group_to_json(g)) == g
    atom = AtiyahAtom(g, 3, -2, (1, 2))
    back = jsonio.atom_from_json(g, jsonio.atom_to_json(atom))
    assert back == atom
    with pytest.raises(ParseError):
        jsonio.atom_from_json(g, {"r": 2})
    with pytest.raises(ParseError):
        jsonio.group_from_json({"factors": [0]})
    with pytest.raises(ParseError):
        jsonio.group_from_json({"factors": [True]})
    for bad in ({"r": True, "d": 0}, {"r": 1, "d": False}, {"r": 1, "d": 0, "lam": [True, 0]}):
        with pytest.raises(ParseError):
            jsonio.atom_from_json(g, bad)
    assert jsonio.flag_from_json({"perm": [1, 0]}).perm == (1, 0)
    with pytest.raises(ParseError):
        jsonio.flag_from_json({"perm": [True, False]})
    # a library error on a well-typed payload is raised again at the payload's location
    for decode, obj, error in [
            (jsonio.flag_from_json, {"perm": [0, 0]}, "flag: (0, 0) is not a permutation of 0..1"),
            (lambda obj: jsonio.atom_from_json(g, obj), {"r": 0, "d": 1},
             "atom: rank must be >= 1, got 0"),
            (lambda obj: jsonio.atom_from_json(g, obj, "atoms[2]"), {"r": 2, "d": 1, "lam": [1]},
             "atoms[2]: torsion vector needs 2 components, got 1")]:
        with pytest.raises(ParseError) as info:
            decode(obj)
        assert str(info.value) == error


def test_canonical_dumps_is_stable():
    payload = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    assert jsonio.canonical_dumps(payload) == '{"a":{"x":2,"y":1},"b":[1,2]}'
    assert jsonio.digest(payload) == jsonio.digest({"a": {"x": 2, "y": 1}, "b": [1, 2]})


# Parse errors pinned before the decoders went to one pass per array; each
# message is the location, then the fault.  A bad coefficient c is placed
# in every container that holds field elements.
_IN_CONTAINER = [
    ("element", lambda fj, c: jsonio.elem_from_json(jsonio.field_from_json(fj), c)),
    ("poly[2]", lambda fj, c: jsonio.poly_from_json(jsonio.field_from_json(fj), [1, 0, c])),
    ("ratfunc.num[0]", lambda fj, c: jsonio.ratfunc_from_json(
        jsonio.field_from_json(fj), {"num": [c], "den": [1]})),
    ("ratfunc.den[1]", lambda fj, c: jsonio.ratfunc_from_json(
        jsonio.field_from_json(fj), {"num": [1], "den": [0, c]})),
    ("matrix[1][1].den[1]", lambda fj, c: jsonio.matrix_from_json(
        jsonio.field_from_json(fj), [[[1], [0]], [[1], {"num": [1], "den": [1, c]}]])),
    ("connection.A[1][1][2]", lambda fj, c: jsonio.connection_from_json(
        {"field": fj, "level": 0, "twist_degrees": [1, 0], "A": [[[], []], [[1], [0, 0, c]]]})),
    ("chart.A[1][0].num[1]", lambda fj, c: jsonio.chart_from_json(
        {"field": fj, "A": [[[1], [0]], [{"num": [0, c], "den": [1]}, [1]]]})),
]

_PINNED_ELEMENT_ERRORS = [
    ((5, 1), 5, "residue out of range for GF(5)"),
    ((5, 1), -1, "residue out of range for GF(5)"),
    ((5, 1), True, "expected an integer or residue array"),
    ((5, 1), 1.5, "expected an integer or residue array"),
    ((5, 1), "1", "expected an integer or residue array"),
    ((5, 1), None, "expected an integer or residue array"),
    ((5, 1), [[1]], "expected an integer or residue array"),
    ((5, 1), [1, 2], "element needs <= 1 residues, got 2"),
    ((5, 1), [7], "residues must be in [0, p)"),
    ((5, 1), [7, "x"], "expected an integer or residue array"),
    ((5, 1), [-1], "residues must be in [0, p)"),
    ((3, 2), 3, "residue out of range for GF(9)"),
    ((3, 2), -1, "residue out of range for GF(9)"),
    ((3, 2), False, "expected an integer or residue array"),
    ((3, 2), 2.0, "expected an integer or residue array"),
    ((3, 2), "a", "expected an integer or residue array"),
    ((3, 2), [[0]], "expected an integer or residue array"),
    ((3, 2), [1, 2, 0], "element needs <= 2 residues, got 3"),
    ((3, 2), [3, 0], "residues must be in [0, p)"),
    ((3, 2), [-1], "residues must be in [0, p)"),
    ((3, 2), [True], "expected an integer or residue array"),
    ((3, 2), [0, None], "expected an integer or residue array"),
    ((3, 2), [0, 0, 5], "residues must be in [0, p)"),
    ((3, 2), [5, "x"], "expected an integer or residue array"),
    ((2, 13), 2, "residue out of range for GF(8192)"),
    ((2, 13), [0] * 14, "element needs <= 13 residues, got 14"),
    ((2, 13), [2], "residues must be in [0, p)"),
    ((2, 13), [1, 0, "x"], "expected an integer or residue array"),
    ((2, 13), False, "expected an integer or residue array"),
    ((2, 13), [0] * 13 + [2], "residues must be in [0, p)"),
    ((2, 13), None, "expected an integer or residue array"),
]


@pytest.mark.parametrize("pk, bad, msg", _PINNED_ELEMENT_ERRORS)
def test_bad_coefficient_parse_errors_are_pinned(pk, bad, msg):
    fj = {"p": pk[0], "k": pk[1]}
    for where, decode in _IN_CONTAINER:
        with pytest.raises(ParseError) as info:
            decode(fj, bad)
        assert str(info.value) == f"{where}: {msg}"


def test_first_bad_coefficient_is_named():
    F, E = GF(5), GF(3, 2)
    for field, arr, text in (
            (F, [1, True, 7], "poly[1]: expected an integer or residue array"),
            (F, [1, 7, True], "poly[1]: residue out of range for GF(5)"),
            (E, [[1, 1], [0, 0, 0], [3]], "poly[1]: element needs <= 2 residues, got 3"),
            (E, [[1, 1], [0, 3, 0], ["x"]], "poly[1]: residues must be in [0, p)"),
            (F, 5, "poly: expected a coefficient array"),
            (F, {"num": [1]}, "poly: expected a coefficient array")):
        with pytest.raises(ParseError) as info:
            jsonio.poly_from_json(field, arr)
        assert str(info.value) == text
    for obj, text in (({"num": [1]}, "ratfunc: expected {num, den}"),
                      ({"num": [1], "den": []}, "ratfunc: zero denominator"),
                      ({"num": [1], "den": [0, 0]}, "ratfunc: zero denominator")):
        with pytest.raises(ParseError) as info:
            jsonio.ratfunc_from_json(F, obj)
        assert str(info.value) == text
    for obj, text in (([], "matrix: expected a nonempty nested array"),
                      ([[[1]], [[1]]], "matrix: row 0 must have length 2"),
                      ([[[1], 5], [[1], [1]]], "matrix[0][1]: expected {num, den}")):
        with pytest.raises(ParseError) as info:
            jsonio.matrix_from_json(F, obj)
        assert str(info.value) == text



# The decoders as they were before the one-pass rewrite, kept here as the
# reference for the differential test below.
def _reference_elem_from_json(field, obj, where="element"):
    if type(obj) is int:
        if not (0 <= obj < field.q if field.k == 1 else 0 <= obj < field.p):
            raise ParseError(f"{where}: residue out of range for {field!r}")
        return obj if field.k == 1 else field.from_coeffs([obj])
    if not (isinstance(obj, list) and all(type(c) is int for c in obj)):
        raise ParseError(f"{where}: expected an integer or residue array")
    if not all(0 <= c < field.p for c in obj):
        raise ParseError(f"{where}: residues must be in [0, p)")
    try:
        return field.from_coeffs(obj)
    except InvalidFieldError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _reference_poly_from_json(field, obj, where="poly"):
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a coefficient array")
    return Poly(field, [_reference_elem_from_json(field, c, f"{where}[{i}]")
                        for i, c in enumerate(obj)])


def _outcome(decode, *args):
    try:
        return "value", decode(*args)
    except ParseError as exc:
        return "error", str(exc)


def _random_json_element(rng, field):
    """A JSON value meant as an element of ``field``: valid more often than
    not, otherwise one of the faults a payload can carry."""
    p, k = field.p, field.k

    def residue():
        roll = rng.random()
        if roll < 0.85:
            return rng.randrange(p)
        return rng.choice([-1, -p, p, p + 1, 10**30, True, False, 0.0, 1.5, None, "1", [0], []])

    roll = rng.random()
    if roll < 0.3:
        return rng.randrange(p)
    if roll < 0.4:
        return rng.choice([-1, p, field.q, field.q + 1, -(10**40), 10**40])
    if roll < 0.5:
        return rng.choice([True, False, 0.0, 2.0, -1.5, None, "0", "x", {}, {"num": [1]}])
    length = rng.randint(0, k + 1)
    if rng.random() < 0.6:
        return [rng.randrange(p) for _ in range(min(length, k))]
    return [residue() for _ in range(length)]


@pytest.mark.parametrize("pk", [(5, 1), (2, 2), (3, 2), (3, 3), (2, 13)])
def test_decoders_agree_with_the_reference(pk):
    field = GF(*pk)
    rng = random.Random(1000 * pk[0] + pk[1])
    values = [_random_json_element(rng, field) for _ in range(300)]
    values += [[0] * n for n in range(field.k + 2)] + [[field.p - 1] * n for n in range(field.k + 2)]
    for obj in values:
        assert _outcome(jsonio.elem_from_json, field, obj, "e") == \
            _outcome(_reference_elem_from_json, field, obj, "e"), obj
        arr = [rng.randrange(field.p) for _ in range(rng.randint(0, 3))] + [obj]
        assert _outcome(jsonio.poly_from_json, field, arr, "f") == \
            _outcome(_reference_poly_from_json, field, arr, "f"), arr
    for _ in range(200):
        arr = [_random_json_element(rng, field) if rng.random() < 0.3 else
               rng.choice([rng.randrange(field.p), field.coeffs(rng.randrange(field.q))])
               for _ in range(rng.randint(0, 6))]
        assert _outcome(jsonio.poly_from_json, field, arr, "f") == \
            _outcome(_reference_poly_from_json, field, arr, "f"), arr
