import random

import pytest

from pflags import jsonio
from pflags.elliptic import AtiyahAtom, Pic0Group
from pflags.errors import ParseError
from pflags.fields import GF
from pflags.matrix import MatRF
from pflags.poly import Poly
from pflags.pone import DmBundle
from pflags.ratfunc import RatFunc
from pflags.sampling import random_chart_conn, random_conn0, random_poly, random_ratfunc


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
        assert back == c


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


def test_canonical_dumps_is_stable():
    payload = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    assert jsonio.canonical_dumps(payload) == '{"a":{"x":2,"y":1},"b":[1,2]}'
    assert jsonio.digest(payload) == jsonio.digest({"a": {"x": 2, "y": 1}, "b": [1, 2]})
