import operator
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pflags.errors import PflagsError
from pflags.fields import GF
from pflags.poly import Poly, poly_gcd
from pflags.ratfunc import RatFunc, in_frobenius_subfield, sqrt_ratfunc
from pflags.sampling import random_ratfunc

FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2)]


def ratfuncs(field, max_len=4):
    """Rational functions, half of them drawn as polynomials (denominator 1)."""
    coeff = st.integers(0, field.q - 1)
    num = st.lists(coeff, max_size=max_len)
    den = st.one_of(
        st.just([1]), st.lists(coeff, max_size=max_len).filter(lambda cs: any(cs))
    )
    return st.tuples(num, den).map(
        lambda nd: RatFunc(Poly(field, nd[0]), Poly(field, nd[1]))
    )


def field_and_ratfuncs(n):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(*([st.just(f)] + [ratfuncs(f)] * n))
    )


@given(field_and_ratfuncs(2))
@settings(max_examples=100)
def test_canonical_form(fr):
    _, f, g = fr
    # some of these skip the gcd when the operands are polynomials
    for h in (f, f + g, f - g, f * g, -f, f.derivative()):
        assert h.den.is_monic()
        if h.is_zero():
            assert h.den.is_one()
        else:
            assert poly_gcd(h.num, h.den).is_one()
        assert h == RatFunc(h.num, h.den)


@given(field_and_ratfuncs(2))
@settings(max_examples=100)
def test_field_arithmetic_exact(fr):
    _, f, g = fr
    assert (f + g) - g == f
    assert f * g == g * f
    if not g.is_zero():
        assert (f / g) * g == f


@given(field_and_ratfuncs(2))
@settings(max_examples=100)
def test_derivative_is_a_derivation(fr):
    _, f, g = fr
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert (f + g).derivative() == f.derivative() + g.derivative()


def test_canonical_equality_is_structural():
    F = GF(5)
    a = RatFunc(Poly(F, (0, 2)), Poly(F, (2, 0, 2)))   # 2x / (2 + 2x^2)
    b = RatFunc(Poly(F, (0, 1)), Poly(F, (1, 0, 1)))   # x / (1 + x^2)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("F,G", [(GF(5), GF(7)), (GF(7), GF(5)), (GF(3), GF(3, 2)), (GF(3, 2), GF(3))])
def test_mixed_field_polynomial_operands_rejected(F, G):
    f, g = RatFunc(Poly(F, (1, 1))), RatFunc(Poly(G, (2, 1)))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(PflagsError, match="mixed-field"):
            op(f, g)


def test_zero_denominator_rejected():
    F = GF(3)
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(F), Poly.zero(F))


def test_evaluate_and_its_pole():
    rng = random.Random(146)
    for F in (GF(5), GF(2, 2)):
        for _ in range(20):
            f = random_ratfunc(rng, F)
            for a in F.elements():
                dv = f.den.evaluate(a)
                if dv:
                    assert f.evaluate(a) == F.mul(f.num.evaluate(a), F.inv(dv))
                    assert F.mul(f.evaluate(a), dv) == f.num.evaluate(a)
                else:
                    with pytest.raises(ZeroDivisionError, match="^evaluation at a pole$"):
                        f.evaluate(a)
    F = GF(5)
    f = RatFunc(Poly(F, (1, 1)), Poly(F, (2, 1)))  # (x + 1)/(x + 2)
    assert [f.evaluate(a) for a in (0, 1, 2, 4)] == [3, 4, 2, 0]
    with pytest.raises(ZeroDivisionError, match="^evaluation at a pole$"):
        f.evaluate(3)


def test_pole_order_at_zero():
    F = GF(3)
    f = RatFunc(Poly.one(F), Poly(F, (0, 0, 1)))  # 1/x^2
    assert f.pole_order_at_zero() == 2
    assert RatFunc.x(F).pole_order_at_zero() == 0


# -- square roots ---------------------------------------------------------------


def test_sqrt_pinned_examples():
    F3, F5 = GF(3), GF(5)
    assert sqrt_ratfunc(RatFunc(Poly(F3, (0, 0, 1)))) == RatFunc(Poly.x(F3))
    cube = RatFunc((Poly.x(F3) + Poly.one(F3)) ** 3)
    assert sqrt_ratfunc(cube) is None  # odd valuation at x + 1
    f = RatFunc(Poly(F5, (0, 0, 4)), Poly(F5, (1, 3, 1)))  # 4x^2/(x-1)^2
    root = sqrt_ratfunc(f)
    assert root == RatFunc(Poly(F5, (0, 2)), Poly(F5, (4, 1)))
    assert root * root == f


@given(field_and_ratfuncs(1))
@settings(max_examples=100, deadline=None)
def test_sqrt_of_square_roundtrip(fr):
    field, f = fr
    sq = f * f
    root = sqrt_ratfunc(sq)
    assert root is not None
    assert root * root == sq
    # the root matches f up to sign
    assert root == f or root == -f


@given(field_and_ratfuncs(1))
@settings(max_examples=60, deadline=None)
def test_nonsquare_rejected_odd_characteristic(fr):
    field, f = fr
    if field.p == 2 or f.is_zero():
        return
    nonsquare = next(a for a in range(1, field.q) if not field.is_square(a))
    bad = f * f * RatFunc.constant(field, nonsquare)
    assert sqrt_ratfunc(bad) is None


def test_sqrt_char2_constants_are_squares():
    F = GF(2, 3)
    for a in F.elements():
        root = sqrt_ratfunc(RatFunc.constant(F, a))
        assert root is not None and root * root == RatFunc.constant(F, a)


# -- Frobenius subfield membership ------------------------------------------------


def test_frobenius_membership_pinned_examples():
    F3 = GF(3)
    assert in_frobenius_subfield(RatFunc(Poly(F3, (0, 0, 0, 1))), 1)  # x^3
    assert not in_frobenius_subfield(RatFunc.x(F3), 1)
    f = RatFunc(Poly(F3, (1, 0, 0, 1)), Poly(F3, (2, 0, 0, 0, 0, 0, 1)))
    assert in_frobenius_subfield(f, 1)
    assert not in_frobenius_subfield(f, 2)  # x^3 is not a 9th power


@given(field_and_ratfuncs(1), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_membership_of_composed_functions(fr, s):
    field, f = fr
    g = f.compose_xpow(field.p**s)
    assert in_frobenius_subfield(g, s)


def test_membership_over_extension_field_uses_coefficient_roots():
    F = GF(2, 2)
    g = 2  # a field generator outside the prime subfield
    f = RatFunc(Poly(F, (0, 0, g)))  # g * x^2 = (sqrt(g) x)^2 in char 2
    assert in_frobenius_subfield(f, 1)
    assert not in_frobenius_subfield(RatFunc(Poly(F, (0, g))), 1)


def _in_frobenius_subfield_by_derivatives(f, s):
    """Oracle: s rounds of f' = 0, each followed by the p-th roots of the
    coefficients of num and den (x^p -> x)."""
    g = f
    for _ in range(s):
        if not g.derivative().is_zero():
            return False
        g = RatFunc(g.num.pth_root(), g.den.pth_root())
    return True


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2), GF(3, 2)])
def test_membership_matches_the_derivative_loop(field):
    rng = random.Random(field.q)
    p = field.p
    for _ in range(40):
        f, h = random_ratfunc(rng, field), random_ratfunc(rng, field)
        cases = [f.compose_xpow(p**t) for t in range(4)]
        cases.append(f.compose_xpow(p * p) + h.compose_xpow(p))  # in F_q(x^p) only
        for g in cases:
            for s in (1, 2, 3):
                assert in_frobenius_subfield(g, s) == _in_frobenius_subfield_by_derivatives(g, s)


def test_membership_at_a_huge_level_returns_at_once():
    F = GF(2)
    assert in_frobenius_subfield(RatFunc.one(F), 10**9)
    assert in_frobenius_subfield(RatFunc.zero(F), 10**9)
    x8 = RatFunc(Poly.monomial(F, 1, 8))
    assert in_frobenius_subfield(x8, 3)
    assert not in_frobenius_subfield(x8, 4)
    assert not in_frobenius_subfield(x8, 10**9)
    with pytest.raises(PflagsError):
        in_frobenius_subfield(x8, 0)


# -- gcd-free results against the plain constructor -------------------------------------

GCD_FREE_FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]


def shared_factor_ratfuncs(field):
    """f = (a s)/(b s) for random a, b and a random nonzero common factor s, so
    that the constructor has a factor to cancel."""
    coeff = st.integers(0, field.q - 1)
    poly = st.lists(coeff, max_size=4).map(lambda cs: Poly(field, cs))
    nonzero = st.lists(coeff, min_size=1, max_size=4).filter(any).map(
        lambda cs: Poly(field, cs))
    return st.tuples(poly, nonzero, nonzero).map(lambda t: RatFunc(t[0] * t[2], t[1] * t[2]))


def field_and_shared_factor_ratfunc():
    return st.sampled_from(GCD_FREE_FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), shared_factor_ratfuncs(f)))


@pytest.fixture
def checked_canonical(monkeypatch):
    """Make every gcd-free result check itself against RatFunc(num, den)."""
    fast = RatFunc._canonical

    def checked(num, den):
        plain = RatFunc(num, den)
        assert (plain.num, plain.den) == (num, den)
        return fast(num, den)

    monkeypatch.setattr(RatFunc, "_canonical", checked)


@given(field_and_shared_factor_ratfunc(), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_gcd_free_paths_match_the_plain_constructor(checked_canonical, fr, n, data):
    field, f = fr
    # x -> x^m for small m and for the p-th-root steps m = p, p^2
    m = data.draw(st.sampled_from([1, 2, 3, 4, field.p, field.p**2]), label="m")
    assert f**n == RatFunc(f.num**n, f.den**n)
    assert f.compose_xpow(m) == RatFunc(f.num.compose_xpow(m), f.den.compose_xpow(m))
    if not f.is_zero():
        assert f.inv() == RatFunc(f.den, f.num)
        assert f ** -n == RatFunc(f.den**n, f.num**n)
