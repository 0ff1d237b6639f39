import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pflags.errors import PflagsError
from pflags.fields import GF, _dot_mod_p
from pflags.poly import Poly, find_irreducible, poly_dot, poly_gcd, roots_in_field

FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(31), GF(2, 2), GF(3, 2)]
PRIME_FIELDS = [F for F in FIELDS if F.k == 1]


def polys(field, max_len=6):
    return st.lists(st.integers(0, field.q - 1), max_size=max_len).map(
        lambda cs: Poly(field, cs)
    )


def field_and_polys(n, max_len=6):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(*([st.just(f)] + [polys(f, max_len)] * n))
    )


def test_normalization_strips_trailing_zeros():
    f = Poly(GF(5), (1, 2, 0, 0))
    assert f.coeffs == (1, 2) and f.degree == 1
    assert Poly(GF(5), (0, 0)).is_zero()
    assert Poly.zero(GF(5)).degree == -1


@given(field_and_polys(3))
@settings(max_examples=80)
def test_ring_axioms(fp):
    _, f, g, h = fp
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f + g) - g == f


@given(field_and_polys(2))
@settings(max_examples=80)
def test_divmod_reconstructs(fp):
    _, f, g = fp
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(field_and_polys(2))
@settings(max_examples=80)
def test_leibniz_rule(fp):
    _, f, g = fp
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(field_and_polys(3, max_len=5))
@settings(max_examples=60)
def test_gcd_divides_and_is_monic(fp):
    _, f, g, _ = fp
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    assert d.is_monic()
    if not f.is_zero():
        assert (f % d).is_zero()
    if not g.is_zero():
        assert (g % d).is_zero()


# -- reference loops on Field element methods: over a prime field the library
#    computes on ints mod p, and must agree with these


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(F, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(F.add(x, y) for x, y in zip(a, b))


def ref_sub(F, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(F.sub(x, y) for x, y in zip(a, b))


def ref_neg(F, a):
    return _trim(F.sub(0, x) for x in a)


def ref_scale(F, a, c):
    return _trim(F.mul(c, x) for x in a)


def ref_divmod(F, a, b):
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _trim(a)
    rem = list(a)
    inv_lead = F.inv(b[-1])
    quo = [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = F.mul(rem[shift + db], inv_lead)
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bc))
    return _trim(quo), _trim(rem)


def ref_gcd(F, a, b):
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_scale(F, a, F.inv(a[-1])) if a else ()


@st.composite
def prime_field_operands(draw):
    """A prime field, two polynomials of degree <= 12 and a scalar; the
    second polynomial is drawn freely, or zero, constant, of the first's
    degree, or sharing a factor with the first."""
    F = draw(st.sampled_from(PRIME_FIELDS))
    coeff = st.integers(0, F.p - 1)
    unit = st.integers(1, F.p - 1)
    f = Poly(F, draw(st.lists(coeff, max_size=13)))
    shape = draw(st.sampled_from(["free", "zero", "constant", "equal-degree", "shared-factor"]))
    if shape == "zero":
        g = Poly.zero(F)
    elif shape == "constant":
        g = Poly.constant(F, draw(unit))
    elif shape == "equal-degree":
        n = len(f.coeffs)
        g = Poly(F, draw(st.lists(coeff, min_size=n - 1, max_size=n - 1)) + [draw(unit)]) if n else f
    elif shape == "shared-factor":
        h = Poly(F, draw(st.lists(coeff, max_size=5)) + [draw(unit)])
        f, g = f * h, Poly(F, draw(st.lists(coeff, max_size=7))) * h
    else:
        g = Poly(F, draw(st.lists(coeff, max_size=13)))
    return F, f, g, draw(coeff)


@given(prime_field_operands())
@settings(max_examples=200, deadline=None)
def test_prime_field_kernel_matches_field_loops(operands):
    F, f, g, c = operands
    a, b = f.coeffs, g.coeffs
    assert (f + g).coeffs == ref_add(F, a, b)
    assert (f - g).coeffs == ref_sub(F, a, b)
    assert (g - f).coeffs == ref_sub(F, b, a)
    assert (-f).coeffs == ref_neg(F, a)
    assert f.scale(c).coeffs == ref_scale(F, a, c)
    assert poly_gcd(f, g).coeffs == ref_gcd(F, a, b)
    assert poly_gcd(g, f).coeffs == ref_gcd(F, b, a)
    for x, y in ((f, g), (g, f)):
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(x, y)
        else:
            q, r = divmod(x, y)
            assert (q.coeffs, r.coeffs) == ref_divmod(F, x.coeffs, y.coeffs)


# -- Kronecker products over F_p against the schoolbook loop

P61 = 2**61 - 1
KRONECKER_FIELDS = {p: GF(p) for p in (2, 3, 5, 7, 31, 65521, 2**31 - 1, P61)}


def schoolbook(a, b, p) -> tuple:
    """The product of two ascending coefficient sequences mod p."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


@st.composite
def kronecker_operands(draw):
    """A prime field and two coefficient lists of length 0..80, often with
    zeros at the low end and (stripped by Poly) at the high end, or 1."""
    F = KRONECKER_FIELDS[draw(st.sampled_from(sorted(KRONECKER_FIELDS)))]
    p = F.p
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))

    def operand():
        if draw(st.integers(0, 9)) == 0:
            return [1]
        body = draw(st.lists(coeff, max_size=80))
        low = draw(st.integers(0, 80 - len(body)))
        high = draw(st.integers(0, 80 - len(body) - low))
        return [0] * low + body + [0] * high

    return F, operand(), operand()


@given(kronecker_operands())
@settings(max_examples=300, deadline=None)
def test_prime_field_product_matches_schoolbook(operands):
    F, a, b = operands
    f, g = Poly(F, a), Poly(F, b)
    assert (f * g).coeffs == schoolbook(f.coeffs, g.coeffs, F.p)
    assert (g * f).coeffs == (f * g).coeffs


def _slot_boundaries():
    """(p, n) with n (p - 1)^2 just below and just above 2^8, 2^16, 2^32 and
    2^64, for 1 <= n <= 80."""
    out = set()
    for p in KRONECKER_FIELDS:
        for bits in (8, 16, 32, 64):
            below = (2**bits - 1) // (p - 1) ** 2  # largest n with n (p-1)^2 < 2^bits
            out.update((p, n) for n in (below, below + 1) if 1 <= n <= 80)
    return sorted(out)


@pytest.mark.parametrize("p,n", _slot_boundaries())
def test_prime_field_product_at_slot_boundaries(p, n):
    # with every coefficient p - 1 the middle coefficient of the integer
    # product is n (p - 1)^2, the most a slot has to hold
    F = KRONECKER_FIELDS[p]
    short = Poly(F, [p - 1] * n)
    for long_len in (n, n + 1, 80):
        long = Poly(F, [p - 1] * long_len)
        expected = schoolbook(short.coeffs, long.coeffs, p)
        assert (short * long).coeffs == expected
        assert (long * short).coeffs == expected


def test_prime_field_product_unit_short_circuits():
    for F in KRONECKER_FIELDS.values():
        f = Poly(F, [0, F.p - 1, 1])
        one = Poly.one(F)
        assert f * one is f and one * f is f
        assert (f * Poly.zero(F)).is_zero() and (Poly.zero(F) * f).is_zero()


# -- dot products: one integer sum of packed products, unpacked once


def schoolbook_dot(pairs, p) -> tuple:
    """sum a b mod p over the coefficient pairs, by ``schoolbook``."""
    out = []
    for a, b in pairs:
        prod = schoolbook(a, b, p)
        out += [0] * (len(prod) - len(out))
        for i, c in enumerate(prod):
            out[i] = (out[i] + c) % p
    return _trim(out)


@st.composite
def dot_operands(draw):
    """A prime and 1-6 pairs of coefficient lists of length 1-12, often
    with the extreme coefficients 0 and p - 1."""
    p = draw(st.sampled_from(sorted(KRONECKER_FIELDS)))
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    operand = st.lists(coeff, min_size=1, max_size=12)
    return p, draw(st.lists(st.tuples(operand, operand), min_size=1, max_size=6))


@given(dot_operands())
@settings(max_examples=300, deadline=None)
def test_dot_mod_p_matches_sum_of_schoolbook_products(operands):
    p, pairs = operands
    out = _dot_mod_p(pairs, p)
    assert len(out) == max(len(a) + len(b) for a, b in pairs) - 1
    assert _trim(out) == schoolbook_dot(pairs, p)


def _summed_slot_crossings():
    """(p, n, t): t pairs of length n whose products each fit a slot below
    2^8, 2^16, 2^32 or 2^64, while their sum needs a wider one."""
    out = set()
    for p in KRONECKER_FIELDS:
        for bits in (8, 16, 32, 64):
            n = (2**bits - 1) // (p - 1) ** 2  # largest n with n (p-1)^2 < 2^bits
            if 1 <= n <= 80:
                out.add((p, n, -(-2**bits // (n * (p - 1) ** 2))))
    return sorted(out)


@pytest.mark.parametrize("p,n,t", _summed_slot_crossings())
def test_dot_mod_p_where_only_the_sum_crosses_a_slot(p, n, t):
    single, total = n * (p - 1) ** 2, t * n * (p - 1) ** 2
    assert any(single < 2**bits <= total for bits in (8, 16, 32, 64))
    # with every coefficient p - 1 the middle slot of the sum holds the bound
    pairs = [([p - 1] * n, [p - 1] * (n + s)) for s in range(t)]
    assert _trim(_dot_mod_p(pairs, p)) == schoolbook_dot(pairs, p)


DOT_FIELDS = [GF(2, 2), GF(3, 2), GF(2, 13), GF(3, 8)]  # log tables, then digits


@st.composite
def poly_dot_operands(draw):
    """An extension field, on either side of the log-table cap, and 0-4
    pairs of polynomials of degree <= 5, some of them zero."""
    F = draw(st.sampled_from(DOT_FIELDS))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    poly = st.lists(coeff, max_size=6).map(lambda cs: Poly(F, cs))
    return F, draw(st.lists(st.tuples(poly, poly), max_size=4))


@given(poly_dot_operands())
@settings(max_examples=100, deadline=None)
def test_poly_dot_matches_sum_of_products(operands):
    F, pairs = operands
    ref = [0]
    for f, g in pairs:  # element schoolbook on the Field methods
        for i, x in enumerate(f.coeffs):
            for j, y in enumerate(g.coeffs):
                ref += [0] * (i + j + 1 - len(ref))
                ref[i + j] = F.add(ref[i + j], F.mul(x, y))
    total = Poly.zero(F)
    for f, g in pairs:
        total = total + f * g
    assert poly_dot(pairs, F).coeffs == total.coeffs == _trim(ref)


def test_poly_dot_by_the_constant_one():
    # a single product by 1 is the other factor, in either order and with
    # zero pairs around it, over F_p, log tables and digits
    rng = random.Random(1)
    for F in [GF(7), *DOT_FIELDS]:
        one, zero = Poly.one(F), Poly.zero(F)
        f = Poly(F, [rng.randrange(F.q) for _ in range(5)] + [1])
        for pairs in ([(f, one)], [(one, f)], [(zero, f), (one, f), (f, zero)]):
            assert poly_dot(pairs, F) == f
        assert poly_dot([(one, one)], F) == one
        assert poly_dot([(f, one), (one, f)], F) == f + f


# -- the log-table kernels over extension fields against schoolbook loops on
#    the field's digit arithmetic

LOG_TABLE_FIELDS = [GF(2, 2), GF(3, 2), GF(2, 8), GF(3, 5)]


def digit_ops(F):
    """Element add, neg, mul and inverse of F on base-p digits, bypassing
    the log tables."""
    assert F._exp is not None

    def add(a, b):
        return F.from_coeffs([x + y for x, y in zip(F.coeffs(a), F.coeffs(b))])

    def neg(a):
        return F.from_coeffs([-x for x in F.coeffs(a)])

    def inv(a):
        result, base, n = 1, a, F.q - 2
        while n:
            if n & 1:
                result = F._mul_digits(result, base)
            base, n = F._mul_digits(base, base), n >> 1
        return result

    return add, neg, F._mul_digits, inv


def digit_schoolbook_mul(F, a, b):
    add, _, mul, _ = digit_ops(F)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return _trim(out)


def digit_schoolbook_divmod(F, a, b):
    add, neg, mul, inv = digit_ops(F)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _trim(a)
    rem, quo = list(a), [0] * (len(a) - db)
    inv_lead = inv(b[-1])
    for shift in range(len(a) - 1 - db, -1, -1):
        c = quo[shift] = mul(rem[shift + db], inv_lead)
        for i, bc in enumerate(b):
            rem[shift + i] = add(rem[shift + i], neg(mul(c, bc)))
    return _trim(quo), _trim(rem)


def digit_schoolbook_gcd(F, a, b):
    _, _, mul, inv = digit_ops(F)
    while b:
        a, b = b, digit_schoolbook_divmod(F, a, b)[1]
    return _trim(mul(inv(a[-1]), c) for c in a) if a else ()


@st.composite
def log_table_operands(draw):
    """A log-table field and two polynomials of degree <= 10; the second is
    drawn freely, or shares a factor with the first."""
    F = draw(st.sampled_from(LOG_TABLE_FIELDS))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    f = Poly(F, draw(st.lists(coeff, max_size=11)))
    g = Poly(F, draw(st.lists(coeff, max_size=11)))
    if draw(st.booleans()):
        h = Poly(F, draw(st.lists(coeff, max_size=4)) + [draw(st.integers(1, F.q - 1))])
        f, g = f * h, g * h
    return F, f, g


@given(log_table_operands())
@settings(max_examples=200, deadline=None)
def test_log_table_kernels_match_digit_schoolbook(operands):
    F, f, g = operands
    a, b = f.coeffs, g.coeffs
    assert (f * g).coeffs == digit_schoolbook_mul(F, a, b)
    assert (g * f).coeffs == digit_schoolbook_mul(F, b, a)
    if a or b:
        assert poly_gcd(f, g).coeffs == digit_schoolbook_gcd(F, a, b)
    for x, y in ((f, g), (g, f)):
        if not y.is_zero():
            q, r = divmod(x, y)
            assert (q.coeffs, r.coeffs) == digit_schoolbook_divmod(F, x.coeffs, y.coeffs)


@pytest.mark.parametrize("F", LOG_TABLE_FIELDS, ids=repr)
def test_log_table_divmod_wraps_the_quotient_log(F):
    # every quotient coefficient of (x^n - 1) / (lead x - c) has a log near
    # q - 2, so an unreduced quotient log plus a divisor log would overrun
    # the doubled exp table
    top = F.q - 1
    for lead, c in ((top, top), (top, 1), (2, top)):
        num = Poly(F, [F.neg(1)] + [0] * 6 + [1])
        den = Poly(F, (c, lead))
        q, r = divmod(num, den)
        assert (q.coeffs, r.coeffs) == digit_schoolbook_divmod(F, num.coeffs, den.coeffs)
        assert q * den + r == num


@pytest.mark.parametrize("F,G", [(GF(5), GF(7)), (GF(7), GF(5)), (GF(3), GF(3, 2)), (GF(3, 2), GF(3))])
def test_mixed_field_arithmetic_rejected(F, G):
    f = Poly(F, (1, 2, 1))
    for g in (Poly(G, (2, 1)), Poly.zero(G)):
        for op in (operator.add, operator.sub, operator.mul, divmod, poly_gcd):
            with pytest.raises(PflagsError, match="mixed-field"):
                op(f, g)


def test_evaluate_horner():
    F = GF(7)
    f = Poly(F, (1, 2, 3))  # 1 + 2x + 3x^2
    for a in F.elements():
        assert f.evaluate(a) == (1 + 2 * a + 3 * a * a) % 7


def test_compose_xpow_and_pth_root():
    F = GF(3)
    f = Poly(F, (1, 2, 0, 1))
    g = f.compose_xpow(3)
    assert g.coeffs == (1, 0, 0, 2, 0, 0, 0, 0, 0, 1)
    assert g.pth_root() == f
    with pytest.raises(PflagsError):
        Poly(F, (0, 1)).pth_root()


def test_pth_root_takes_coefficient_roots():
    F = GF(3, 2)
    c = 5  # arbitrary non-prime-subfield element
    f = Poly(F, (0, 0, 0, c))  # c * x^3
    root = f.pth_root()
    assert root.coeffs == (0, F.pth_root(c))
    assert root * root * root == f


@given(field_and_polys(1, max_len=5))
@settings(max_examples=60, deadline=None)
def test_squarefree_decomposition_reconstructs(fp):
    _, f = fp
    if f.degree < 1:
        return
    parts = f.squarefree_decomposition()
    prod = Poly.one(f.field)
    for g, e in parts:
        assert g.is_monic() and not g.is_zero()
        # squarefree over a perfect field: coprime to its derivative
        assert poly_gcd(g, g.derivative()).is_one()
        prod = prod * g**e
    assert prod == f.monic()
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).is_one()


def test_squarefree_decomposition_char_p_multiplicities():
    F = GF(2)
    x = Poly.x(F)
    one = Poly.one(F)
    f = (x + one) ** 4 * x**2 * (x * x + x + one)
    parts = dict()
    for g, e in f.squarefree_decomposition():
        parts[e] = g
    assert parts[1] == x * x + x + one
    assert parts[2] == x
    assert parts[4] == x + one


def test_find_irreducible_returns_marker_and_polys():
    assert find_irreducible(3, 1) == Poly.x(GF(3))
    assert find_irreducible(2, 2).coeffs == (1, 1, 1)
    assert find_irreducible(2, 3).coeffs == (1, 1, 0, 1)


def brute_roots(f):
    """Oracle: evaluate everywhere; multiplicity by evaluating the shifted
    polynomial's coefficients (Taylor expansion via repeated synthetic division
    is what the library does, so expand f(x + a) here instead)."""
    F = f.field
    out = []
    x = Poly.x(F)
    for a in F.elements():
        shifted = Poly.zero(F)
        xa = x + Poly.constant(F, a)
        power = Poly.one(F)
        for c in f.coeffs:
            shifted = shifted + power.scale(c)
            power = power * xa
        mult = 0
        for c in shifted.coeffs:
            if c == 0:
                mult += 1
            else:
                break
        out.extend([a] * mult)
    return sorted(out)


@pytest.mark.parametrize(
    "field,coeffs,expected",
    [
        (GF(5), (4, 0, 1), [1, 4]),  # x^2 - 1
        (GF(2), (1, 1, 1), []),
        (GF(3), (0, 1), [0]),
    ],
)
def test_roots_pinned_examples(field, coeffs, expected):
    f = Poly(field, coeffs)
    assert brute_roots(f) == expected
    assert sorted(roots_in_field(f)) == expected


@given(field_and_polys(1, max_len=5))
@settings(max_examples=50, deadline=None)
def test_roots_match_taylor_oracle(fp):
    _, f = fp
    if f.is_zero():
        with pytest.raises(PflagsError):
            roots_in_field(f)
        return
    assert sorted(roots_in_field(f)) == brute_roots(f)


def test_roots_report_multiplicity():
    F = GF(3)
    x = Poly.x(F)
    f = x * x * (x + Poly.one(F))
    assert sorted(roots_in_field(f)) == [0, 0, 2]
