import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pflags import fields, jsonio
from pflags.errors import InvalidFieldError
from pflags.fields import GF, PRIME_BOUND, Field, find_irreducible_coeffs, is_prime
from pflags.poly import Poly

SMALL_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]


def brute_force_irreducible(coeffs, p):
    """Oracle: a monic polynomial of degree k >= 2 over F_p is reducible iff it
    factors as (monic of degree a)(monic of degree k - a); checked by
    expanding every product."""
    k = len(coeffs) - 1
    for a in range(1, k // 2 + 1):
        b = k - a
        for f_low in itertools.product(range(p), repeat=a):
            f = list(f_low) + [1]
            for g_low in itertools.product(range(p), repeat=b):
                g = list(g_low) + [1]
                prod = [0] * (k + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if prod == list(coeffs):
                    return False
    return True


def test_find_irreducible_prime_field_marker():
    assert find_irreducible_coeffs(3, 1) == (0, 1)


@pytest.mark.parametrize("p,k,expected", [(2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1))])
def test_find_irreducible_matches_exhaustive_search(p, k, expected):
    # oracle first: enumerate candidates in base-p integer order, test each by
    # brute-force factoring, and freeze the first hit
    for n in range(p**k):
        digits = []
        v = n
        for _ in range(k):
            digits.append(v % p)
            v //= p
        cand = tuple(digits) + (1,)
        if brute_force_irreducible(cand, p):
            assert cand == expected
            break
    assert find_irreducible_coeffs(p, k) == expected


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_find_irreducible_is_irreducible_and_minimal(p, k):
    got = find_irreducible_coeffs(p, k)
    assert brute_force_irreducible(got, p)
    value = sum(c * p**i for i, c in enumerate(got[:-1]))
    for n in range(value):
        digits = []
        v = n
        for _ in range(k):
            digits.append(v % p)
            v //= p
        assert not brute_force_irreducible(tuple(digits) + (1,), p)


def test_non_prime_rejected():
    with pytest.raises(InvalidFieldError):
        GF(6)
    with pytest.raises(InvalidFieldError):
        find_irreducible_coeffs(4, 2)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if trial_division_is_prime(n)]


def test_is_prime_on_strong_pseudoprimes_and_mersenne_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 37
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2) and not is_prime((2**31 - 1) * 65521)


def test_primality_bound():
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        is_prime(PRIME_BOUND)
    for p in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(InvalidFieldError, match=str(PRIME_BOUND)):
            GF(p)
    assert GF(2**61 - 1).p == 2**61 - 1


def test_reducible_modulus_rejected():
    with pytest.raises(InvalidFieldError):
        GF(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2


def trial_division_irreducible(coeffs, p):
    """Oracle: trial division of a monic polynomial by every monic divisor
    of degree <= k/2, the test the library ran before Ben-Or's."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for n in range(p**d):
            rem = list(coeffs)
            fields._reduce_mod_p(rem, fields._digits(n, p, d) + [1], p)
            if not any(rem):
                return False
    return True


@pytest.mark.parametrize("p,k_max", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_trial_division_exhaustive(p, k_max):
    for k in range(1, k_max + 1):
        for n in range(p**k):
            cand = fields._digits(n, p, k) + [1]
            assert fields._is_irreducible_digits(cand, p) == trial_division_irreducible(cand, p)


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (2, 4, (1, 1, 0, 0, 1)),
    (2, 6, (1, 1, 0, 0, 0, 0, 1)), (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (3, 2, (1, 0, 1)), (3, 3, (1, 2, 0, 1)), (3, 4, (2, 1, 0, 0, 1)),
    (3, 5, (1, 2, 0, 0, 0, 1)), (5, 2, (2, 0, 1)), (5, 3, (1, 1, 0, 1)), (7, 2, (1, 0, 1))])
def test_default_moduli_are_pinned(p, k, modulus):
    assert find_irreducible_coeffs(p, k) == modulus and GF(p, k).modulus == modulus


def test_large_characteristic_extensions_build():
    p = 2**61 - 1  # p = 3 mod 4, so x^2 + 1 is irreducible
    assert GF(p, 2).modulus == (1, 0, 1) and GF(p, 3).modulus == (5, 0, 0, 1)
    for reducible in ((0, 0, 1), (p - 1, 0, 1)):  # x^2 and (x - 1)(x + 1)
        with pytest.raises(InvalidFieldError):
            GF(p, 2, reducible)
    assert GF(2, 32).modulus == tuple(int(i in (0, 2, 3, 7, 32)) for i in range(33))


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    for a in els:
        assert field.add(a, field.neg(a)) == 0
        assert field.mul(a, 1) == a
        if a:
            assert field.mul(a, field.inv(a)) == 1
    for a in els:
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)


@pytest.mark.parametrize("field", [GF(3, 2), GF(2, 3)], ids=repr)
def test_distributivity_exhaustive(field):
    els = list(field.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def _digit_add_sub_neg(field, a, b):
    """Oracle: coordinate-wise arithmetic on the base-p digits."""
    p = field.p
    da, db = field.coeffs(a), field.coeffs(b)
    return (field.from_coeffs([x + y for x, y in zip(da, db)]),
            field.from_coeffs([x - y for x, y in zip(da, db)]),
            field.from_coeffs([-x % p for x in da]))


TABLE_FIELDS = [GF(p, k) for p, k in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                      (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                                      (11, 2)]]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_add_sub_neg_match_digits_on_table_fields(field):
    assert field.q <= 128
    for a in field.elements():
        for b in field.elements():
            got = (field.add(a, b), field.sub(a, b), field.neg(a))
            assert got == _digit_add_sub_neg(field, a, b)


# sampled log-table fields; GF(2^12) is at the table cap
LARGE_TABLE_FIELDS = [GF(2, 8), GF(3, 5), GF(5, 5), GF(2, 12)]


@pytest.mark.parametrize("field", LARGE_TABLE_FIELDS, ids=repr)
def test_add_sub_neg_match_digits_on_sampled_pairs(field):
    rng = random.Random(field.q)
    for _ in range(3000):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        got = (field.add(a, b), field.sub(a, b), field.neg(a))
        assert got == _digit_add_sub_neg(field, a, b)


def _digit_pow(field, a, n):
    """Oracle: a^n for n >= 0 by square-and-multiply on ``_mul_digits``."""
    result = 1
    for bit in bin(n)[2:]:
        result = field._mul_digits(result, result)
        if bit == "1":
            result = field._mul_digits(result, a)
    return result


def _smallest_roots(field):
    """Oracle: the smallest square root of every square, by a scan."""
    return {field._mul_digits(b, b): b for b in reversed(field.elements())}


def _check_element_ops(field, a, roots):
    """neg, pow, frobenius, pth_root, inv and sqrt of one element against
    the digit oracles."""
    p, q = field.p, field.q
    assert field.neg(a) == _digit_add_sub_neg(field, a, 0)[2]
    for n in (0, 1, 2, p, q - 2, q + 5):
        assert field.pow(a, n) == _digit_pow(field, a, n)
    assert field.frobenius(a) == _digit_pow(field, a, p)
    assert _digit_pow(field, field.pth_root(a), p) == a
    assert field.sqrt(a) == roots.get(a)
    if a:
        inv = field.inv(a)
        assert field._mul_digits(a, inv) == 1
        assert field.pow(a, -3) == _digit_pow(field, inv, 3)


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_log_tables_match_digits_exhaustive(field):
    assert field._exp is not None
    roots = _smallest_roots(field)
    for a in field.elements():
        _check_element_ops(field, a, roots)
        for b in field.elements():
            assert field.mul(a, b) == field._mul_digits(a, b)


@pytest.mark.parametrize("field", LARGE_TABLE_FIELDS, ids=repr)
def test_log_tables_match_digits_on_sampled_pairs(field):
    assert field._exp is not None
    rng = random.Random(field.q)
    roots = _smallest_roots(field)
    for _ in range(3000):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        assert field.mul(a, b) == field._mul_digits(a, b)
    for a in [0, 1, field.q - 1] + [rng.randrange(field.q) for _ in range(200)]:
        _check_element_ops(field, a, roots)


# above the table cap
DIGIT_FIELDS = [GF(2, 13), GF(3, 8)]


@pytest.mark.parametrize("field", DIGIT_FIELDS, ids=repr)
def test_inverse_without_table(field):
    """q > 4096 has no log tables; 1 and sampled elements against a^(q-2)."""
    assert field._exp is None
    rng = random.Random(field.q)
    for a in [1] + [rng.randrange(1, field.q) for _ in range(50)]:
        inv = field.inv(a)
        assert inv == field.pow(a, field.q - 2)
        assert field.mul(a, inv) == 1


def _schoolbook_fold_mul(field, a, b):
    """Oracle: the digit product by schoolbook multiplication, then folding
    x^k = -(m_0 + ... + m_(k-1) x^(k-1)) from the top down."""
    p, k = field.p, field.k
    da, db = field.coeffs(a), field.coeffs(b)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        for j in range(k):
            prod[i - k + j] -= c * field.modulus[j]
        prod[i] = 0
    return field.from_coeffs(prod[:k])


@pytest.mark.parametrize("field", [GF(2, 8), GF(3, 5)] + DIGIT_FIELDS + [GF(5, 6)], ids=repr)
def test_mul_digits_matches_schoolbook_fold(field):
    rng = random.Random(field.q)
    pairs = [(0, 1), (1, field.q - 1), (field.q - 1, field.q - 1)]
    pairs += [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(500)]
    for a, b in pairs:
        assert field._mul_digits(a, b) == _schoolbook_fold_mul(field, a, b)
        if field._exp is None:
            assert field.mul(a, b) == _schoolbook_fold_mul(field, a, b)


def test_default_modulus_is_proven_irreducible_once(monkeypatch):
    proofs = []
    true_proof = fields._is_irreducible_digits

    def counted(coeffs, p):
        proofs.append(tuple(coeffs))
        return true_proof(coeffs, p)

    monkeypatch.setattr(fields, "_FIELDS", {})
    monkeypatch.setattr(fields, "_is_irreducible_digits", counted)
    field = GF(3, 4)
    assert proofs.count(field.modulus) == 1
    assert GF(3, 4, field.modulus) is field and proofs.count(field.modulus) == 1


@pytest.mark.parametrize("field", [GF(5), GF(2, 3), GF(3, 2), DIGIT_FIELDS[0]], ids=repr)
def test_power_zero_is_one(field):
    for a in (0, 1, field.q - 1):
        assert field.pow(a, 0) == 1
    assert Poly(field, (field.q - 1, 1))**0 == Poly.one(field)  # MatRF: test_matrix_pow


@given(st.data())
@settings(max_examples=60)
def test_frobenius_and_pth_root(data):
    field = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(st.integers(0, field.q - 1))
    assert field.pth_root(field.frobenius(a)) == a
    assert field.frobenius(field.pth_root(a)) == a


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_sqrt_against_exhaustive_squares(field):
    squares = {field.mul(a, a) for a in field.elements()}
    for a in field.elements():
        assert field.is_square(a) == (a in squares)
        root = field.sqrt(a)
        if a in squares:
            assert root is not None and field.mul(root, root) == a
        else:
            assert root is None


@pytest.mark.parametrize("field", [GF(65521), DIGIT_FIELDS[1]], ids=repr)
def test_tonelli_shanks_matches_scan(field):
    roots = _smallest_roots(field)
    rng = random.Random(field.q)
    samples = [rng.randrange(field.q) for _ in range(300)]
    samples += [field._mul_digits(b, b) for b in samples[:100]]  # and 100 known squares
    for a in samples:
        assert field.sqrt(a) == roots.get(a)


@pytest.mark.parametrize("field", [GF(65521), GF(7, 4), GF(3, 5)], ids=repr)
def test_sqrt_finds_the_nonresidue_once(field, monkeypatch):
    """Tonelli-Shanks' z depends only on the field: after the first sqrt,
    each sqrt tests only its argument for squareness."""
    field.sqrt(1)
    calls = []
    true_is_square = Field.is_square
    monkeypatch.setattr(Field, "is_square", lambda f, a: calls.append(a) or true_is_square(f, a))
    squares = [field.mul(b, b) for b in range(2, 40)]
    for a in squares:
        assert field.mul(field.sqrt(a), field.sqrt(a)) == a
    assert len(calls) == 2 * len(squares)


def test_tonelli_shanks_on_a_large_prime_field():
    p = 2**31 - 1
    b = 2**30 + 12345
    assert GF(p).sqrt(b * b % p) == min(b, p - b)
    assert GF(p).sqrt(GF(p).mul(7, b * b % p)) is None  # 7 is a non-residue mod 2^31 - 1


def test_element_codec_roundtrip():
    field = GF(3, 2)
    for a in field.elements():
        assert field.from_coeffs(field.coeffs(a)) == a
    assert field.from_coeffs([2, 1]) == 5


def test_gf_cache_shares_instances():
    """Every spelling of a field returns the one interned object."""
    f3 = GF(3)
    for same in (GF(3), GF(3, 1), GF(3, 1, (0, 1)), GF(3, 1, [1, 1]), GF(3, 1, (2, 4)),
                 jsonio.field_from_json({"p": 3}),
                 jsonio.field_from_json({"p": 3, "k": 1, "modulus": [1, 1]}),
                 jsonio.field_from_json(jsonio.field_to_json(f3))):
        assert same is f3
    f4 = GF(2, 2)
    for same in (GF(2, 2, (1, 1, 1)), GF(2, 2, [1, 1, 1]), GF(2, 2, [3, 1, 1]),
                 jsonio.field_from_json({"p": 2, "k": 2}),
                 jsonio.field_from_json({"p": 2, "k": 2, "modulus": [1, 1, 1]}),
                 jsonio.field_from_json(jsonio.field_to_json(f4))):
        assert same is f4
    assert GF(2, 3) is GF(2, 3, (1, 1, 0, 1))
    assert GF(2, 3, (1, 0, 1, 1)) is not GF(2, 3)  # another modulus, another field
    assert GF(2, 3, (1, 0, 1, 1)) != GF(2, 3)
    assert GF(5) is not GF(7) and GF(3) != GF(3, 2)
    assert isinstance(f3, Field) and {f3: 1}[GF(3, 1, [4, 1])] == 1


def test_gf_is_the_only_public_field_constructor():
    """Fields are built through GF alone; the Field type stays in pflags.fields."""
    import pflags

    assert pflags.GF is GF and "GF" in pflags.__all__
    assert not hasattr(pflags, "Field") and "Field" not in pflags.__all__
    for name in pflags.__all__:
        obj = getattr(pflags, name)
        assert not (isinstance(obj, type) and issubclass(obj, Field)), name


@pytest.mark.parametrize("modulus", [(0, 2), (1, 0), (1,), (0, 0, 1), (1, 1, 1)])
def test_k1_modulus_must_be_monic_linear(modulus):
    with pytest.raises(InvalidFieldError):
        GF(3, 1, modulus)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 9, 12, 16, 25])
def test_reduced_unpack_reads_what_the_wide_codec_reads(width):
    # slots below the bound, read in one struct.unpack with pad bytes where
    # a code fits in the slot, one int.from_bytes per slot where none does
    rng = random.Random(width)
    _, pack, wide = fields._wide_codec(width)
    for bound in (2, 3, 256, 257, 2**16 + 1, 2**32, 2**61 - 1, 2**64, 2**64 + 1, 2**127):
        if bound > 1 << 8 * width:
            continue
        unpack = fields._reduced_unpack(width, bound)
        for m in (0, 1, 7):
            cs = [rng.randrange(bound) for _ in range(m)]
            total = pack(cs) if cs else 0
            assert list(unpack(total, m)) == wide(total, m) == cs
