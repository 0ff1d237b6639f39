"""Exact arithmetic in finite fields F_{p^k} at desk scale.

An element of F_{p^k} is a plain Python int in ``[0, p^k)``: its little-endian
base-p digits are the coordinates in the power basis of the modulus root.  For
k = 1 an element is just its residue mod p.  This keeps values hashable,
comparable, and cheap to store inside polynomial coefficient tuples.

``GF(p, k, modulus)`` is the one constructor.  It normalises its arguments and
builds each field once, so every spelling of a field (default or explicit
modulus, any integer sequence, unreduced residues) is the same ``Field``
object and field equality is identity.  The extension modulus defaults to the
monic irreducible polynomial of degree k over F_p whose little-endian
coefficient vector encodes the smallest integer in base p, so extension fields
are reproducible across runs.  Extension fields with q <= 128 precompute
multiplication and inverse tables, plus addition and negation tables in odd
characteristic.  In characteristic 2 addition and subtraction are the XOR of
the encodings, at any q.  Larger fields use digit arithmetic for the rest.
"""

from __future__ import annotations

from .errors import InvalidFieldError

_TABLE_MAX = 128


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _digits(n: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _undigits(ds, p: int) -> int:
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def _reduce_mod_p(rem: list[int], div, p: int, quo: list[int] | None = None):
    """Reduce ``rem`` modulo the nonzero ``div`` over F_p in place, leaving
    every entry in [0, p) and zero from index deg(div) up; the quotient
    goes into ``quo`` when given.  Entries are reduced mod p only at the
    end, except the leading one, which is reduced when it is read.  Both
    are ascending coefficient lists; this is the one F_p polynomial
    reduction, shared by the irreducibility search and ``poly``."""
    db = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    for shift in range(len(rem) - 1 - db, -1, -1):
        c = rem[shift + db] * inv_lead % p
        if c:
            if quo is not None:
                quo[shift] = c
            for i, bc in enumerate(div):
                rem[shift + i] -= c * bc
    rem[:] = [c % p for c in rem]


def _is_irreducible_digits(coeffs, p: int) -> bool:
    """Exhaustive trial division by every monic divisor of degree <= k/2."""
    k = len(coeffs) - 1
    if coeffs[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for n in range(p**d):
            rem = list(coeffs)
            _reduce_mod_p(rem, _digits(n, p, d) + [1], p)
            if not any(rem):
                return False
    return True


def _check_pk(p: int, k: int):
    if not is_prime(p):
        raise InvalidFieldError(f"{p} is not prime")
    if k < 1:
        raise InvalidFieldError(f"extension degree must be >= 1, got {k}")


def find_irreducible_coeffs(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p, ascending coefficients.

    Candidates are ordered by the integer their little-endian base-p digit
    vector encodes (constant term least significant); the first irreducible
    wins.  For k = 1 the marker polynomial x is returned.
    """
    _check_pk(p, k)
    if k == 1:
        return (0, 1)
    for n in range(p**k):
        cand = _digits(n, p, k) + [1]
        if _is_irreducible_digits(cand, p):
            return tuple(cand)
    raise InvalidFieldError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class Field:
    """The finite field F_{p^k} with element arithmetic on int encodings."""

    __slots__ = ("p", "k", "q", "modulus", "_add_table", "_neg_table", "_mul_table",
                 "_inv_table")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        """Build F_{p^k} on a modulus already reduced mod p.  Call ``GF``
        instead: it builds each field once."""
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InvalidFieldError(f"modulus must be monic of degree {k}")
        if not _is_irreducible_digits(modulus, p):
            raise InvalidFieldError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        if k > 1 and self.q <= _TABLE_MAX:
            self._build_tables()

    # -- identity: ``GF`` interns, so a field equals only itself ------------

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __repr__(self):
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"

    # -- element codec ----------------------------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Little-endian base-p digits of an element (length k)."""
        return _digits(a, self.p, self.k)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.k:
            raise InvalidFieldError(f"element needs <= {self.k} residues, got {len(cs)}")
        cs = cs + [0] * (self.k - len(cs))
        return _undigits([c % self.p for c in cs], self.p)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise InvalidFieldError(f"{a!r} is not an element of {self!r}")
        return a

    def scalar(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    def elements(self):
        return range(self.q)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        p = self.p
        da, db = _digits(a, p, self.k), _digits(b, p, self.k)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][self._neg_table[b]]
        p = self.p
        da, db = _digits(a, p, self.k), _digits(b, p, self.k)
        return _undigits([(x - y) % p for x, y in zip(da, db)], p)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        return _undigits([-x % p for x in _digits(a, p, self.k)], p)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_digits(a, b)

    def _mul_digits(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        da, db = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # fold x^k = -(m_0 + ... + m_{k-1} x^{k-1}) from the top down
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * self.modulus[j]
            prod[i] = 0
        return _undigits([x % p for x in prod[:k]], p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1:
            return 1
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def pth_root(self, a: int) -> int:
        """The unique b with b^p = a (Frobenius is a bijection)."""
        return self.pow(a, self.p ** (self.k - 1))

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None; the smallest encoding is returned."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.q // 2)  # squaring is a bijection
        if not self.is_square(a):
            return None
        for b in range(1, self.q):
            if self.mul(b, b) == a:
                return b
        return None  # unreachable

    def _build_tables(self):
        q = self.q
        p, k = self.p, self.k
        if p != 2:
            digits = [_digits(a, p, k) for a in range(q)]
            self._add_table = [[_undigits([(x + y) % p for x, y in zip(da, db)], p)
                                for db in digits] for da in digits]
            self._neg_table = [_undigits([-x % p for x in da], p) for da in digits]
        self._mul_table = [[self._mul_digits(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            row = self._mul_table[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv


_FIELDS: dict[tuple, Field] = {}  # (p, k, modulus), and (p, k) for the default


def GF(p: int, k: int = 1, modulus=None) -> Field:
    """The field F_{p^k}; the one constructor, so each field is one object.

    ``modulus`` is any ascending integer sequence; it is reduced mod p before
    the lookup, and when omitted it is the default of
    ``find_irreducible_coeffs``.  For k = 1 the element encoding ignores the
    modulus, so every monic linear modulus names F_p.  Every spelling of a
    field returns the same instance, and fields compare by identity.
    """
    if modulus is None:
        field = _FIELDS.get((p, k))
        if field is None:
            field = _FIELDS[(p, k)] = GF(p, k, find_irreducible_coeffs(p, k))
        return field
    _check_pk(p, k)
    modulus = tuple(c % p for c in modulus)
    if k == 1 and len(modulus) == 2 and modulus[1] == 1:
        modulus = (0, 1)
    field = _FIELDS.get((p, k, modulus))
    if field is None:
        field = _FIELDS[(p, k, modulus)] = Field(p, k, modulus)
    return field
