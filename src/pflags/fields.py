"""Exact arithmetic in finite fields F_{p^k} at desk scale.

An element of F_{p^k} is a plain Python int in ``[0, p^k)``: its little-endian
base-p digits are the coordinates in the power basis of the modulus root.  For
k = 1 an element is just its residue mod p.  This keeps values hashable,
comparable, and cheap to store inside polynomial coefficient tuples.

The extension modulus defaults to the monic irreducible polynomial of degree k
over F_p whose little-endian coefficient vector encodes the smallest integer
in base p, so extension fields are reproducible across runs.  Fields with
q <= 128 precompute multiplication and inverse tables; larger fields fall back
to digit arithmetic.
"""

from __future__ import annotations

import functools

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


# -- polynomial helpers over F_p on raw digit lists (ascending, may carry
#    trailing zeros); only what the irreducibility search needs.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        _ptrim(a)
    return a


def _is_irreducible_digits(coeffs: list[int], p: int) -> bool:
    """Exhaustive trial division by every monic divisor of degree <= k/2."""
    k = len(coeffs) - 1
    if coeffs[-1] != 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for n in range(p**d):
            div = _digits(n, p, d) + [1]
            if not _pmod(coeffs, div, p):
                return False
    return True


def find_irreducible_coeffs(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p, ascending coefficients.

    Candidates are ordered by the integer their little-endian base-p digit
    vector encodes (constant term least significant); the first irreducible
    wins.  For k = 1 the marker polynomial x is returned.
    """
    if not is_prime(p):
        raise InvalidFieldError(f"{p} is not prime")
    if k < 1:
        raise InvalidFieldError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        return (0, 1)
    for n in range(p**k):
        cand = _digits(n, p, k) + [1]
        if _is_irreducible_digits(cand, p):
            return tuple(cand)
    raise InvalidFieldError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class Field:
    """The finite field F_{p^k} with element arithmetic on int encodings."""

    __slots__ = ("p", "k", "q", "modulus", "_mul_table", "_inv_table")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise InvalidFieldError(f"{p} is not prime")
        if k < 1:
            raise InvalidFieldError(f"extension degree must be >= 1, got {k}")
        if modulus is None:
            modulus = find_irreducible_coeffs(p, k) if k > 1 else (0, 1)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InvalidFieldError(f"modulus must be monic of degree {k}")
        if k > 1 and not _is_irreducible_digits(list(modulus), p):
            raise InvalidFieldError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        if k > 1 and self.q <= _TABLE_MAX:
            self._build_tables()

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

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
        p = self.p
        da, db = _digits(a, p, self.k), _digits(b, p, self.k)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        p = self.p
        da, db = _digits(a, p, self.k), _digits(b, p, self.k)
        return _undigits([(x - y) % p for x, y in zip(da, db)], p)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
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
        self._mul_table = [[self._mul_digits(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            row = self._mul_table[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv


@functools.lru_cache(maxsize=None)
def GF(p: int, k: int = 1, modulus: tuple[int, ...] | None = None) -> Field:
    """Cached field constructor; equal parameters share one instance."""
    return Field(p, k, modulus)
