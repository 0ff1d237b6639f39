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
are reproducible across runs.  p must be below ``PRIME_BOUND`` (about
3.3 10^24), where the Miller-Rabin test of ``is_prime`` is a proof.

Every extension field with q <= ``_TABLE_MAX`` = 4096 carries discrete-log
tables on its smallest primitive element g (Lidl-Niederreiter, *Finite
Fields*, 9.1).  ``_log[a]`` is the i in [0, q - 1) with g^i = a, and
``_log[0]`` is the sentinel 2(q - 1).  ``_exp`` holds g^i for i < 2(q - 1),
so a sum of two logs needs no reduction, then zeros up to 4(q - 1), where
every sum with the sentinel lands: a product is ``_exp[_log[a] + _log[b]]``
with no branch.  In odd characteristic the Zech table ``_zech[i]`` =
log(1 + g^i), stored twice so that any index in (-2(q - 1), 2(q - 1)) reads
it mod q - 1, gives a + b = g^(u + z(log b - u)) for u = log a; adding 1
changes only the lowest base-p digit of an encoding, so it builds in O(q).
Products, inverses, powers, Frobenius and p-th roots are lookups, and
``poly`` reads the tables directly.  The build multiplies digit vectors
q times, which sets the cap: on a shared 2-vCPU Intel Xeon with CPython
3.11, GF(2^8) builds in about 2 ms, GF(3^7) in 12 ms and GF(2^12) in 30 ms,
and the tables of GF(2^12) take about 0.4 MB.

In characteristic 2 addition and subtraction are the XOR of the encodings, at
any q.  Above the cap the field works on base-p digits: a product is the F_p
product of the digit vectors reduced by the modulus.  Square roots in every
odd characteristic are found by Tonelli-Shanks.  ``GF`` proves a modulus
irreducible once, by Ben-Or's test (the default one is proven by the search
that finds it), and ``Field`` takes it as proven.

A sum of products a_1 b_1 + ... + a_t b_t of F_p polynomials, in ``poly``
and of digit vectors, is one sum of big-integer products, unpacked once
(Kronecker substitution, ``_dot_mod_p``).  ``_slot_codec`` is the one packer
and unpacker, shared by ``_dot_mod_p`` and the T iteration of
``matrix._t_step``, whose slots are sized by its layout (``matrix._t_layout``,
built once per shape and cached) and which keeps its state packed from step
to step, reducing every slot mod p on the packed int (Barrett); over
F_(p^k) it packs the base-p digits of each coefficient into a cell of 2k - 1
slots, folds the digit products of z^k to z^(2k - 2) back by the modulus,
so at every k a T step is big-int arithmetic, and reads its reduced cells
back with ``_reduced_unpack``, one cell to its slot.  Each
coefficient tuple is packed into an int, one fixed-width slot per
coefficient, constant term lowest.  A coefficient of a_s b_s is a sum of at
most n_s = min(len a_s, len b_s) terms, each at most (p - 1)^2, so a slot of
w bytes with (n_1 + ... + n_t) (p - 1)^2 < 2^(8 w) holds a coefficient of the
sum with no carry into the next slot; ``_dot_mod_p`` reads the sum's slots
back and reduces them mod p.  One-byte slots are packed
with ``bytes``; widths of 2 to 8 bytes are rounded up to 2, 4 or 8, the sizes
of the ``struct`` codes H, I and Q; wider slots, needed by ``_dot_mod_p``
from p near 2^31 up and by the T iteration from p of a few hundred up, are
packed one ``int.to_bytes`` per coefficient.  ``_dot_mod_p`` reads them back
one ``int.from_bytes`` per slot, as its slots are not reduced; a slot or cell
whose value is reduced, below q, is read with the others in one
``struct.unpack``, its value's code and pad bytes for the rest of the slot,
up to q = 2^64.  Every packing names
little-endian order (``int.to_bytes``/``from_bytes`` with "little", ``struct``
formats with "<"), so the result does not depend on ``sys.byteorder``.
"""

from __future__ import annotations

import struct

from .errors import InvalidFieldError, PreconditionError

_TABLE_MAX = 4096

# Miller-Rabin with the prime bases 2..41 proves primality below this bound
# (Sorenson-Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a proof for n < ``PRIME_BOUND``, above
    which it raises ValueError."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below the primality bound {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def _power(x, n: int, one, mul):
    """x^n for n >= 0 by square-and-multiply, given ``mul`` and its identity
    ``one``: the one powering loop, for elements, polynomials and matrices."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def _byte_codec():
    def pack(cs):
        return int.from_bytes(bytes(cs), "little")

    def unpack(total, m):
        return total.to_bytes(m, "little")
    return 8, pack, unpack


def _struct_codec(width: int, code: str):
    def pack(cs):
        return int.from_bytes(struct.pack(f"<{len(cs)}{code}", *cs), "little")

    def unpack(total, m):
        return struct.unpack(f"<{m}{code}", total.to_bytes(m * width, "little"))
    return 8 * width, pack, unpack


def _wide_codec(width: int):
    def pack(cs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")

    def unpack(total, m):
        data = total.to_bytes(m * width, "little")
        return [int.from_bytes(data[i:i + width], "little") for i in range(0, m * width, width)]
    return 8 * width, pack, unpack


def _reduced_unpack(width: int, bound: int):
    """unpack(total, m), the lowest m slots of ``width`` bytes of total, for
    slots that hold values below ``bound``: one ``struct.unpack``, of the
    smallest code of B, H, I and Q that holds bound - 1, then pad bytes for
    the rest of each slot; one ``int.from_bytes`` per slot where no code of
    at most ``width`` bytes does, as for bound > 2^64."""
    size = next((s for s in (1, 2, 4, 8) if bound <= 1 << 8 * s), width + 1)
    if size > width:
        return _wide_codec(width)[2]
    unit = {1: "B", 2: "H", 4: "I", 8: "Q"}[size] + (f"{width - size}x" if width > size else "")

    def unpack(total, m):
        return struct.unpack("<" + unit * m, total.to_bytes(m * width, "little"))
    return unpack


# slot widths of 2..8 bytes rounded up to the standard sizes of the struct
# codes H, I and Q under "<"
_CODECS = {1: _byte_codec(), 2: _struct_codec(2, "H")}
_CODECS[3] = _CODECS[4] = _struct_codec(4, "I")
_CODECS.update(dict.fromkeys(range(5, 9), _struct_codec(8, "Q")))


def _slot_codec(bound: int):
    """The Kronecker codec (bits, pack, unpack) for slots that hold every
    integer in [0, bound], bound >= 1 (see the module docstring): a slot is
    ``bits`` wide, pack(cs) is the int with the nonnegative ints cs in
    consecutive slots, constant term lowest, and unpack(total, m) the
    sequence of the lowest m slots of total."""
    width = (bound.bit_length() + 7) >> 3  # bytes per slot
    return _CODECS[width] if width <= 8 else _wide_codec(width)


def _dot_mod_p(pairs, p: int) -> list[int]:
    """sum a b mod p over the sequence ``pairs`` of nonempty ascending F_p
    coefficient sequences (a, b), by one integer sum of products (see the
    module docstring), of length max(len a + len b) - 1 with no trimming."""
    bound = m = 0
    for a, b in pairs:
        la, lb = len(a), len(b)
        bound += la if la < lb else lb
        m = la + lb if la + lb > m else m
    _, pack, unpack = _slot_codec(bound * (p - 1) ** 2)  # no coefficient of the sum exceeds it
    total = 0
    for a, b in pairs:
        total += pack(a) * pack(b)
    return [c % p for c in unpack(total, m - 1)]


def _reduce_mod_p(rem: list[int], div, p: int, quo: list[int] | None = None):
    """Reduce ``rem`` modulo the nonzero ``div`` over F_p in place, leaving
    every entry in [0, p) and zero from index deg(div) up; the quotient
    goes into ``quo`` when given.  Entries are reduced mod p only at the
    end, except the leading one, which is reduced when it is read.  Both
    are ascending coefficient lists; this is the one F_p polynomial
    reduction, shared by the irreducibility search, the digit arithmetic
    and ``poly``."""
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


def _mul_mod_p(u, v, mod, p: int) -> list[int]:
    """u v mod ``mod`` over F_p as deg(mod) entries, for nonempty ascending
    u and v: the one F_p product mod a polynomial."""
    prod = _dot_mod_p(((u, v),), p)
    _reduce_mod_p(prod, mod, p)
    return prod[:len(mod) - 1]


def _euclid(r0: list, r1: list, reduce, ring) -> list:
    """The gcd, not made monic, of the ascending lists r0 and r1, which it
    consumes: the one Euclid remainder loop, reducing by ``reduce(rem, div,
    ring)`` (``_reduce_mod_p`` with p, or ``poly._reduce`` with a ``Field``)."""
    while r1:
        reduce(r0, r1, ring)
        while r0 and r0[-1] == 0:
            r0.pop()
        r0, r1 = r1, r0
    return r0


def _is_irreducible_digits(coeffs, p: int) -> bool:
    """Ben-Or's test: f of degree k over F_p is irreducible iff gcd(f,
    x^(p^d) - x), the product of its irreducible factors of degree dividing
    d, is 1 for d = 1..k/2."""
    h = [0, 1]  # x^(p^d) mod f, by d p-th powers
    for _ in range((len(coeffs) - 1) // 2):
        h = _power(h, p, [1], lambda u, v: _mul_mod_p(u, v, coeffs, p))
        r0 = list(h)  # h keeps at least the two entries of x
        r0[1] = (r0[1] - 1) % p  # x^(p^d) - x mod f
        if len(_euclid(r0, list(coeffs), _reduce_mod_p, p)) > 1:
            return False
    return True


def _check_pk(p: int, k: int):
    if p >= PRIME_BOUND:
        raise InvalidFieldError(f"p = {p} is not below the primality bound {PRIME_BOUND}")
    if not is_prime(p):
        raise InvalidFieldError(f"{p} is not prime")
    if k < 1:
        raise InvalidFieldError(f"extension degree must be >= 1, got {k}")


def _require_characteristic(p: int) -> None:
    """PreconditionError unless p, a characteristic given with no field, is a prime."""
    if p >= PRIME_BOUND:
        raise PreconditionError(f"characteristic must be below the primality bound {PRIME_BOUND}")
    if not is_prime(p):
        raise PreconditionError(f"characteristic must be a prime, got {p}")


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

    __slots__ = ("p", "k", "q", "modulus", "_exp", "_log", "_zech", "_nonresidue")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        """Build F_{p^k} on a monic irreducible modulus of degree k, reduced
        mod p, that ``GF`` has proven.  Call ``GF`` instead: it builds each
        field once."""
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._exp = self._log = self._zech = self._nonresidue = None
        if k > 1 and self.q <= _TABLE_MAX:
            self._build_log_tables()

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
        zech = self._zech
        if zech is None:
            p = self.p
            da, db = _digits(a, p, self.k), _digits(b, p, self.k)
            return _undigits([(x + y) % p for x, y in zip(da, db)], p)
        if not a:
            return b
        if not b:
            return a
        log = self._log
        u = log[a]
        return self._exp[u + zech[log[b] - u]]

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        if self._exp is not None:
            return self._exp[self._log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)
        p = self.p
        return _undigits([-x % p for x in _digits(a, p, self.k)], p)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        exp = self._exp
        if exp is not None:
            log = self._log
            return exp[log[a] + log[b]]
        return self._mul_digits(a, b)

    def _mul_digits(self, a: int, b: int) -> int:
        """The product of the digit vectors, reduced by the modulus (k > 1)."""
        p, k = self.p, self.k
        return _undigits(_mul_mod_p(_digits(a, p, k), _digits(b, p, k), self.modulus, p), p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1:
            return 1
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)  # a lookup when the field has log tables

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if self._exp is not None and a:
            return self._exp[self._log[a] * n % (self.q - 1)]
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.k == 1:
            return pow(a, n, self.p)
        return _power(a, n, 1, self.mul)

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
        """A square root of a, or None; the smaller encoding of the two
        roots b and -b is returned.  Tonelli-Shanks runs on z, the smallest
        non-residue, found on the first call and kept by the field."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.q // 2)  # squaring is a bijection
        if not self.is_square(a):
            return None
        odd, s = self.q - 1, 0  # Tonelli-Shanks
        while odd % 2 == 0:
            odd, s = odd // 2, s + 1
        z = self._nonresidue
        if z is None:
            z = self._nonresidue = next(c for c in range(2, self.q) if not self.is_square(c))
        m, c = s, self.pow(z, odd)
        t, b = self.pow(a, odd), self.pow(a, (odd + 1) // 2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:  # the order of t is 2^i, and i < m
                t2, i = self.mul(t2, t2), i + 1
            e = self.pow(c, 1 << (m - i - 1))
            m, c = i, self.mul(e, e)
            t, b = self.mul(t, c), self.mul(b, e)
        return min(b, self.neg(b))

    def _build_log_tables(self):
        n = self.q - 1
        primes = [ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)]
        g = next(c for c in range(2, self.q)
                 if all(self.pow(c, n // ell) != 1 for ell in primes))
        powers = [1] * n
        for i in range(1, n):
            powers[i] = self._mul_digits(powers[i - 1], g)
        log = [0] * self.q
        for i, e in enumerate(powers):
            log[e] = i
        log[0] = 2 * n
        self._exp = powers + powers + [0] * (2 * n + 1)
        self._log = log
        if self.p != 2:
            p = self.p
            self._zech = [log[e + 1 if e % p != p - 1 else e + 1 - p] for e in powers] * 2


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
            modulus = find_irreducible_coeffs(p, k)  # the search proved it irreducible
            field = _FIELDS.get((p, k, modulus)) or Field(p, k, modulus)
            _FIELDS[(p, k)] = _FIELDS[(p, k, modulus)] = field
        return field
    _check_pk(p, k)
    modulus = tuple(c % p for c in modulus)
    if k == 1 and len(modulus) == 2 and modulus[1] == 1:
        modulus = (0, 1)
    field = _FIELDS.get((p, k, modulus))
    if field is None:
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InvalidFieldError(f"modulus must be monic of degree {k}")
        if not _is_irreducible_digits(modulus, p):
            raise InvalidFieldError(f"modulus {modulus} is reducible over F_{p}")
        field = _FIELDS[(p, k, modulus)] = Field(p, k, modulus)
    return field
