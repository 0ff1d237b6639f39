"""Univariate polynomials over a finite field.

A polynomial is an immutable ascending coefficient tuple with no trailing
zeros; the empty tuple is the zero polynomial and ``degree`` of zero is -1.
Coefficients are int-encoded field elements (see ``fields``).  The
indeterminate is positional: the same class serves polynomials in the chart
coordinate x and, after a Frobenius rewrite, in the twist coordinate.

Every product and every sum of products is one ``poly_dot``, except the T
iteration of ``matrix._t_step``, which keeps all its columns packed with the
same codec, ``fields._slot_codec``, from level to level, over F_(p^k) with
the k base-p digits of a coefficient in one cell of slots.  A single
product by the constant 1 is the other factor as it is.  Over a prime field
(k = 1) a product is one ``fields._dot_mod_p`` (Kronecker substitution), and
the ring operations, division with remainder and ``poly_gcd`` work on the
coefficients as plain ints mod p, reducing by ``fields._reduce_mod_p``.  Over
an extension field with log tables (q up to the cap in ``fields``) products
and the reduction behind division and ``poly_gcd`` read ``_exp``, ``_log``
and ``_zech`` directly: the logs of the longer factor of a pair (of the
divisor) are taken once per pair (per call), the shorter factor is walked
one ``_add_multiples_log`` per coefficient, and each inner step of
``_add_multiples_log`` is one ``_exp`` lookup plus an XOR (p = 2) or a Zech
step (odd p), with no ``Field`` method call.  In division the log of each
quotient coefficient is reduced mod q - 1 before a divisor log is added, so
the index stays inside the doubled ``_exp``.  Above the cap, and for the
other operations, the ``Field`` element methods are used.
"""

from __future__ import annotations

from .errors import PflagsError
from .fields import (Field, GF, _dot_mod_p, _euclid, _power, _reduce_mod_p,
                     find_irreducible_coeffs)


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = tuple(coeffs)  # the same object when coeffs is a tuple
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        self.field = field
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Poly":
        return cls(field, (field.check(c),))

    @classmethod
    def monomial(cls, field: Field, c: int, n: int) -> "Poly":
        return cls(field, (0,) * n + (field.check(c),))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def lc(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return format_poly(self)

    # -- ring operations ----------------------------------------------------

    def _same_field(self, other: "Poly"):
        if self.field is not other.field:
            raise PflagsError("mixed-field polynomial arithmetic")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if F.k == 1:
            p = F.p
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
        else:
            for i, c in enumerate(b):
                out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        if F.k == 1:
            p = F.p
            return Poly(F, [-c % p for c in self.coeffs])
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        if F.k == 1:
            p = F.p
            for i, c in enumerate(b):
                out[i] = (out[i] - c) % p
        else:
            for i, c in enumerate(b):
                out[i] = F.sub(out[i], c)
        return Poly(F, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        if a == (1,):
            return other
        if b == (1,):
            return self
        return poly_dot(((self, other),), F)

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly(F, ())
        if c == 1:
            return self
        if F.k == 1:
            p = F.p
            return Poly(F, [c * a % p for a in self.coeffs])
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PflagsError("negative polynomial power")
        return _power(self, n, Poly.one(self.field), Poly.__mul__)

    def __divmod__(self, other: "Poly"):
        self._same_field(other)
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        if self.degree < db:
            return Poly(F, ()), self
        quo = [0] * (self.degree - db + 1)
        _reduce(rem, other.coeffs, F, quo)
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lc()))

    # -- calculus and substitution -------------------------------------------

    def derivative(self) -> "Poly":
        F = self.field
        terms = enumerate(self.coeffs)
        next(terms, None)  # the constant term contributes nothing
        if F.k == 1:
            p = F.p
            return Poly(F, [c * i % p for i, c in terms])
        return Poly(F, [F.mul(c, F.scalar(i)) for i, c in terms])

    def evaluate(self, a: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def compose_xpow(self, n: int) -> "Poly":
        """Substitute x -> x^n."""
        if n < 1:
            raise PflagsError("substitution power must be >= 1")
        if n == 1 or self.is_zero():
            return self
        out = [0] * (self.degree * n + 1)
        for i, c in enumerate(self.coeffs):
            out[i * n] = c
        return Poly(self.field, out)

    def pth_root(self) -> "Poly":
        """The g with g^p = self; requires every exponent divisible by p."""
        F = self.field
        p = F.p
        for i, c in enumerate(self.coeffs):
            if c and i % p:
                raise PflagsError("polynomial is not a p-th power")
        return Poly(F, [F.pth_root(c) for c in self.coeffs[::p]])

    # -- factor structure ------------------------------------------------------

    def squarefree_decomposition(self) -> list[tuple["Poly", int]]:
        """Monic squarefree factors with multiplicities, valid in char p.

        Returns pairs (g, e), pairwise coprime squarefree monic g with
        distinct e >= 1 and prod g^e = self/lc.  Multiplicities divisible by p
        are recovered through p-th roots.
        """
        f = self.monic()
        out: list[tuple[Poly, int]] = []
        if f.degree <= 0:
            return out
        fp = f.derivative()
        if fp.is_zero():
            for g, e in f.pth_root().squarefree_decomposition():
                out.append((g, e * self.field.p))
            return out
        c = poly_gcd(f, fp)
        w = f // c
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, c)
            z = w // y
            if z.degree > 0:
                out.append((z, i))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            for g, e in c.pth_root().squarefree_decomposition():
                out.append((g, e * self.field.p))
        out.sort(key=lambda ge: ge[1])
        return out


def poly_dot(pairs, F: Field) -> Poly:
    """sum f g over the pairs (f, g) of polynomials over F, skipping zero
    factors: the one polynomial product (see the module docstring)."""
    cs = [(f.coeffs, g.coeffs) for f, g in pairs if f.coeffs and g.coeffs]
    if len(cs) == 1 and (1,) in cs[0]:  # one product, by the constant 1
        a, b = cs[0]
        return Poly(F, b if a == (1,) else a)
    if F.k == 1:
        return Poly(F, _dot_mod_p(cs, F.p) if cs else ())
    out = [0] * (max([len(a) + len(b) for a, b in cs], default=1) - 1)
    log = F._log
    if log is not None:
        for a, b in cs:
            if len(a) > len(b):  # one call per coefficient of the shorter factor
                a, b = b, a
            lb = [(j, log[y]) for j, y in enumerate(b) if y]  # once per pair
            for i, x in enumerate(a):
                if x:
                    _add_multiples_log(out, i, log[x], lb, F)
        return Poly(F, out)
    for a, b in cs:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = F.add(out[i + j], F.mul(x, y))
    return Poly(F, out)


def _add_multiples_log(out: list[int], base: int, lc: int, pairs, F: Field):
    """out[base + i] += g^(lc + l) for each (i, l) in ``pairs``, over an
    extension field with log tables, g its primitive element and lc, l in
    [0, q - 1): each step is one ``_exp`` lookup and an XOR (p = 2) or a
    Zech step (odd p), see ``fields``."""
    exp, log, zech = F._exp, F._log, F._zech
    if zech is None:
        for i, l in pairs:
            out[base + i] ^= exp[lc + l]
        return
    for i, l in pairs:
        t, s = lc + l, out[base + i]
        if s:
            u = log[s]
            out[base + i] = exp[u + zech[t - u]]
        else:
            out[base + i] = exp[t]


def _reduce(rem: list[int], div, F: Field, quo: list[int] | None = None):
    """Reduce ``rem`` modulo the nonzero ``div`` over F in place, leaving
    zeros from index deg(div) up; the quotient goes into ``quo`` when given.
    Over an extension field with log tables the logs of ``div`` are taken
    once per call."""
    if F.k == 1:
        _reduce_mod_p(rem, div, F.p, quo)
        return
    db = len(div) - 1
    exp, log = F._exp, F._log
    if exp is None:
        inv_lead = F.inv(div[-1])
        for shift in range(len(rem) - 1 - db, -1, -1):
            c = F.mul(rem[shift + db], inv_lead)
            if c:
                if quo is not None:
                    quo[shift] = c
                for i, bc in enumerate(div):
                    rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bc))
        return
    n = F.q - 1
    half = 0 if F.p == 2 else n // 2  # the log of -1
    lead = log[div[-1]] + half
    ldiv = [(i, log[c]) for i, c in enumerate(div[:-1]) if c]
    for shift in range(len(rem) - 1 - db, -1, -1):
        c = rem[shift + db]
        if c:
            rem[shift + db] = 0
            # the log of -c / lead, reduced so that adding a log stays below 2n
            lc = (log[c] - lead) % n
            if quo is not None:
                quo[shift] = exp[lc + half]
            _add_multiples_log(rem, shift, lc, ldiv, F)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._same_field(b)
    F = a.field
    return Poly(F, _euclid(list(a.coeffs), list(b.coeffs), _reduce, F)).monic()


def find_irreducible(p: int, k: int) -> Poly:
    """Smallest monic irreducible polynomial of degree k over F_p.

    Candidates are ordered by the integer value of their little-endian base-p
    coefficient vector; for k = 1 the marker polynomial x is returned.
    """
    return Poly(GF(p), find_irreducible_coeffs(p, k))


def roots_in_field(f: Poly) -> list[int]:
    """All roots of f in the ambient field, with multiplicity, by evaluation.

    Roots are reported in increasing element encoding, each repeated per its
    multiplicity (found by repeated division).
    """
    if f.is_zero():
        raise PflagsError("roots of the zero polynomial")
    F = f.field
    out = []
    for a in F.elements():
        if f.evaluate(a) == 0:
            lin = Poly(F, (F.neg(a), 1))
            g = f
            while True:
                q, r = divmod(g, lin)
                if not r.is_zero():
                    break
                out.append(a)
                g = q
    return out


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    F = f.field
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        cs = str(c) if F.k == 1 else str(F.coeffs(c))
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"{cs}*{xs}")
    return " + ".join(parts)
