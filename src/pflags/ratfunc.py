"""Reduced rational functions over a finite field.

Canonical form: gcd(num, den) = 1 and den monic, so equality is structural
and serialized values are stable.  The canonical form is restored after every
arithmetic operation.  The gcd is skipped only where the result is canonical
by construction: any pair with denominator 1 (among them the sum, difference
and product of two polynomials), the negation of any f, the derivative of a
polynomial, the inverse (only made monic), f^n for n >= 0 and x -> x^n: a
Bezout identity a num + b den = 1 survives powers and x -> x^n, and monic
stays monic.
"""

from __future__ import annotations

from .errors import PflagsError
from .fields import Field
from .poly import Poly, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        if num.field is not den.field:
            raise PflagsError("mixed-field rational function")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.one(num.field)
        elif not den.is_one():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            if not den.is_monic():
                c = num.field.inv(den.lc())
                num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair already in canonical form, without the gcd."""
        f = cls.__new__(cls)
        f.num = num
        f.den = den
        return f

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "RatFunc":
        return cls(Poly.zero(field))

    @classmethod
    def one(cls, field: Field) -> "RatFunc":
        return cls(Poly.one(field))

    @classmethod
    def x(cls, field: Field) -> "RatFunc":
        return cls(Poly.x(field))

    @classmethod
    def constant(cls, field: Field, c: int) -> "RatFunc":
        return cls(Poly.constant(field, c))

    # -- structure ----------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    # -- field operations -----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc._canonical(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc._canonical(self.num - other.num, self.den)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc._canonical(self.num * other.num, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        c = self.field.inv(self.num.lc())
        return RatFunc._canonical(self.den.scale(c), self.num.scale(c))

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc._canonical(self.num**n, self.den**n)

    # -- calculus and substitution ----------------------------------------------

    def derivative(self) -> "RatFunc":
        n, d = self.num, self.den
        if d.is_one():
            return RatFunc._canonical(n.derivative(), d)
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def compose_xpow(self, n: int) -> "RatFunc":
        """Substitute x -> x^n."""
        return RatFunc._canonical(self.num.compose_xpow(n), self.den.compose_xpow(n))

    def evaluate(self, a: int):
        dv = self.den.evaluate(a)
        if dv == 0:
            raise ZeroDivisionError("evaluation at a pole")
        F = self.field
        return F.mul(self.num.evaluate(a), F.inv(dv))

    def pole_order_at_zero(self) -> int:
        """Order of the pole at 0 (0 when regular); canonical form makes this
        the valuation of the denominator at 0."""
        if self.is_zero():
            return 0
        for i, c in enumerate(self.den.coeffs):
            if c:
                return i
        raise AssertionError("denominator is zero")  # unreachable


def sqrt_ratfunc(f: RatFunc) -> RatFunc | None:
    """A g with g*g = f, or None when f is not a square in F_q(x).

    Squarefree decomposition supplies the valuation parities of numerator and
    denominator; the leading coefficient is tested for squareness in F_q (in
    characteristic 2 every element is a square).
    """
    F = f.field
    if f.is_zero():
        return f
    lead = F.sqrt(f.num.lc())
    if lead is None:
        return None

    def monic_sqrt(g: Poly) -> Poly | None:
        root = Poly.one(F)
        for factor, mult in g.squarefree_decomposition():
            if mult % 2:
                return None
            root = root * factor ** (mult // 2)
        return root

    num_root = monic_sqrt(f.num)
    if num_root is None:
        return None
    den_root = monic_sqrt(f.den)
    if den_root is None:
        return None
    return RatFunc(num_root.scale(lead), den_root)


def in_frobenius_subfield(f: RatFunc, s: int) -> bool:
    """Whether f lies in F_q(x^{p^s}).

    The canonical form of an element of F_q(x^N) has num and den in
    F_q[x^N] (coprimality and a monic den survive x -> x^N), so f is in it
    exactly when every exponent of a nonzero coefficient of num and den is
    divisible by N = p^s.  Once a power of p exceeds the larger degree, only
    the exponent 0 is divisible by it or by any higher power, so the powers
    are formed only that far, whatever s is.
    """
    if s < 1:
        raise PflagsError("Frobenius level must be >= 1")
    top = max(f.num.degree, f.den.degree)
    p = n = f.field.p
    for _ in range(s - 1):
        if n > top:
            break
        n *= p
    return all(i % n == 0 for g in (f.num, f.den) for i, c in enumerate(g.coeffs) if c)
