"""Seeded random generators for property suites.

Shared by the pytest suite and the CLI selftest so both exercise the same
distributions; every generator takes an explicit ``random.Random``.
"""

from __future__ import annotations

import random

from .elliptic import AtiyahAtom, Pic0Group
from .errors import PflagsError
from .fields import Field
from .hitchin import ChartConn
from .matrix import MatRF, gauge_transform, inverse
from .poly import Poly
from .pone import BundleP1, Conn0
from .ratfunc import RatFunc


def random_poly(rng: random.Random, field: Field, max_deg: int, nonzero: bool = False) -> Poly:
    if max_deg < 0:
        return Poly.zero(field)
    while True:
        deg = rng.randint(-1, max_deg)
        if deg < 0:
            f = Poly.zero(field)
        else:
            coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
            f = Poly(field, coeffs)
        if not (nonzero and f.is_zero()):
            return f


def random_ratfunc(rng: random.Random, field: Field, num_deg: int = 3, den_deg: int = 2) -> RatFunc:
    num = random_poly(rng, field, num_deg)
    den = random_poly(rng, field, rng.randint(0, den_deg), nonzero=True)
    return RatFunc(num, den)


def random_level_degrees(rng: random.Random, p: int, r: int, spread: int = 3) -> tuple[int, ...]:
    """Descending degrees divisible by p, suitable for a valid level-0 matrix."""
    return tuple(sorted((p * rng.randint(-spread, spread) for _ in range(r)), reverse=True))


def random_conn0(rng: random.Random, field: Field, r_max: int = 4, spread: int = 3,
                 r: int | None = None) -> Conn0:
    """A uniformly shaped valid connection: degrees divisible by p, entries
    random within the regular range (zero diagonal, target degree at least two
    above the source, entry degree within the gap)."""
    p = field.p
    if r is None:
        r = rng.randint(1, r_max)
    degs = random_level_degrees(rng, p, r, spread)
    zero = Poly.zero(field)
    rows = [[zero] * r for _ in range(r)]
    for j in range(r):
        for i in range(r):
            gap = degs[j] - degs[i] - 2
            if i != j and gap >= 0 and rng.random() < 0.7:
                rows[j][i] = random_poly(rng, field, gap)
    return Conn0(field, BundleP1(degs), rows)


def random_bundle_automorphism(rng: random.Random, field: Field, degrees) -> MatRF:
    """An automorphism of the split bundle: block upper triangular w.r.t. the
    descending degrees, constant invertible diagonal blocks, polynomial
    entries of degree <= d_j - d_i above; the inverse is polynomial."""
    r = len(degrees)
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    while True:
        rows = [[zero] * r for _ in range(r)]
        for j in range(r):
            for i in range(r):
                gap = degrees[j] - degrees[i]
                if gap > 0:
                    if rng.random() < 0.7:
                        rows[j][i] = RatFunc(random_poly(rng, field, gap))
                elif gap == 0:
                    c = rng.randrange(field.q) if i != j else rng.randrange(1, field.q)
                    rows[j][i] = RatFunc.constant(field, c) if c else zero
        g = MatRF(field, rows)
        try:
            inverse(g)
            return g
        except PflagsError:  # singular: draw again
            continue


def random_flat_conn0(rng: random.Random, field: Field, r_max: int = 4, spread: int = 2,
                      r: int | None = None) -> Conn0:
    """A valid connection with vanishing p-curvature: the canonical connection
    gauged by a random bundle automorphism."""
    p = field.p
    if r is None:
        r = rng.randint(1, r_max)
    degs = random_level_degrees(rng, p, r, spread)
    u = random_bundle_automorphism(rng, field, degs)
    a = gauge_transform(MatRF.zeros(field, r), u)
    rows = [[e.num if e.den.is_one() else None for e in row] for row in a.rows]
    if any(e is None for row in rows for e in row):
        raise AssertionError("automorphism gauge produced non-polynomial entries")
    return Conn0(field, BundleP1(degs), rows)


def random_chart_conn(rng: random.Random, field: Field, r_max: int = 3,
                      num_deg: int = 3, den_deg: int = 2, r: int | None = None) -> ChartConn:
    if r is None:
        r = rng.randint(1, r_max)
    rows = [[random_ratfunc(rng, field, num_deg, den_deg) for _ in range(r)] for _ in range(r)]
    return ChartConn(field, r, MatRF(field, rows))


def random_polynomial_gauge(rng: random.Random, field: Field, r: int, deg: int = 2) -> MatRF:
    """An invertible matrix with polynomial entries and constant determinant:
    a product of elementary shears and an invertible constant diagonal."""
    g = MatRF.identity(field, r)
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    diag = [[RatFunc.constant(field, rng.randrange(1, field.q)) if i == j else zero
             for j in range(r)] for i in range(r)]
    g = g * MatRF(field, diag)
    for _ in range(rng.randint(1, 2 * r)):
        i = rng.randrange(r)
        j = rng.randrange(r)
        if i == j:
            continue
        shear = [[one if s == t else zero for t in range(r)] for s in range(r)]
        shear[i][j] = RatFunc(random_poly(rng, field, deg))
        g = g * MatRF(field, shear)
    return g


def random_strict_upper(rng: random.Random, field: Field, r: int, deg: int = 2) -> MatRF:
    zero = RatFunc.zero(field)
    rows = [[zero] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.8:
                rows[i][j] = RatFunc(random_poly(rng, field, deg))
    return MatRF(field, rows)


def random_atom(rng: random.Random, group: Pic0Group, r_max: int = 6, d_bound: int = 12) -> AtiyahAtom:
    lam = tuple(rng.randrange(n) for n in group.factors)
    return AtiyahAtom(group, rng.randint(1, r_max), rng.randint(-d_bound, d_bound), lam)
