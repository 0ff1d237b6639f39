"""Property suites behind the acceptance criteria and the CLI selftest.

Each check runs a seeded or exhaustive sweep and returns a PropertyResult
named by its ``_suite`` decorator, which registers it; every comparison is
exact (the library computes over finite fields, so there are no tolerances to
tune).  The pytest acceptance module runs these at their full sizes; the CLI
selftest runs reduced sizes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from . import elliptic, hitchin, pone, sampling
from .elliptic import AtiyahAtom, Pic0Group
from .errors import PreconditionError
from .fields import GF
from .hitchin import ChartConn, Verdict
from .matrix import (
    MatRF,
    charpoly_berkowitz,
    gauge_transform,
    inverse,
    is_nilpotent,
    kernel,
)
from .poly import Poly
from .pone import BundleP1
from .ratfunc import RatFunc, in_frobenius_subfield, sqrt_ratfunc


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {self.checked} checks{tail}"


# A check's outcome before its suite names it: (passed, checks run, detail).
Outcome = tuple[bool, int, str]

# (suite name, check, fast-suite sizes, whether it takes a seed), in definition order.
SUITES: list[tuple[str, Callable[..., PropertyResult], dict, bool]] = []


def _suite(name: str, **fast):
    """Register the check as the suite ``name``, run by ``run_fast_suite`` at
    the sizes ``fast`` (and a seed, when its signature takes one); the
    registered function keeps that signature and returns the check's
    ``Outcome`` as a PropertyResult."""
    def register(check: Callable[..., Outcome]) -> Callable[..., PropertyResult]:
        @functools.wraps(check)
        def run(*args, **kwargs) -> PropertyResult:
            return PropertyResult(name, *check(*args, **kwargs))
        SUITES.append((name, run, fast, "seed" in inspect.signature(check).parameters))
        return run
    return register


def _fail(checked: int, detail: str) -> Outcome:
    return False, checked, detail


def _passed(checked: int) -> Outcome:
    return True, checked, ""


# -- algebra ---------------------------------------------------------------------


@_suite("algebra/ratfunc-exactness", n=40)
def check_ratfunc_field_axioms(seed: int = 0, n: int = 200) -> Outcome:
    """Exact arithmetic: (f + g) - g = f and canonical products commute."""
    rng = random.Random(seed)
    for t in range(n):
        F = GF(rng.choice([2, 3, 5]), rng.choice([1, 1, 2]))
        f = sampling.random_ratfunc(rng, F)
        g = sampling.random_ratfunc(rng, F)
        if (f + g) - g != f or f * g != g * f:
            return _fail(t, f"failed at trial {t} over {F!r}")
        if not g.is_zero() and (f / g) * g != f:
            return _fail(t, f"division failed at trial {t}")
    return _passed(n)


@_suite("algebra/derivation-leibniz", n=40)
def check_derivation_rule(seed: int = 1, n: int = 200) -> Outcome:
    """(fg)' = f'g + fg' for random rational functions."""
    rng = random.Random(seed)
    for t in range(n):
        F = GF(rng.choice([2, 3, 5]))
        f = sampling.random_ratfunc(rng, F)
        g = sampling.random_ratfunc(rng, F)
        if (f * g).derivative() != f.derivative() * g + f * g.derivative():
            return _fail(t, f"failed at trial {t}")
    return _passed(n)


def _tpoly_mul(a: list[RatFunc], b: list[RatFunc], field) -> list[RatFunc]:
    out = [RatFunc.zero(field)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _tpoly_det(mat: list[list[list[RatFunc]]], field) -> list[RatFunc]:
    """Cofactor determinant of a matrix of t-polynomials (the oracle for the
    division-free characteristic polynomial)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc: list[RatFunc] = [RatFunc.zero(field)]
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = _tpoly_mul(mat[0][j], _tpoly_det(minor, field), field)
        if j % 2:
            term = [-c for c in term]
        width = max(len(acc), len(term))
        acc = acc + [RatFunc.zero(field)] * (width - len(acc))
        for i, c in enumerate(term):
            acc[i] = acc[i] + c
    return acc


def charpoly_cofactor(m: MatRF) -> list[RatFunc]:
    """det(t - M) by cofactor expansion, ascending with the leading 1."""
    F = m.field
    one, zero = RatFunc.one(F), RatFunc.zero(F)
    return _tpoly_det([[[-e, one if i == j else zero] for j, e in enumerate(row)]
                       for i, row in enumerate(m.rows)], F)


@_suite("algebra/charpoly-vs-cofactor", n=20)
def check_berkowitz_vs_cofactor(seed: int = 2, n: int = 100) -> Outcome:
    """charpoly agrees with det(tI - M) by cofactor expansion, sizes <= 3."""
    rng = random.Random(seed)
    for t in range(n):
        F = GF(3)
        r = rng.randint(1, 3)
        m = MatRF(F, [[RatFunc(sampling.random_poly(rng, F, 2)) for _ in range(r)]
                      for _ in range(r)])
        if charpoly_berkowitz(m) != charpoly_cofactor(m):
            return _fail(t, f"mismatch at trial {t}")
    return _passed(n)


@_suite("algebra/sqrt-roundtrip", n=40)
def check_sqrt_roundtrip(seed: int = 3, n: int = 150) -> Outcome:
    """sqrt(f^2) squares back to f^2; verified non-squares return None."""
    rng = random.Random(seed)
    for t in range(n):
        F = GF(rng.choice([2, 3, 5]))
        f = sampling.random_ratfunc(rng, F)
        sq = f * f
        root = sqrt_ratfunc(sq)
        if root is None or root * root != sq:
            return _fail(t, f"square root of a square failed at trial {t}")
        if F.p != 2 and not f.is_zero():
            # multiply by a non-square constant to build a certified non-square
            c = next(a for a in range(1, F.q) if not F.is_square(a))
            bad = sq * RatFunc.constant(F, c)
            if sqrt_ratfunc(bad) is not None:
                return _fail(t, f"non-square accepted at trial {t}")
    return _passed(n)


@_suite("algebra/frobenius-membership", n=40)
def check_frobenius_membership(seed: int = 4, n: int = 150) -> Outcome:
    """f(x^p) always passes the level-1 membership test; x never does."""
    rng = random.Random(seed)
    for t in range(n):
        F = GF(rng.choice([2, 3, 5]))
        f = sampling.random_ratfunc(rng, F)
        if not in_frobenius_subfield(f.compose_xpow(F.p), 1):
            return _fail(t, f"f(x^p) rejected at trial {t}")
        if not in_frobenius_subfield(f.compose_xpow(F.p * F.p), 2):
            return _fail(t, f"f(x^(p^2)) rejected at level 2, trial {t}")
        if in_frobenius_subfield(RatFunc.x(F), 1):
            return _fail(t, "x accepted as a p-th power")
    return _passed(n)


# -- projective line ------------------------------------------------------------------


@_suite("pone/prop6-equivalence", r_max=3, bound=8)
def check_prop6_equivalence(ps=(2, 3), r_max: int = 4, ms=(0, 1),
                            bound: int | None = None) -> Outcome:
    """Level-m structures exist exactly when p^{m+1} divides every degree;
    in that case the canonical structure has vanishing level curvature, and
    otherwise construction fails.  Exhaustive over degree multisets."""
    checked = 0
    for p in ps:
        field = GF(p)
        b = bound if bound is not None else 2 * p * p
        values = range(-b, b + 1)
        for r in range(1, r_max + 1):
            for combo in itertools.combinations_with_replacement(values, r):
                bundle = BundleP1(combo)
                for m in ms:
                    q = p ** (m + 1)
                    expected = all(d % q == 0 for d in combo)
                    checked += 1
                    if pone.admits_level(bundle, p, m) != expected:
                        return _fail(checked, f"admits_level wrong on {combo}, p={p}, m={m}")
                    if expected:
                        dm = pone.canonical_connection(bundle, field, m)
                        if not pone.pm1_curvature(dm).is_zero():
                            return _fail(checked,
                                         f"canonical curvature nonzero on {combo}, p={p}, m={m}")
                    else:
                        try:
                            pone.canonical_connection(bundle, field, m)
                            return _fail(checked,
                                         f"canonical_connection accepted {combo}, p={p}, m={m}")
                        except PreconditionError:
                            pass
    return _passed(checked)


@_suite("pone/complete-flags", n=60)
def check_p1_flags(seed: int = 5, n: int = 500) -> Outcome:
    """Every valid split connection has a verifiable complete flag and
    exactly nilpotent p-curvature."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_conn0(rng, field, r_max=4)
        flag = pone.complete_flag(c)
        if not pone.verify_flag(c, flag):
            return _fail(t, f"flag not stable at trial {t}")
        if not is_nilpotent(pone.p_curvature(c)):
            return _fail(t, f"p-curvature not nilpotent at trial {t}")
    return _passed(n)


@_suite("pone/cartier-roundtrip", n=15)
def check_cartier_roundtrip(seed: int = 6, n: int = 100) -> Outcome:
    """Descend a flat connection, pull the canonical structure back, gauge by
    the horizontal frame: the chart matrix returns entrywise."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_flat_conn0(rng, field, r_max=3)
        descended, frame = pone.cartier_descent(c)
        if descended.degrees != tuple(d // field.p for d in c.degrees):
            return _fail(t, f"descended degrees wrong at trial {t}")
        pulled = pone.canonical_connection(
            BundleP1(d * field.p for d in descended.degrees), field, 0)
        recovered = gauge_transform(pulled.base.matrix(), inverse(frame))
        if recovered != c.matrix():
            return _fail(t, f"gauge of pullback differs at trial {t}")
    return _passed(n)


@_suite("pone/pullback-curvature", n=25)
def check_level_shift_curvature(seed: int = 7, n: int = 100) -> Outcome:
    """Pullback commutes with curvature: the level-(m+s) curvature equals the
    x -> x^{p^s} substitution of the level-m curvature."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        base = sampling.random_conn0(rng, field, r_max=3, spread=2)
        d = pone.DmBundle(rng.randint(0, 1), base)
        s = rng.choice([1, 2])
        lhs = pone.pm1_curvature(pone.frobenius_pullback(d, s))
        rhs = pone.pm1_curvature(d).map_entries(lambda e: e.compose_xpow(field.p**s))
        if lhs != rhs:
            return _fail(t, f"substitution law failed at trial {t}")
    return _passed(n)


@_suite("pone/validator-equivalence", n=80)
def check_validator_equivalence(seed: int = 8, n: int = 500) -> Outcome:
    """The infinity-chart pole computation flags exactly the entries outside
    the derived structural bounds, on random matrices valid or not."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        r = rng.randint(1, 3)
        degs = tuple(sorted((rng.randint(-4, 6) for _ in range(r)), reverse=True))
        rows = [[sampling.random_poly(rng, field, rng.randint(-1, 4)) for _ in range(r)]
                for _ in range(r)]
        c = pone.Conn0(field, BundleP1(degs), rows)
        poles = {(v.row, v.col) for v in pone.validate(c)}
        bounds = set(pone.structural_violations(c))
        if poles != bounds:
            return _fail(t, f"{degs}: poles {poles} vs bounds {bounds}")
    return _passed(n)


@_suite("pone/tensor-dual", n=25)
def check_tensor_dual(seed: int = 9, n: int = 100) -> Outcome:
    """Tensor and dual of valid connections validate; the dual is involutive
    up to the recorded permutation."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        a = sampling.random_conn0(rng, field, r_max=2, spread=2)
        b = sampling.random_conn0(rng, field, r_max=2, spread=2)
        tens, _ = pone.tensor(a, b)
        if pone.validate(tens):
            return _fail(t, f"tensor invalid at trial {t}")
        da, _ = pone.dual(a)
        if pone.validate(da):
            return _fail(t, f"dual invalid at trial {t}")
        dda, _ = pone.dual(da)
        if dda != a:
            return _fail(t, f"double dual differs at trial {t}")
    return _passed(n)


@_suite("pone/psi-linearity", n=25)
def check_psi_linearity(seed: int = 10, n: int = 100) -> Outcome:
    """T^p is linear over the function field: T^p(f v) = f T^p(v)."""
    rng = random.Random(seed)
    from .matrix import apply_connection

    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_conn0(rng, field, r_max=3, spread=2)
        a = c.matrix()
        f = sampling.random_ratfunc(rng, field, 2, 1)
        v = tuple(RatFunc(sampling.random_poly(rng, field, 2)) for _ in range(c.rank))
        lhs = tuple(f * e for e in v)
        rhs = v
        for _ in range(field.p):
            lhs = apply_connection(a, lhs)
            rhs = apply_connection(a, rhs)
        if lhs != tuple(f * e for e in rhs):
            return _fail(t, f"linearity failed at trial {t}")
    return _passed(n)


# -- elliptic -----------------------------------------------------------------------


@_suite("elliptic/atiyah-recursion", r_max=15, d_bound=25)
def check_atiyah_recursion(r_max: int = 40, d_bound: int = 60) -> Outcome:
    """Exhaustive recursion sweep: termination, gcd invariance, rank and
    degree conservation, plus the two hand-derived profiles."""
    checked = 0
    for r in range(1, r_max + 1):
        for d in range(-d_bound, d_bound + 1):
            pr = elliptic.atiyah_profile(r, d)
            checked += 1
            h = math.gcd(r, abs(d))
            if pr.h != h or any(math.gcd(rj, abs(dj)) != h for rj, dj in pr.pairs):
                return _fail(checked, f"gcd invariance failed at ({r}, {d})")
            ranks = [rj for rj, _ in pr.pairs]
            if any(b >= a for a, b in zip(ranks, ranks[1:])):
                return _fail(checked, f"ranks not strictly decreasing at ({r}, {d})")
            if sum(pr.gr_ranks) != r:
                return _fail(checked, f"rank sum failed at ({r}, {d})")
            if sum(g * l for g, l in zip(pr.gr_ranks, pr.deg_l)) != d:
                return _fail(checked, f"degree sum failed at ({r}, {d})")
            if pr.ell != pr.m + pr.pairs[-1][0]:
                return _fail(checked, f"length bookkeeping failed at ({r}, {d})")
    p53 = elliptic.atiyah_profile(5, 3)
    if (p53.deg_l, p53.m, p53.ell, p53.gr_ranks) != ((0, 1, 2), 2, 3, (3, 1, 1)):
        return _fail(checked, "profile (5,3) mismatch")
    p32 = elliptic.atiyah_profile(3, 2)
    if (p32.deg_l, p32.m, p32.gr_ranks) != ((0, 2), 1, (2, 1)):
        return _fail(checked, "profile (3,2) mismatch")
    return _passed(checked)


@_suite("elliptic/existence-criterion")
def check_existence_criterion() -> Outcome:
    """Connection existence on the pinned instances, and the skeleton failing
    exactly when existence fails."""
    group = Pic0Group((4,))
    lam = (1,)
    checked = 0
    if elliptic.admits_connection(AtiyahAtom(group, 5, 3, lam), 3):
        return _fail(checked, "(5,3) admits a connection mod 3")
    if not elliptic.admits_connection(AtiyahAtom(group, 3, 2, lam), 2):
        return _fail(checked, "(3,2) rejected mod 2")
    for p in (2, 3, 5):
        for r in range(1, 11):
            checked += 1
            if not elliptic.admits_connection(AtiyahAtom(group, r, 0, lam), p):
                return _fail(checked, f"degree-0 atom rejected at r={r}, p={p}")
    rng = random.Random(11)
    for t in range(200):
        atoms = [sampling.random_atom(rng, group) for _ in range(rng.randint(1, 3))]
        p = rng.choice([2, 3, 5])
        checked += 1
        if elliptic.admits_connection(atoms, p):
            sk = elliptic.flag_skeleton(atoms, p)
            if sk.total_rank != sum(a.r for a in atoms):
                return _fail(checked, f"skeleton rank mismatch at trial {t}")
            if sk.total_degree != sum(a.d for a in atoms):
                return _fail(checked, f"skeleton degree mismatch at trial {t}")
        else:
            try:
                elliptic.flag_skeleton(atoms, p)
                return _fail(checked, f"skeleton built without a connection at trial {t}")
            except PreconditionError:
                pass
    return _passed(checked)


@_suite("elliptic/hom-peel", n=50)
def check_hom_and_peel(seed: int = 12, n: int = 200) -> Outcome:
    """hom_constraint is reflexive-preserving; peel_order is deterministic and
    degree-sorted with the zero-torsion class leading its degree."""
    rng = random.Random(seed)
    group = Pic0Group((2, 3))
    for t in range(n):
        atom = sampling.random_atom(rng, group)
        if elliptic.hom_constraint(atom, atom) != elliptic.HomConstraint.PRESERVES_FIL1:
            return _fail(t, f"reflexivity failed on {atom!r}")
        atoms = [sampling.random_atom(rng, group) for _ in range(rng.randint(1, 4))]
        order = elliptic.peel_order(atoms)
        if order != elliptic.peel_order(list(reversed(atoms))):
            return _fail(t, "peel order depends on input order")
        degs = [c.degree for c in order]
        if degs != sorted(degs, reverse=True):
            return _fail(t, "peel order not degree-descending")
        for d in set(degs):
            block = [c for c in order if c.degree == d]
            zeros = [c for c in block if c.is_multiple_of_origin()]
            if zeros and block[0] != zeros[0]:
                return _fail(t, "zero-torsion class not first in its degree")
    return _passed(n)


# -- hyperbolic chart ------------------------------------------------------------------


@_suite("hitchin/charpoly-descent", n=30, gauges=10)
def check_charpoly_descent(seed: int = 13, n: int = 300, gauges: int = 50) -> Outcome:
    """Every characteristic-polynomial coefficient of a chart p-curvature lies
    in F_q(x^p), and the polynomial is invariant under polynomial gauges."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_chart_conn(rng, field, r_max=3)
        cp = hitchin.char_poly_psi(c)
        if not cp.descent_ok:
            return _fail(t, f"coefficient outside the twist at trial {t}")
    for t in range(gauges):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_chart_conn(rng, field, r_max=2, num_deg=2, den_deg=1)
        g = sampling.random_polynomial_gauge(rng, field, c.r)
        gauged = ChartConn(field, c.r, gauge_transform(c.A, g))
        psi_c = hitchin.p_curvature_chart(c)
        psi_g = hitchin.p_curvature_chart(gauged)
        if psi_g != inverse(g) * psi_c * g:
            return _fail(n + t, f"psi not gauge-covariant at gauge trial {t}")
        if charpoly_berkowitz(psi_c) != charpoly_berkowitz(psi_g):
            return _fail(n + t, f"charpoly not gauge-invariant at gauge trial {t}")
    return _passed(n + gauges)


@_suite("hitchin/dimension-count")
def check_dimension_count() -> Outcome:
    """The candidate-space dimension count and its pinned instances."""
    checked = 0
    for g in range(2, 7):
        for r in range(1, 6):
            dims = hitchin.hitchin_dims(g, r)
            checked += 1
            if dims.dim_b != g + (r * r - 1) * (g - 1) or dims.dim_d != r * g:
                return _fail(checked, f"formula mismatch at (g={g}, r={r})")
            if dims.gamma_nondominant != (dims.dim_b > dims.dim_d):
                return _fail(checked, f"dominance flag wrong at (g={g}, r={r})")
            if r >= 2 and not dims.gamma_nondominant:
                return _fail(checked, f"rank >= 2 should be non-dominant at (g={g}, r={r})")
    if hitchin.hitchin_dims(2, 2) != hitchin.HitchinDims(5, 4, True):
        return _fail(checked, "(2,2) count mismatch")
    if hitchin.hitchin_dims(2, 1) != hitchin.HitchinDims(2, 2, False):
        return _fail(checked, "(2,1) count mismatch")
    return _passed(checked)


@_suite("hitchin/no-flag-certificate", n=30)
def check_certificates(seed: int = 14, n: int = 200) -> Outcome:
    """The pinned hyperbolic fixture is certified with no eigenline over the
    ambient field; embedded split connections are never certified and always
    carry flags."""
    f3 = GF(3)
    z, o, x = RatFunc.zero(f3), RatFunc.one(f3), RatFunc.x(f3)
    fixture = ChartConn(f3, 2, MatRF(f3, [[z, o], [x, z]]))
    cert = hitchin.no_flag_certificate_rank2(fixture)
    if cert.verdict != Verdict.CERTIFIED:
        return _fail(1, "hyperbolic fixture not certified")
    expected_char = RatFunc(Poly(f3, (2, 0, 0, 2)))  # t^2 - (x+1)^3
    if cert.char.coeffs[0] != expected_char or not cert.char.coeffs[1].is_zero():
        return _fail(1, "fixture characteristic polynomial mismatch")
    psi = hitchin.p_curvature_chart(fixture)
    for a in f3.elements():
        shifted = psi - MatRF.identity(f3, 2).scale(RatFunc.constant(f3, a))
        if not charpoly_berkowitz(shifted)[0].is_zero():
            continue
        if kernel(shifted):
            return _fail(1, f"certified fixture has eigenline for {a}")
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        c = sampling.random_conn0(rng, field, r_max=2, r=2)
        cert = hitchin.no_flag_certificate_rank2(ChartConn.from_conn0(c))
        if cert.verdict == Verdict.CERTIFIED:
            return _fail(t, f"split connection certified at trial {t}")
        if not pone.verify_flag(c, pone.complete_flag(c)):
            return _fail(t, f"split connection lost its flag at trial {t}")
    return _passed(n + 1)


@_suite("hitchin/nilpotent-flags", n=15)
def check_nilpotent_flag_algorithm(seed: int = 15, n: int = 100) -> Outcome:
    """Triangularization succeeds on conjugates of strict upper triangular
    connections, with an exactly triangular transformed matrix and vanishing
    scalar curvature on the diagonal; the certified fixture is rejected."""
    rng = random.Random(seed)
    for t in range(n):
        field = GF(rng.choice([2, 3, 5]))
        r = rng.randint(2, 3)
        upper = sampling.random_strict_upper(rng, field, r)
        g = sampling.random_polynomial_gauge(rng, field, r)
        conn = ChartConn(field, r, gauge_transform(upper, g))
        result = hitchin.nilpotent_flag_chart(conn)
        transformed = gauge_transform(conn.A, result.gauge)
        for i in range(r):
            for j in range(i):
                if not transformed.rows[i][j].is_zero():
                    return _fail(t, f"not triangular at trial {t}")
            diag = transformed.rows[i][i]
            scalar = diag
            for _ in range(field.p - 1):
                scalar = scalar.derivative()
            if not (scalar + diag**field.p).is_zero():
                return _fail(t, f"diagonal scalar curvature nonzero at trial {t}")
    f3 = GF(3)
    z, o, x = RatFunc.zero(f3), RatFunc.one(f3), RatFunc.x(f3)
    fixture = ChartConn(f3, 2, MatRF(f3, [[z, o], [x, z]]))
    try:
        hitchin.nilpotent_flag_chart(fixture)
        return _fail(n, "certified fixture was not rejected")
    except PreconditionError:
        pass
    return _passed(n + 1)


def run_fast_suite(seed: int = 0, name_filter: str = "") -> list[PropertyResult]:
    """The reduced-size suite behind the CLI selftest: the suites whose name
    contains ``name_filter``, in ``SUITES`` order, the i-th seeded at seed + i."""
    out = []
    for idx, (name, check, sizes, seeded) in enumerate(SUITES):
        if name_filter in name:
            out.append(check(**sizes, seed=seed + idx) if seeded else check(**sizes))
    return out
