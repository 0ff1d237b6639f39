"""Bundles and level-m differential modules on the projective line.

Everything lives in the split chart model: a bundle is a descending multiset
of summand degrees with transition matrix diag(x^{d_i}) between the two
standard charts, and a connection is d + A dx on the finite chart.  A level-m
object is stored through the level-shift equivalence as a level-0 connection
on the m-th Frobenius twist (coordinate y, pulled back via y -> x^{p^m});
divided-power operator actions are never materialized.

Validity of a chart matrix is decided by the pole orders at y = 0 of the
actual infinity-chart matrix, read off the terms its entries are built from,
which makes the entry-bound shape of valid matrices (zero diagonal,
A_{ji} != 0 only for d_j >= d_i + 2 with deg A_{ji} <= d_j - d_i - 2) a
testable consequence rather than an assumption.  The records are frozen
dataclasses and carry no derived state: ``validate`` recomputes the pole
orders on every call.  A's polynomial rows are already a cleared pair over
beta = 1: ``Conn0.matrix()`` hands them to ``matrix.MatRF.from_cleared`` as
they are, so the p-curvature (``matrix.p_curvature_matrix``) reads them with
no clearing, as the sections of ``cartier_descent`` do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, NeedsExtensionError, PreconditionError, PflagsError
from .fields import Field
from .matrix import (
    MatRF,
    _horizontal_sections,
    _kernel_core,
    p_curvature_matrix,
)
from .poly import Poly
from .ratfunc import RatFunc

PolyMat = tuple[tuple[Poly, ...], ...]

def _level_fits(p: int, m: int) -> bool:
    """Whether m >= 0 and p^m <= 2^16 (docs/formats.md); p^m is formed only for m <= 16."""
    return 0 <= m <= 16 and p**m <= 2**16


def _check_level(p: int, m: int):
    if not _level_fits(p, m):
        raise PreconditionError(f"level must be >= 0 with p^level <= 2^16, got {m} at p = {p}")


@dataclass(frozen=True)
class BundleP1:
    """A direct sum of line bundles, stored as descending degrees."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(sorted((int(d) for d in self.degrees), reverse=True))
        if not ds:
            raise PflagsError("bundle must have positive rank")
        object.__setattr__(self, "degrees", ds)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def __repr__(self):
        return f"O{self.degrees}"


@dataclass(frozen=True)
class Violation:
    """A pole at y = 0 in the infinity-chart matrix."""

    row: int
    col: int
    order: int

    def describe(self) -> str:
        return f"entry ({self.row + 1},{self.col + 1}) has a pole of order {self.order} at infinity"


@dataclass(frozen=True)
class Conn0:
    """A connection d + A dx on a split bundle, A an r x r matrix of polynomials."""

    field: Field
    bundle: BundleP1
    A: PolyMat

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.A)
        r = self.bundle.rank
        if len(rows) != r or any(len(row) != r for row in rows):
            raise PflagsError(f"matrix must be {r}x{r} to match the bundle rank")
        for row in rows:
            for e in row:
                if not isinstance(e, Poly) or e.field is not self.field:
                    raise PflagsError("entries must be polynomials over the connection field")
        object.__setattr__(self, "A", rows)

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.bundle.degrees

    def matrix(self) -> MatRF:
        """A as a ``MatRF``: its polynomial rows over beta = 1."""
        return MatRF.from_cleared(self.field, self.A, Poly.one(self.field))

    def __repr__(self):
        return f"Conn0({self.field!r}, {self.bundle!r})"


@dataclass(frozen=True)
class DmBundle:
    """A level-m object stored as a level-0 connection on the m-th twist.

    The represented bundle on the original curve has degrees p^m times the
    base degrees, and all level-m questions are answered through the base
    connection plus the substitution x -> x^{p^m}.
    """

    m: int
    base: Conn0

    def __post_init__(self):
        _check_level(self.base.field.p, self.m)

    @property
    def field(self) -> Field:
        return self.base.field

    def underlying_degrees(self) -> tuple[int, ...]:
        scale = self.field.p**self.m
        return tuple(d * scale for d in self.base.degrees)


@dataclass(frozen=True)
class FlagP1:
    """A complete coordinate flag: step j is the span of the first j permuted
    basis vectors."""

    perm: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise PflagsError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        object.__setattr__(self, "perm", perm)

    def steps(self):
        return [tuple(self.perm[:j]) for j in range(1, len(self.perm) + 1)]

    def __repr__(self):
        return f"FlagP1{self.perm}"


# -- existence of level-m structures ------------------------------------------------


def admits_level(b: BundleP1, p: int, m: int) -> bool:
    """Whether the split bundle carries a level-m module structure: every
    degree must be divisible by p^{m+1}."""
    if p < 2:
        raise PreconditionError(f"characteristic must be >= 2, got {p}")
    _check_level(p, m)
    q = p ** (m + 1)
    return all(d % q == 0 for d in b.degrees)


def canonical_connection(b: BundleP1, field: Field, m: int) -> DmBundle:
    """The canonical level-m structure on a bundle with p^{m+1} | degrees:
    base degrees d_i / p^m on the twist, base matrix zero."""
    p = field.p
    _check_level(p, m)
    q = p ** (m + 1)
    for d in b.degrees:
        if d % q:
            raise PreconditionError(
                f"degree {d} is not divisible by p^(m+1) = {q}; no level-{m} structure"
            )
    base_degs = tuple(d // p**m for d in b.degrees)
    zero = Poly.zero(field)
    r = b.rank
    base = Conn0(field, BundleP1(base_degs), [[zero] * r for _ in range(r)])
    return DmBundle(m, base)


# -- validity -----------------------------------------------------------------------


def _chart_terms(c: Conn0, j: int, i: int) -> list[tuple[int, tuple[int, ...]]]:
    """Entry (j, i) of the infinity-chart matrix is -(sum y^e f(y))/y^2 over
    these pairs (e, coefficients of f), each f with a nonzero constant term:
    y^(d_j - d_i - deg) rev(A_ji) and, on the diagonal, d_i y."""
    degs, a = c.degrees, c.A[j][i]
    terms = [] if a.is_zero() else [(degs[j] - degs[i] - a.degree, a.coeffs[::-1])]
    if i == j and degs[i] % c.field.p:
        terms.append((1, (c.field.scalar(degs[i]),)))
    return terms


def infinity_chart_matrix(c: Conn0) -> MatRF:
    """The connection matrix on the chart at infinity, in y = 1/x: -y^{-2}
    (diag(d_i x^{-1}) + G^{-1} A G) at x = 1/y, G = diag(x^{d_i}), whose entry
    (j, i) is -(y^{d_j - d_i} A_{ji}(1/y) + [i = j] d_i y) / y^2.  A_{ji}(1/y) is
    rev(A_{ji}) y^{-deg}, so an entry is one numerator over one power of y
    (``_chart_terms``), reduced once; a zero entry forms no power of y."""
    F = c.field
    rows = []
    for j in range(c.rank):
        row = []
        for i in range(c.rank):
            terms = _chart_terms(c, j, i)
            low = min([e - 2 for e, _ in terms] + [0])  # the denominator is y^-low
            num = sum((Poly(F, (0,) * (e - 2 - low) + cs) for e, cs in terms), Poly.zero(F))
            row.append(RatFunc(-num, Poly.monomial(F, 1, -low)))
        rows.append(row)
    return MatRF(F, rows)


def validate(c: Conn0) -> list[Violation]:
    """All infinity-chart poles of the connection; empty exactly when c is a
    genuine connection on the split bundle.  An entry's pole order is
    max(0, 2 - e), e the least exponent of its ``_chart_terms`` (they differ,
    -deg A_ii <= 0 < 1, so nothing cancels); no entry is built, so the cost
    does not depend on the degree gaps."""
    out = []
    for j in range(c.rank):
        for i in range(c.rank):
            order = max([2 - e for e, _ in _chart_terms(c, j, i)] + [0])
            if order > 0:
                out.append(Violation(j, i, order))
    return out


def structural_violations(c: Conn0) -> list[tuple[int, int]]:
    """Entry positions violating the derived shape of valid matrices; an
    implementation of validity independent of the infinity-chart computation,
    kept for cross-checking."""
    p = c.field.p
    degs = c.degrees
    bad = []
    for j in range(c.rank):
        for i in range(c.rank):
            a = c.A[j][i]
            if i == j:
                if degs[i] % p or not a.is_zero():
                    bad.append((j, i))
            elif not a.is_zero():
                gap = degs[j] - degs[i] - 2
                if gap < 0 or a.degree > gap:
                    bad.append((j, i))
    return bad


def ensure_valid(c: Conn0):
    violations = validate(c)
    if violations:
        detail = "; ".join(v.describe() for v in violations)
        raise PreconditionError(f"connection is not valid on the split bundle: {detail}")


# -- curvature ----------------------------------------------------------------------


def p_curvature(c: Conn0) -> MatRF:
    """Matrix of the p-th iterate of T(v) = v' + A v; on the standard chart
    the p-th symbol term vanishes, so this is the full obstruction.  A is
    polynomial, so ``c.matrix()`` hands its rows to ``p_curvature_matrix`` as
    they are, over beta = 1, as in ``cartier_descent``."""
    ensure_valid(c)
    return p_curvature_matrix(c.matrix())


def pm1_curvature(d: DmBundle) -> MatRF:
    """Level-m curvature of the represented object: the base p-curvature with
    x -> x^{p^m} substituted in every entry."""
    psi = p_curvature(d.base)
    if d.m == 0:
        return psi
    power = d.field.p**d.m
    return psi.map_entries(lambda e: e.compose_xpow(power))


def frobenius_pullback(d: DmBundle, s: int) -> DmBundle:
    """Pull back along s relative Frobenius steps: the base is unchanged, the
    level rises by s, underlying degrees multiply by p^s."""
    if s < 0:
        raise PreconditionError(f"pullback steps must be >= 0, got {s}")
    return DmBundle(d.m + s, d.base)


def as_level(c: Conn0, m: int = 0) -> DmBundle:
    return DmBundle(m, c)


# -- tensor and dual -----------------------------------------------------------------


def tensor(a: Conn0, b: Conn0) -> tuple[Conn0, tuple[int, ...]]:
    """Tensor product connection on the summed degrees.

    Returns the connection on the re-sorted degree multiset and the
    permutation used: position n of the output is pair index perm[n] in the
    lexicographic (i, k) enumeration of summand pairs.  The rank ra rb is
    capped at 2^10, since the n x n matrix is built whole (docs/formats.md).
    """
    if a.field is not b.field:
        raise PflagsError("tensor of connections over different fields")
    F = a.field
    ra, rb = a.rank, b.rank
    n = ra * rb
    if n > 2**10:
        raise PreconditionError(f"tensor rank must be <= 2^10 = 1024, got {n}")
    pair_degrees = [a.degrees[i] + b.degrees[k] for i in range(ra) for k in range(rb)]
    zero = Poly.zero(F)
    big = [[zero] * n for _ in range(n)]
    for j in range(ra):
        for i in range(ra):
            aji = a.A[j][i]
            if not aji.is_zero():
                for l in range(rb):
                    big[j * rb + l][i * rb + l] = big[j * rb + l][i * rb + l] + aji
    for l in range(rb):
        for k in range(rb):
            blk = b.A[l][k]
            if not blk.is_zero():
                for i in range(ra):
                    big[i * rb + l][i * rb + k] = big[i * rb + l][i * rb + k] + blk
    perm = _sorting_permutation(pair_degrees)
    newA = [[big[perm[u]][perm[v]] for v in range(n)] for u in range(n)]
    conn = Conn0(F, BundleP1([pair_degrees[t] for t in perm]), newA)
    return conn, perm


def dual(a: Conn0) -> tuple[Conn0, tuple[int, ...]]:
    """Dual connection: degrees negated and re-sorted, matrix -A^T conjugated
    by the sorting permutation (same permutation convention as tensor)."""
    F = a.field
    r = a.rank
    neg_degrees = [-d for d in a.degrees]
    negT = [[-a.A[v][u] for v in range(r)] for u in range(r)]
    perm = _sorting_permutation(neg_degrees)
    newA = [[negT[perm[u]][perm[v]] for v in range(r)] for u in range(r)]
    conn = Conn0(F, BundleP1([neg_degrees[t] for t in perm]), newA)
    return conn, perm


def _sorting_permutation(degrees) -> tuple[int, ...]:
    """Indices sorting degrees descending, stable within equal degrees."""
    return tuple(sorted(range(len(degrees)), key=lambda t: (-degrees[t], t)))


# -- Cartier descent -----------------------------------------------------------------


def cartier_descent(c: Conn0) -> tuple[BundleP1, MatRF]:
    """Descend a connection with vanishing p-curvature to the Frobenius twist.

    Returns the descended degrees (d_i / p) and an invertible frame whose
    columns are horizontal; horizontality and invertibility are re-verified.
    The horizontal sections number the rank exactly when the p-curvature
    vanishes (Cartier), so a short basis means nothing descends.  A is
    polynomial, so its rows go to the sections as they are, over beta = 1.
    Each section comes as its cleared pair (w, P(x^p)), and the w columns are
    the frame's columns scaled by P(x^p): the frame is invertible exactly when
    they are independent, which ``_kernel_core`` tests on them before any
    section is reduced.
    """
    ensure_valid(c)
    sols = _horizontal_sections(c.A, Poly.one(c.field))
    if len(sols) != c.rank:
        raise PreconditionError("p-curvature does not vanish; nothing descends")
    if _kernel_core(list(zip(*(w for w, _ in sols)))):
        raise NeedsExtensionError("horizontal sections do not form a frame")
    cols = [[RatFunc(e, den) for e in w] for w, den in sols]
    frame = MatRF(c.field, zip(*cols))
    descended = BundleP1(d // c.field.p for d in c.degrees)
    return descended, frame


# -- complete flags ------------------------------------------------------------------


def verify_flag(c: Conn0, flag: FlagP1) -> bool:
    """Whether every prefix span of the flag is stable under the connection.

    Coordinate spans of the split model are subbundles outright, so stability
    of each step is the whole condition: A may not map a chosen summand to an
    unchosen one.
    """
    if len(flag.perm) != c.rank:
        raise PreconditionError("flag size does not match the connection rank")
    chosen: set[int] = set()
    for s in flag.perm:
        chosen.add(s)
        for i in range(c.rank):
            if i in chosen:
                continue
            for col in chosen:
                if not c.A[i][col].is_zero():
                    return False
    return True


def complete_flag(obj: Conn0 | DmBundle) -> FlagP1:
    """A complete flag of subbundles stable under the connection.

    Level m > 0 reduces to the base connection on the twist, which carries the
    same flag.  At level 0 the permutation sorting degrees descending (stable
    within ties) works: a valid matrix only maps summands to strictly higher
    degree, so every descending prefix is stable.  The result is re-verified.
    """
    if isinstance(obj, DmBundle):
        return complete_flag(obj.base)
    ensure_valid(obj)
    perm = _sorting_permutation(obj.degrees)
    flag = FlagP1(perm)
    if not verify_flag(obj, flag):
        raise InternalInvariantError("constructed flag failed stability verification")
    return flag
