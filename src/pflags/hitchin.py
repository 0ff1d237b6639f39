"""Chart-level p-curvature laboratory for the hyperbolic regime.

A connection here is just d + A dx on a trivialized affine chart, with A an
arbitrary matrix over F_q(x); no global geometry is imposed.  The module
computes characteristic polynomials of p-curvature and their descent to the
twist, the dimension count showing split characteristic polynomials are rare,
rank-2 certificates that no stable line exists in the chart, and the
triangularization algorithm for nilpotent p-curvature.

A chart is a frozen record of (field, r, A), and every operation reads A's
cleared pair (B, beta), A = B/beta, kept by the ``MatRF`` itself
(``MatRF.cleared``).  A parsed chart's A comes from ``jsonio.matrix_from_json``,
which forms the pair without reducing an entry; an A built from rows clears
them on first use.  psi comes from ``matrix.p_curvature_matrix`` as its pair
(N, beta^p), and ``char_poly_psi`` is Berkowitz on it; only
``nilpotent_flag_chart`` calls ``matrix._p_curvature`` itself, for the
iterates its sections reuse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InternalInvariantError, PflagsError, PreconditionError
from .fields import Field
from .matrix import (
    MatRF,
    _berkowitz,
    _clear_denominators,
    _horizontal_sections,
    _p_curvature,
    _primitive,
    charpoly_berkowitz,
    p_curvature_matrix,
)
from .poly import Poly, poly_dot
from .ratfunc import RatFunc, in_frobenius_subfield, sqrt_ratfunc


@dataclass(frozen=True)
class ChartConn:
    """d + A dx on a trivialized chart; A is a ``MatRF`` over the field.

    Every operation reads A's cleared pair (B, beta), A = B/beta
    (``MatRF.cleared``): a parsed chart (``jsonio.chart_from_json``) carries
    it, and a chart built from rows clears A on first use, never here.
    """

    field: Field
    r: int
    A: MatRF

    def __post_init__(self):
        if self.A.n != self.r or self.A.field is not self.field:
            raise PflagsError("chart matrix shape or field mismatch")

    @classmethod
    def from_conn0(cls, c) -> "ChartConn":
        """Embed a split-model connection on the projective line by forgetting
        the chart at infinity."""
        return cls(c.field, c.rank, c.matrix())


@dataclass(frozen=True)
class CharPolyP:
    """Non-leading coefficients of det(t - psi) plus the twist-descent flag."""

    coeffs: tuple[RatFunc, ...]
    descent_ok: bool

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def full(self) -> list[RatFunc]:
        """Ascending coefficients including the leading 1."""
        field = self.coeffs[0].field
        return list(self.coeffs) + [RatFunc.one(field)]


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NoFlagCertificate:
    verdict: Verdict
    char: CharPolyP
    witness: RatFunc | None = None
    reason: str = ""


@dataclass(frozen=True)
class HitchinDims:
    dim_b: int
    dim_d: int
    gamma_nondominant: bool


@dataclass(frozen=True)
class NilpotentFlag:
    """Gauge matrix whose columns triangularize the connection; the flag steps
    are the spans of the leading columns, so the permutation is the identity."""

    gauge: MatRF
    perm: tuple[int, ...]


def p_curvature_chart(c: ChartConn) -> MatRF:
    """The p-curvature matrix T^p on the chart, T(v) = v' + A v; like every
    psi ``matrix`` returns, it is re-verified there (O-linearity and
    T^p(v) = psi v on a sample section) before it is returned."""
    return p_curvature_matrix(c.A)


def char_poly_psi(c: ChartConn) -> CharPolyP:
    """det(t - psi) by the division-free recurrence, on psi's pair; each
    coefficient is tested for membership in the twist function field F_q(x^p)."""
    coeffs = tuple(charpoly_berkowitz(p_curvature_chart(c))[:-1])
    descent_ok = all(in_frobenius_subfield(a, 1) for a in coeffs if not a.is_zero())
    return CharPolyP(coeffs, descent_ok)


def hitchin_dims(g: int, r: int) -> HitchinDims:
    """Dimension of the space of candidate characteristic polynomials versus
    the split locus: dim B = g + (r^2 - 1)(g - 1) against dim D = r g.

    The count uses dim H^0(Omega^i) = (2i - 1)(g - 1) for i >= 2, so it needs
    g >= 2.
    """
    if g < 2:
        raise PreconditionError(f"genus must be >= 2 for this count, got {g}")
    if r < 1:
        raise PreconditionError(f"rank must be >= 1, got {r}")
    dim_b = g + (r * r - 1) * (g - 1)
    dim_d = r * g
    return HitchinDims(dim_b, dim_d, dim_b > dim_d)


def no_flag_certificate_rank2(c: ChartConn) -> NoFlagCertificate:
    """Certify that no line in the chart is stable under the connection.

    A stable line forces an eigenline of psi over F_q(x), so an irreducible
    det(t - psi) rules it out.  For p odd this is a non-square discriminant;
    for p = 2 with zero trace a non-square constant term.  The remaining
    p = 2 case would need an Artin-Schreier irreducibility test and returns
    Unknown rather than a possibly wrong verdict.
    """
    if c.r != 2:
        raise PreconditionError(f"certificate requires rank 2, got rank {c.r}")
    F = c.field
    char = char_poly_psi(c)
    a0, a1 = char.coeffs
    s = -a1  # trace of psi
    q = a0  # det of psi
    if F.p != 2:
        four = RatFunc.constant(F, F.scalar(4))
        disc = s * s - four * q
        root = sqrt_ratfunc(disc)
        if root is None:
            return NoFlagCertificate(Verdict.CERTIFIED, char, disc,
                                     "discriminant is a non-square in F_q(x)")
        half = RatFunc.constant(F, F.inv(F.scalar(2)))
        eig = (s + root) * half
        return NoFlagCertificate(Verdict.NOT_CERTIFIED, char, eig,
                                 "psi has an eigenvalue over F_q(x)")
    if s.is_zero():
        root = sqrt_ratfunc(q)
        if root is None:
            return NoFlagCertificate(Verdict.CERTIFIED, char, q,
                                     "constant term is a non-square in F_q(x)")
        return NoFlagCertificate(Verdict.NOT_CERTIFIED, char, root,
                                 "psi has an eigenvalue over F_q(x)")
    return NoFlagCertificate(Verdict.UNKNOWN, char, None,
                             "p = 2 with nonzero trace: Artin-Schreier case not decided")


def nilpotent_flag_chart(c: ChartConn) -> NilpotentFlag:
    """Triangularize a connection whose p-curvature is nilpotent.

    Recursively: the kernel of psi is stable under T (psi is T^p, which
    commutes with T) and carries vanishing p-curvature, so T has a horizontal
    vector over F_q(x); the first horizontal section starts the flag, and the
    quotient inherits nilpotent p-curvature.  The chart's pair B/beta is
    the first level, and every level of ``_triangularize`` takes its connection as such a
    cleared pair.  The returned gauge G makes G^{-1} A G + G^{-1} G' upper
    triangular, which is re-verified by ``_check_triangular`` without forming
    G^{-1}.
    """
    bmat, beta = c.A.cleared
    iterates, nrows, _ = _p_curvature(bmat, beta)
    if any(_berkowitz(nrows)[1:]):  # det(s - N) = s^r exactly when psi is nilpotent
        raise PreconditionError("p-curvature is not nilpotent; no flag this way")
    gauge, order = _triangularize(bmat, beta, iterates)
    _check_triangular(bmat, beta, gauge, order)
    return NilpotentFlag(gauge, tuple(range(c.r)))


def _triangularize(bmat, beta: Poly, iterates=None) -> tuple[MatRF, list[int]]:
    """A gauge G triangularizing T(v) = v' + A v, A = bmat/beta, for nilpotent
    p-curvature, and its row order: the rows order[0], order[1], ... of G form
    a lower triangular matrix with a nonzero diagonal.  ``iterates`` are the
    ``_t_iterates`` of A when the caller has built them.

    With v0 = w/P(x^p) the first horizontal section, m its last nonzero index
    and s1 < ... < s(r-1) the others, the level gauge g1 = [v0 | e_s1 ...] is
    never formed: row k >= 1 of g1^-1 is e_sk - (v0[sk]/v0[m]) e_m and column
    l >= 1 of A g1 + g1' is column sl of A, so the quotient connection is
    A[sk][sl] - (v0[sk]/v0[m]) A[m][sl], the pair ``_quotient`` forms, and
    g1 diag(1, g_sub) is v0 in column 0, row k of the quotient's gauge in row
    sk and zeros in row m.  So order[0] = m, and the quotient's order follows,
    mapped back to the sk.  At r = 2 the quotient is 1 x 1, and its gauge is
    [1] whatever its entry, so it is not formed.
    """
    F = beta.field
    r = len(bmat)
    if r == 1:
        return MatRF.identity(F, 1), [0]
    # A horizontal v lies in ker psi = ker N.  Its entries at the free columns
    # of the rref of N are its coordinates in the rref kernel basis, and its
    # last nonzero entry is one of them; so the last-first echelon sols[0] is
    # the v0 that T restricted to ker psi would give, mapped back.  Only the
    # solution space fixes sols, so it does not matter that the projector
    # takes that basis as primitive polynomial vectors (``_kernel_core``), or
    # that the elimination is fraction-free.
    sols = _horizontal_sections(bmat, beta, iterates)
    if not sols:
        raise PreconditionError("p-curvature has trivial kernel; not nilpotent")
    w, den = sols[0]
    m = max(i for i in range(r) if w[i])
    others = [i for i in range(r) if i != m]
    if r == 2:
        g_sub, sub_order = MatRF.identity(F, 1), [0]
    else:
        g_sub, sub_order = _triangularize(*_quotient(bmat, beta, w, m))
    rows = iter(g_sub.rows)
    zeros = [RatFunc.zero(F)] * (r - 1)
    gauge = MatRF(F, [[RatFunc(e, den), *(zeros if i == m else next(rows))]
                      for i, e in enumerate(w)])
    return gauge, [m, *(others[k] for k in sub_order)]


def _quotient(bmat, beta: Poly, w, m: int) -> tuple[list[list[Poly]], Poly]:
    """The quotient connection of ``_triangularize`` as a cleared pair.

    With v0 = w/P(x^p), v0[sk]/v0[m] = w[sk]/w[m], so the entry (k, l) is
    n_kl/D with n_kl = w[m] B[sk][sl] - w[sk] B[m][sl] and D = w[m] beta.
    Over g = gcd(D, every n_kl), made monic, this is the pair
    ``_clear_denominators`` gives for the entries reduced: the lcm over k, l
    of D/gcd(D, n_kl) is D/g.
    """
    F = beta.field
    others = [i for i in range(len(bmat)) if i != m]
    wm, bm = w[m], bmat[m]
    nums = [poly_dot(((wm, bmat[k][l]), (-w[k], bm[l])), F) for k in others for l in others]
    den, *nums = _primitive([wm * beta, *nums])
    if not den.is_monic():
        c = F.inv(den.lc())
        den, nums = den.scale(c), [e.scale(c) for e in nums]
    n = len(others)
    return [nums[k * n:k * n + n] for k in range(n)], den


def _check_triangular(bmat, beta: Poly, gauge: MatRF, order) -> None:
    """Raise unless G^-1 (A G + G') is upper triangular, A = bmat/beta.

    First the structure: order is a permutation, and G's rows in that order
    form a lower triangular L with a nonzero diagonal.  The columns of G are
    then cleared to polynomials, G D for a diagonal D, which keeps the claim:
    (G D)^-1 (A G D + (G D)') = D^-1 (G^-1 (A G + G')) D + D^-1 D'.  With X =
    B G + beta G' = beta (A G + G'), G u = X_j is L u = X_j in that order,
    and column j passes when forward substitution gives u_k = 0 for k > j.
    """
    r = len(bmat)
    if sorted(order) != list(range(r)):
        raise InternalInvariantError("gauge row order is not a permutation")
    cols = [_clear_denominators([col])[0][0] for col in zip(*gauge.rows)]
    low = [[col[i] for col in cols] for i in order]
    if any(not row[k] or any(row[k + 1:]) for k, row in enumerate(low)):
        raise InternalInvariantError("gauge is not lower triangular with a nonzero diagonal")
    for j, g in enumerate(cols):
        x = [poly_dot([(beta, g[i].derivative()), *zip(bmat[i], g)], beta.field) for i in order]
        if any(_forward_solve(low, x)[j + 1:]):
            raise InternalInvariantError("gauge failed to triangularize the connection")


def _forward_solve(low, x) -> list[Poly]:
    """u D for the solution u of low u = x, with low lower triangular over
    polynomials and D the product of its diagonal; no division.  Step k holds
    D_k = low[0][0] ... low[k][k] and the u_i D_k, i <= k."""
    den, lifted = Poly.one(x[0].field), []
    for k, row in enumerate(low):
        n = poly_dot([(x[k], den), *zip(map(Poly.__neg__, row), lifted)], den.field)
        lifted = [e * row[k] for e in lifted] + [n]
        den = den * row[k]
    return lifted
