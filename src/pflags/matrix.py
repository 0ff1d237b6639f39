"""Square matrices over F_q(x), with the linear algebra the geometry needs.

Besides ring operations this module provides: a division-free characteristic
polynomial (classical recurrences divide by integers that vanish mod p),
kernel and inverse, the action of a connection operator T(v) = v' + A v, its
p-th iterate (the p-curvature matrix psi), gauge transformation, and the
horizontal sections (T(v) = 0) as an F_q(x^p)-basis.  The sections come from
Katz's projector applied to ker psi; the only linear solves are r x r over
F_q(x) and s x rp over F_q(x^p), with s the number of sections.  The
projector has one algorithm, ``_katz_pass``: it steps columns through T and
sums the projector on the packed levels as it goes, reading no level out
for it.  The sections have one entry, ``_kernel_sections``, behind
``horizontal_sections``, ``hitchin._triangularize`` and
``pone.cartier_descent`` (a polynomial connection over beta = 1, whose
sections number the rank exactly when psi = 0).  T is stepped once per
level where it can be: the pass that forms N (its own ``_katz_pass``, or
``_p_curvature`` at a nilpotent flag's first level) sums the projector on
the e_i, and where ker N is spanned by vectors w with entries in F_q
(psi = 0 among them) round 0 is the F_q-combinations sum_i w_i P(e_i); only
a kernel with polynomial entries, and a round j >= 1 where round 0 falls
short of rank, runs ``_katz_pass`` on the x^j w again.

Every solve is one elimination routine: a forward phase, ``_echelon``, and
a bottom-up back-substitution, ``_back_substitute``, on rows of polynomials
by cross-multiplication, each new row divided by its content.  It reads the
columns at a stride: at stride 1 each entry is a column, and at stride p an
x-polynomial entry is p columns in y = x^p, its coefficients at each
exponent class mod p, with the multipliers and the content formed in y and
applied composed with x^p, so the rows stay x-polynomials.  A matrix of
rational functions enters it as the rows of B, m = B/beta, a scaling that
changes neither the row space nor the reduced echelon form.  The kernel's
one algorithm, ``_kernel_core``, returns a primitive polynomial vector per
free column; ``kernel`` and ``inverse`` run the whole reduction (``_rref``)
and form rational functions only from the entries they return.

A ``MatRF`` is the one matrix type: its rows, its cleared pair (B, beta),
or both, each formed from the other once, when first read.  Everything past
the rows reads the pair: the characteristic polynomial, the nilpotency test
(det(s - N) = s^r, Berkowitz again), the kernel, the inverse, the iterates
of T and the sections.  ``_clear_fractions`` is the one routine that writes
a matrix as B/beta, from its entries as (num, den) pairs: a payload as
written (``jsonio.matrix_from_json``, no entry reduced, for a chart too), a
matrix built from rows, the quotient connection of each level and the
gauge columns of ``hitchin``.  With A = B/beta,
T^k e_i has the fixed denominator beta^k, and its numerators follow the
classical p-curvature recurrence (Katz), with no gcd in the loop.
``_katz_pass`` steps every column at once (e_0, ..., e_(r-1), the
projector summed on them alone, and in ``_p_curvature`` the re-check's
sample sections beside them), from
k = 0 to p - 1 (the step at k = 0 takes e_i to column i of B), in doubling
stages of one ``_t_step`` each.  Its state is one int per row, column l
in block l of cells whose length is known up front for the stage
(``_t_length``), a cell being one coefficient: one slot over F_p, and over
F_q, q = p^d, 2d - 1 slots, the coefficient's d base-p digits and room for
the digit products.  It is differentiated, folded back to d digits and
reduced mod p on the packed words (``_t_layout``), so the state stays
packed from level to level over every field.  Only level p is read out,
and the levels a new stage packs again: for psi, T^p v, and for the
projector, its sums, folded and reduced once, when they are read.
Berkowitz on N and the
re-check's N v take one ``poly_dot`` per entry.
psi has one builder, ``p_curvature_matrix``: ``_p_curvature`` reads
(N, delta) off the iterates at level p, delta = beta^p, re-verifies
it (delta against beta^p formed by Frobenius, N v against the sample
section's T^p v), and psi is returned as that pair, which need not be its
lcm pair.  Every reader of a pair takes any pair: the characteristic
polynomial of psi has its numerators and delta in F_q[x^p], so its
fractions are reduced in y = x^p, where delta mostly divides them exactly
(``_over_power``).
Rational functions are reduced only in results: a matrix's rows when they
are read (psi's among them, behind ``p_curvature_matrix``,
``pone.p_curvature`` and ``hitchin.p_curvature_chart``), ``kernel``'s
vectors, the inverse and the sections.  ``_kernel_sections`` yields each
section as its cleared pair (w, P(x^p)), through one tail, ``_sections``,
which eliminates the images' numerators as they are, at stride p: the
forward phase runs over the rounds, and a section is back-substituted and
re-verified only when it is taken.  Only the three
callers that hand sections out reduce them: ``horizontal_sections`` and
``pone.cartier_descent`` for its frame take every section, and
``hitchin._triangularize`` takes the first alone, the last forward row,
which back-substitutes nothing.
``horizontal_sections`` re-verifies every section it returns, so it builds
its N without the re-check, as ``_triangularize`` does past its first level.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import InternalInvariantError, PflagsError, PreconditionError
from .fields import Field, _power, _reduce_mod_p, _reduced_unpack, _slot_codec
from .poly import Poly, poly_dot, poly_gcd
from .ratfunc import RatFunc

Vec = tuple[RatFunc, ...]


class MatRF:
    """An r x r matrix over F_q(x): its rows of reduced rational functions,
    its cleared pair (B, beta), m = B/beta with beta monic, or both.

    A matrix built from rows is cleared once, by ``_clear_fractions``, when
    ``cleared`` is first read; one built ``from_cleared`` forms its rows,
    ``RatFunc(e, beta)`` entrywise, only when they are first read.  Either
    form is kept once made.  The pair need not be the lcm pair (psi's is
    (N, beta^p)), so every reader of it works with any pair.  Equality, hash
    and repr are those of the rows.
    """

    __slots__ = ("field", "n", "rows", "_cleared")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise PflagsError("matrix must be square and nonempty")
        for row in rows:
            for e in row:
                if not isinstance(e, RatFunc) or e.field is not field:
                    raise PflagsError("matrix entries must be RatFunc over the field")
        self.field = field
        self.n = n
        self.rows = rows
        self._cleared = None

    @classmethod
    def from_cleared(cls, field: Field, bmat, beta: Poly) -> "MatRF":
        """The matrix bmat/beta, from polynomial rows over the monic beta."""
        m = cls.__new__(cls)
        m.field = field
        m.n = len(bmat)
        m._cleared = (tuple(map(tuple, bmat)), beta)
        return m

    def __getattr__(self, name):
        """Form the unset ``rows`` of a matrix built ``from_cleared``."""
        if name != "rows":
            raise AttributeError(name)
        bmat, beta = self._cleared
        self.rows = tuple(tuple(RatFunc(e, beta) for e in row) for row in bmat)
        return self.rows

    @property
    def cleared(self) -> tuple[tuple[tuple[Poly, ...], ...], Poly]:
        """(B, beta): the rows of B and beta, with m = B/beta."""
        if self._cleared is None:
            pairs = [[(e.num, e.den) for e in row] for row in self.rows]
            bmat, beta = _clear_fractions(self.field, pairs)
            self._cleared = (tuple(map(tuple, bmat)), beta)
        return self._cleared

    @classmethod
    def identity(cls, field: Field, n: int) -> "MatRF":
        one, zero = RatFunc.one(field), RatFunc.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, n: int) -> "MatRF":
        zero = RatFunc.zero(field)
        return cls(field, [[zero] * n for _ in range(n)])

    def __getitem__(self, i: int):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, MatRF) and self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.rows)
        return f"[{body}]"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __add__(self, other: "MatRF") -> "MatRF":
        return MatRF(self.field, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "MatRF") -> "MatRF":
        return MatRF(self.field, [[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "MatRF":
        return MatRF(self.field, [[-a for a in row] for row in self.rows])

    def __mul__(self, other: "MatRF") -> "MatRF":
        cols = list(zip(*other.rows))
        return MatRF(self.field, [[_dot(row, col) for col in cols] for row in self.rows])

    def scale(self, c: RatFunc) -> "MatRF":
        return MatRF(self.field, [[c * a for a in row] for row in self.rows])

    def matvec(self, v: Vec) -> Vec:
        return tuple(_dot(row, v) for row in self.rows)

    def derivative(self) -> "MatRF":
        return MatRF(self.field, [[a.derivative() for a in row] for row in self.rows])

    def map_entries(self, fn) -> "MatRF":
        return MatRF(self.field, [[fn(a) for a in row] for row in self.rows])

    def pow(self, e: int) -> "MatRF":
        if e < 0:
            raise PflagsError("negative matrix power")
        return _power(self, e, MatRF.identity(self.field, self.n), MatRF.__mul__)


def _dot(u, v):
    """sum_i u_i v_i over Poly (one ``poly_dot``) or RatFunc entries, skipping zero products."""
    if isinstance(u[0], Poly):
        return poly_dot(zip(u, v), u[0].field)
    acc = None
    for a, b in zip(u, v):
        if a.is_zero() or b.is_zero():
            continue
        acc = a * b if acc is None else acc + a * b
    return u[0] * v[0] if acc is None else acc  # a zero of the entries' type


def charpoly_berkowitz(m: MatRF) -> list[RatFunc]:
    """Characteristic polynomial of m, ascending coefficients, leading 1.

    Berkowitz's vector recurrence: division-free, so safe in characteristic p.
    It runs once on polynomials: with m = N/delta its cleared pair,
    det(t - m) = sum_i c_i t^i / delta^(n-i), where the c_i are the
    coefficients of det(s - N).
    """
    return _charpoly_cleared(*m.cleared)


def _charpoly_cleared(rows, delta: Poly) -> list[RatFunc]:
    """``charpoly_berkowitz`` of N/delta, from the polynomial rows of N.

    Each coefficient is c_i/delta^(n-i), reduced by ``_over_power``.  When
    delta and every c_i lie in F_q[x^p], as for psi (read off their
    coefficient strides), the reduction runs in y = x^p, on polynomials of
    1/p the degree, and the result is mapped back by x -> x^p, which keeps
    the canonical form (see ``ratfunc``); otherwise it runs in x.
    """
    F = delta.field
    p = F.p
    nums = _berkowitz(rows)
    in_y = not any(any(c.coeffs[j::p]) for c in (delta, *nums) for j in range(1, p))
    if in_y:
        nums = [Poly(F, c.coeffs[::p]) for c in nums]
        delta = Poly(F, delta.coeffs[::p])
    out = []
    for k, c in enumerate(nums):  # c_n, c_(n-1), ..., c_0 over delta^0, delta^1, ..., delta^n
        f = _over_power(c, delta, k)
        out.append(f.compose_xpow(p) if in_y else f)
    out.reverse()
    return out


def _over_power(c: Poly, delta: Poly, k: int) -> RatFunc:
    """c/delta^k reduced: delta is divided out of c while the division is
    exact, and what is left takes one canonical reduction.  For psi's
    charpoly delta mostly divides c, so most coefficients take no gcd."""
    while k and c and delta.degree > 0:  # over delta = 1, c is reduced
        q, rem = divmod(c, delta)
        if rem:
            return RatFunc(c, delta**k)
        c, k = q, k - 1
    return RatFunc(c)


def _berkowitz(rows) -> list[Poly]:
    """The coefficients of det(s - N), descending, for the polynomial rows of N."""
    n = len(rows)
    one = Poly.one(rows[0][0].field)
    poly = [one, -rows[0][0]]  # descending coefficients for the 1x1 corner
    for i in range(1, n):
        row = rows[i][:i]
        sub = [rows[t][:i] for t in range(i)]
        # first column of the Toeplitz matrix: 1, -a, -row.col, -row.sub.col, ...
        toeplitz_col = [one, -rows[i][i]]
        v = [rows[t][i] for t in range(i)]
        for k in range(i):
            if k:
                v = [_dot(r, v) for r in sub]
            toeplitz_col.append(-_dot(row, v))
        poly = [_dot(poly[:min(t, i) + 1], toeplitz_col[t::-1])
                for t in range(i + 2)]
    return poly


def is_nilpotent(m: MatRF) -> bool:
    """Whether det(t - m) = t^n, read off the polynomial rows of N = delta m."""
    return not any(_berkowitz(m.cleared[0])[1:])


# -- elimination: fraction-free, on polynomial rows -----------------------------------


def _echelon(rows: list[list[Poly]], p: int = 1) -> list[int]:
    """The forward phase of Gauss elimination on polynomial rows in place,
    with no division, reading the columns at stride p; returns the pivot
    columns.  Each row is zero before its pivot column and every row below it
    is zero there; the rows past the pivots are zero.

    At stride p an entry e in x stands for p columns, polynomials in
    y = x^p: column c is e.coeffs[j::p], e = row[c // p] and
    j = p - 1 - c % p, so j runs down from p - 1 within an entry (the
    coordinates of e in the F_q(x^p)-basis x^j).  Stride 1 reads each entry
    as one column.  A step (``_eliminate``) forms its multipliers and the
    content of the new row in y and applies them composed with x^p, so the
    rows stay x-polynomials; stride 1 is plain fraction-free elimination.
    """
    pivots, leads = [], [_lead(row, p) for row in rows]
    for r in range(len(rows)):
        # the pivot column c is the first column nonzero in a row from r on,
        # and a row from r on is nonzero there exactly when it leads there
        c = min((c for c in leads[r:] if c is not None), default=None)
        if c is None:
            break
        pivot = leads.index(c, r)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        leads[r], leads[pivot] = c, leads[r]
        for i in range(r + 1, len(rows)):
            if leads[i] == c:
                rows[i] = _eliminate(rows[i], rows[r], c, p)
                leads[i] = _lead(rows[i], p)
        pivots.append(c)
    return pivots


def _back_substitute(rows: list[list[Poly]], pivots: list[int], p: int = 1):
    """The back-substitution after ``_echelon`` at stride p, bottom-up: yields
    (k, row k reduced), 0 at every other pivot column, for k = len(pivots) - 1
    down to 0, so a caller that stops early reduces no row above; the rows
    are left as the forward phase made them.  Row k is eliminated by the
    forward rows below it, pivot columns ascending, each step clearing one
    column and changing only those past it: the steps Gauss-Jordan takes on
    row k.  Over its column pivots[k] it is row k of the reduced echelon
    form.  The last row is reduced by the forward phase already."""
    for k in range(len(pivots) - 1, -1, -1):
        row = rows[k]
        for l in range(k + 1, len(pivots)):
            if _coordinate(row, pivots[l], p):
                row = _eliminate(row, rows[l], pivots[l], p)
        yield k, row


def _rref(rows: list[list[Poly]]) -> list[int]:
    """Gauss-Jordan on polynomial rows in place, at stride 1: ``_echelon``
    and the whole ``_back_substitute``; returns the pivot columns."""
    pivots = _echelon(rows)
    for k, row in list(_back_substitute(rows, pivots)):
        rows[k] = row
    return pivots


def _lead(row: list[Poly], p: int) -> int | None:
    """The first nonzero column of a row at stride p (see ``_echelon``), or
    None for a zero row."""
    for t, e in enumerate(row):
        if e:
            cs = e.coeffs
            return t if p == 1 else t * p + next(c for c in range(p) if any(cs[p - 1 - c::p]))
    return None


def _coordinate(row: list[Poly], c: int, p: int) -> Poly:
    """Column c of a row at stride p (see ``_echelon``), a polynomial in y;
    at stride 1 the entry itself."""
    e = row[c // p]
    return e if p == 1 else Poly(e.field, e.coeffs[p - 1 - c % p::p])


def _eliminate(row: list[Poly], prow: list[Poly], c: int, p: int = 1) -> list[Poly]:
    """P(x^p) row - f(x^p) prow, P and f column c of prow and of row at
    stride p, over the content of its columns (``_primitive``)."""
    P = _coordinate(prow, c, p).compose_xpow(p)
    neg_f = (-_coordinate(row, c, p)).compose_xpow(p)
    return _primitive([poly_dot(((P, a), (neg_f, b)), P.field) for a, b in zip(row, prow)], p)


def _primitive(row: list[Poly], p: int = 1) -> list[Poly]:
    """The row over its content at stride p: each entry divided by g(x^p),
    g the monic gcd in y of the row's nonzero columns (see ``_echelon``)."""
    g = None
    for e in filter(None, row):
        for cs in (e.coeffs[j::p] for j in range(p)):
            if any(cs):
                f = e if p == 1 else Poly(e.field, cs)
                g = f if g is None else poly_gcd(g, f)
                if g.degree == 0:
                    return row
    if g is None:
        return row
    g = g.compose_xpow(p)
    return [e // g for e in row]


def kernel(m: MatRF) -> list[Vec]:
    """A basis of the right kernel.

    Each basis vector has a 1 at its free column and free columns are taken in
    increasing index order, so the result is deterministic.  It is
    ``_kernel_core``'s w/w[fc] on the rows of B, m = B/beta: fractions are
    formed only at the pivot columns.
    """
    zero, one = RatFunc.zero(m.field), RatFunc.one(m.field)
    return [tuple(one if c == fc else RatFunc(e, w[fc]) if e else zero for c, e in enumerate(w))
            for fc, w in _kernel_core(m.cleared[0])]


def _kernel_core(rows) -> list[tuple[int, list[Poly]]]:
    """The right kernel of polynomial rows (the list is not changed), one
    (fc, w) per free column fc of ``_rref``, in increasing order: w is the
    vector with a 1 at fc and -row[fc]/row[pc] at each pivot column pc,
    scaled to a primitive polynomial vector, so that w[fc] is the lcm of that
    vector's reduced denominators, up to a unit."""
    rows, n, F = list(rows), len(rows[0]), rows[0][0].field
    pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        w = [Poly.one(F) if c == fc else Poly.zero(F) for c in range(n)]
        for row, pc in zip(rows, pivots):
            if row[fc]:
                d = w[fc]
                w = [e * row[pc] for e in w]
                w[pc] = -row[fc] * d
        basis.append((fc, _primitive(w)))
    return basis


def inverse(m: MatRF) -> MatRF:
    """Matrix inverse by Gauss-Jordan on [B | beta I], m = B/beta, which is
    [m | I] scaled by beta; raises on singular input."""
    n = m.n
    bmat, beta = m.cleared
    zero = Poly.zero(m.field)
    rows = [[*row, *(beta if j == i else zero for j in range(n))] for i, row in enumerate(bmat)]
    if _rref(rows) != list(range(n)):
        raise PflagsError("matrix is singular")
    return MatRF(m.field, [[RatFunc(e, row[k]) for e in row[n:]] for k, row in enumerate(rows)])


# -- connection operator and p-curvature ---------------------------------------


def apply_connection(a: MatRF, v: Vec) -> Vec:
    """T(v) = v' + A v."""
    av = a.matvec(v)
    return tuple(x.derivative() + y for x, y in zip(v, av))


def gauge_transform(a: MatRF, g: MatRF) -> MatRF:
    """Connection matrix in the frame given by the columns of g:
    g^{-1} (A g + g')."""
    return inverse(g) * (a * g + g.derivative())


def p_curvature_matrix(a: MatRF) -> MatRF:
    """The matrix of T^p, T(v) = v' + A v; O_X-linear by Jacobson's theorem.
    Re-verified (see ``_p_curvature``) and returned as its pair (N, delta),
    delta = beta^p; its entries are reduced only if its rows are read."""
    nmat, delta, _ = _p_curvature(*a.cleared)
    return MatRF.from_cleared(a.field, nmat, delta)


def _p_curvature(bmat, beta: Poly, project: bool = False):
    """(N, delta, images) for A = bmat/beta, with psi = N/delta; psi is not
    cleared at all.  It runs behind ``p_curvature_matrix``, the one builder
    of psi, and behind ``hitchin.nilpotent_flag_chart``, which goes on to
    take the sections of ker N and asks, with ``project``, for the images of
    Katz's projector on the e_i from the same pass (``_t_iterates``);
    otherwise images is empty.

    Re-verified on every call, failure indicating an iteration bug, not bad
    input.  The denominator: delta, the iterates' beta^p, equals beta^p
    formed apart from them, as the Frobenius image of beta's coefficients at
    x^p.  Linearity over the structure sheaf, on a sample
    polynomial section v: T^p(f v) = f T^p(v) with f = x + 1, and
    T^p(v) = psi v.  The sample sections f v and v are two more columns of
    the iteration that builds psi, over the same beta^k, so with
    delta = beta^p the second identity reads N v = n, n the numerators of
    T^p v.  All columns share one step, so a wrong step is caught by the
    first identity; the projector is summed on the e_i alone.
    """
    F = beta.field
    f = Poly(F, (1, 1))  # x + 1
    v = [Poly.monomial(F, 1, i % 3) for i in range(len(bmat))]
    (*cols, lhs, rhs), delta, images = _t_iterates(bmat, beta, [[f * e for e in v], v], project)
    nmat = list(zip(*cols))
    if delta != Poly(F, [F.frobenius(c) for c in beta.coeffs]).compose_xpow(F.p):
        raise InternalInvariantError("p-curvature denominator is not beta^p")
    if lhs != [f * e for e in rhs]:
        raise InternalInvariantError("p-curvature operator is not O-linear")
    if any(_dot(row, v) != e for row, e in zip(nmat, rhs)):
        raise InternalInvariantError("p-curvature matrix disagrees with iterated T")
    return nmat, delta, images


def _t_iterates(bmat, beta: Poly, extra=(), project: bool = False):
    """T^p v with A = bmat/beta, unreduced, for the columns v = e_0, ...,
    e_(r-1) and then those of ``extra`` (numerators over beta^0 = 1), as
    (cols, delta, images): cols[l] the numerators of T^p v_l over
    delta = beta^p, the one denominator of every column.  The columns step
    together in one ``_katz_pass``.  With ``project`` it also sums Katz's
    projector at a0 = ``_regular_point(beta)`` on e_0, ..., e_(r-1), not on
    ``extra``, and images yields the numerators of P(e_i) over beta^p as
    coefficients, read out of the accumulators only when it is iterated;
    otherwise images is empty.  It is ``_p_curvature``'s T path alone
    (``_kernel_sections`` runs its own ``_katz_pass``, needing no delta),
    kept apart as the seam through which the psi re-checks meet wrong T^p.
    """
    F = beta.field
    weights = _katz_products(beta, _regular_point(beta)) if project else ()
    cols, images = _katz_pass(bmat, beta, _unit_columns(F, len(bmat)), weights, extra)
    return cols, _power(beta, F.p, Poly.one(F), lambda f, g: poly_dot(((f, g),), F)), images


def _unit_columns(field: Field, r: int) -> list[list[Poly]]:
    """e_0, ..., e_(r-1) as columns of polynomials."""
    one, zero = Poly.one(field), Poly.zero(field)
    return [[one if j == i else zero for j in range(r)] for i in range(r)]


def _t_stages(p: int):
    """The stages of the T iteration to level p, as (k, steps): the steps
    k, ..., k + steps - 1 run on one ``_t_step``, whose packed blocks are as
    long as the stage's last level needs.  The first stage takes
    ``_T_STAGE`` steps and each later one doubles the level reached, so past
    the first stage a block is padded to about twice its length at most,
    where one stage to level p would pad every level to the length of
    level p."""
    k = 0
    while k < p:
        steps = min(p - k, max(_T_STAGE, k))
        yield k, steps
        k += steps


# The steps of the first stage of ``_t_stages``, so p < 8 takes one stage.
# On charts of rank 2-3 at p = 31-251 a first stage of 8, 16 or 32 steps took
# the same time, and a single stage 30-42% longer.
_T_STAGE = 8

# The layouts ``_t_layout`` keeps, and the block lengths ``_t_length`` keeps,
# the least recently used dropped first.  One pass at seed 0 builds 15
# layouts on chart-charpoly (13 KB of masks), 42 on flat-descent (17 KB) and
# 9 on ext-field, all over extension fields (26 KB of masks and R_j); at
# p = 293 a layout of a rank-4 chart holds up to 0.6 MB, and the 5 layouts
# of a rank-4 chart over GF(67^2) hold 0.66 MB.
_T_LAYOUTS = 64


def _clear_fractions(field: Field, rows) -> tuple[list[list[Poly]], Poly]:
    """The matrix whose entries are the fractions num/den of ``rows``, given
    as pairs (num, den) and not necessarily reduced, written as B/beta: the
    polynomial rows of B and beta, the monic lcm of the entries' reduced
    denominators.  No entry is reduced on the way.

    With den made monic, the reduced denominators of the entries over one den
    d have the lcm d/gcd(d, their nonzero numerators), a gcd chain that
    mostly stops at 1 after one step.  delta, the monic lcm of these, is the
    lcm of the reduced denominators, and the entry num/d is (num delta/d)/delta
    whatever its reduced form, so B_ij = num (delta // d), the quotient formed
    once per d.  Where d does not divide delta (num and d share a factor that
    the other entries' reduced denominators lack) B_ij is the exact
    (num delta) // d.
    """
    one = Poly.one(field)
    groups = {}  # den's coefficients -> [den, gcd of den and its nonzero numerators]
    monic_rows = []
    for row in rows:
        out = []
        for num, den in row:
            lead = den.coeffs[-1]
            if lead != 1:
                c = field.inv(lead)
                num, den = num.scale(c), den.scale(c)
            out.append((num, den))
            if num.coeffs and len(den.coeffs) > 1:
                group = groups.get(den.coeffs)
                if group is None:
                    groups[den.coeffs] = [den, poly_gcd(den, num)]
                elif group[1].degree > 0:
                    group[1] = poly_gcd(group[1], num)
        monic_rows.append(out)
    delta = _lcm([d // g if g.degree > 0 else d for d, g in groups.values()], one)
    quos = {}
    for key, (d, _) in groups.items():
        q, rem = divmod(delta, d)
        quos[key] = None if rem else q
    bmat = []
    for row in monic_rows:
        out = []
        for num, den in row:
            if not num.coeffs or len(den.coeffs) == 1:
                out.append(num * delta)
            else:
                q = quos[den.coeffs]
                out.append(num * q if q is not None else num * delta // den)
        bmat.append(out)
    return bmat, delta


def _lcm(dens, one: Poly) -> Poly:
    """The monic lcm of the monic polynomials ``dens``, one lcm step each."""
    delta = one
    for d in dens:
        if not (d.is_one() or d == delta):
            delta = d if delta.is_one() else delta // poly_gcd(delta, d) * d
    return delta


def _t_step(bmat, beta: Poly, cols, steps: int, bound: int = 0):
    """The T step of A = bmat/beta on the columns ``cols`` at once, as
    (state, step, read, layout): state is that of the columns, numerators of
    T^k v over beta^k, step(state, k) the state of the numerators of
    T^(k+1) v over beta^(k+1) for every column v, from that of
    T^k v = num/beta^k, read(state, n) the first n columns and layout the
    state's (``_t_layout``).  The state has room for ``steps`` steps, and its
    slots for ``bound`` besides (see below).

    (num/beta^k)' + (bmat/beta)(num/beta^k) = (beta num' - k beta' num +
    bmat num)/beta^(k+1): the classical p-curvature recurrence, with no gcd or
    division.  The exponent k enters through its image in F_p.

    The state is one int per row j (``fields._slot_codec``): entry j of
    column l fills block l, the cells l L to l L + L - 1, constant term
    lowest, with L the longest numerator of the next ``steps`` levels
    (``_t_length``).  Over F_q, q = p^d, cell t holds the d base-p digits
    of coefficient t, its coordinates in the power basis of the modulus root
    z (see ``fields``), constant digit lowest; over F_p a cell is one slot,
    the coefficient itself.  Row i of the next level is
    total_i = sum_j B_ij N_j + beta D(N_i) - k beta' N_i on the ints, with
    bmat_ij, beta and beta' packed once and -k beta' the packed beta' times
    -k mod p, which scales each digit.  D, the derivative on the packed
    word, the fold of each cell back to d digits and the reduction of each
    slot mod p are the layout's (``_t_layout``), so every slot of the next
    state is in [0, p) again, and one step serves every field.  For d > 1
    ``read`` recombines the digits of every cell on each packed row, d
    shift-mask products, and then unpacks whole cells.  The slot bound n0 is
    at least the bit length of ``bound``, the most an accumulator slot of
    ``_katz_pass`` holds in the layout.
    """
    F = beta.field
    p, digits = F.p, F.k
    dbeta = beta.derivative()
    r, top = len(bmat), p - 1
    blens = tuple(tuple(len(e.coeffs) for e in row) for row in bmat)
    nbits = max(digits * (max(map(sum, blens)) * top * top
                          + (len(beta.coeffs) + len(dbeta.coeffs)) * top ** 3),
                bound).bit_length()
    # the longest entry of each row over the columns, at least 1
    lens = tuple(max([1, *(len(col[j].coeffs) for col in cols)]) for j in range(r))
    size = _t_length(blens, len(beta.coeffs), lens, steps)
    layout = _t_layout(F, nbits, size, len(cols))
    (bits, _, unpack, cell, shift, barrett, quo_mask, dmasks, low, first, folds, block,
     block_mask, offsets) = layout
    pack = _cell_pack(layout, F)
    powers = [(i * bits, p ** i) for i in range(digits)]  # (in read) digits to coefficients
    rows = [[pack(e.coeffs) if e else 0 for e in row] for row in bmat]
    pbeta, pdbeta = pack(beta.coeffs), pack(dbeta.coeffs)

    def step(state, k):
        pdb = pdbeta * (-k % p)
        out = []
        for n, row in zip(state, rows):
            total = (sum(map(mul, row, state)) + pdb * n
                     + pbeta * sum([(n & mask) >> down for mask, down in dmasks]))
            if folds:
                total = (total & low) + sum([(total >> down & first) * fold
                                             for down, fold in folds])
            out.append(total - p * ((total * barrett >> shift) & quo_mask))
        return out

    zero = Poly.zero(F)
    width = cell * bits

    def read(state, n):
        out = [[] for _ in range(n)]
        for row in state:
            if digits > 1:  # each cell's digits to its coefficient, at the cell's bottom
                row = sum([(row >> down & first) * weight for down, weight in powers])
            for col in out:
                e = row & block_mask
                row >>= block
                col.append(Poly(F, unpack(e, -(-e.bit_length() // width))) if e else zero)
        return out
    state = [sum(pack(col[j].coeffs) << o for col, o in zip(cols, offsets) if col[j])
             for j in range(r)]
    return state, step, read, layout


def _cell_pack(layout: _TLayout, field: Field) -> Callable:
    """pack(cs): the int with the coefficients cs in consecutive cells of
    ``layout``, constant term lowest, each cell the coefficient's d base-p
    digits, constant digit lowest, then 0; over F_p the layout's own pack."""
    p, digits, pack = field.p, field.k, layout.pack
    if digits == 1:
        return pack
    pad, places = (0,) * (layout.cell - digits), range(digits)

    def cells(cs):
        slots = []
        for c in cs:
            for _ in places:
                slots.append(c % p)
                c //= p
            slots += pad
        return pack(slots)
    return cells


class _TLayout(NamedTuple):
    """The packed T step's layout of one shape (``_t_layout``)."""

    bits: int  # the slot width
    pack: Callable  # slots -> int
    unpack: Callable  # int, m -> its lowest m cells, each below q
    cell: int  # the slots of one coefficient: 2d - 1, one over F_p
    shift: int  # Barrett's s
    barrett: int  # Barrett's m
    quo_mask: int  # Q, the low n bits of every slot
    dmasks: tuple[tuple[int, int], ...]  # (M_b, cell bits - b) for each bit b of p - 1
    low: int  # LOW, the low d slots of every cell (0 over F_p)
    first: int  # M0, the bottom slot of every cell (0 over F_p)
    folds: tuple[tuple[int, int], ...]  # (j bits, R_j) for j = d..2d - 2, none over F_p
    block: int  # the block stride, L cells, in bits
    block_mask: int
    offsets: range  # the bottom bit of each block


@lru_cache(maxsize=_T_LAYOUTS)
def _t_layout(field: Field, nbits: int, size: int, c: int) -> _TLayout:
    """The layout of ``_t_step`` over ``field`` = F_q, q = p^d, for the slot bound
    n0 = ``nbits``, blocks of L = ``size`` cells and c columns: a pure
    function of (field, n0, L, c), so it is built once per shape and kept in
    a cache of ``_T_LAYOUTS`` entries.

    Cells: coefficient t of a block is cell t, of 2d - 1 slots, its d digits
    in the low d and 0 above.  A product of packed polynomials is then the
    product in x and z at once, x = z^(2d - 1) (Kronecker substitution,
    von zur Gathen-Gerhard 8.4): digit i of one coefficient times digit i'
    of another lands in slot i + i' <= 2d - 2 of the cell of their x-degree,
    never in the next cell.  Over F_p a cell is one slot.

    The slot bound: a slot of a product is a sum over the pairs of
    coefficients of the shorter operand's length, and within a pair over at
    most d pairs of digits with i + i' equal to the slot, each product of
    digits being at most (p - 1)^2 for bmat_ij N_j, and at most (p - 1)^3 for
    beta num' and -k beta' num, whose num' and -k beta' digits hold up to
    (p - 1)^2.  So every slot of total_i is at most 2^n0 - 1, n0 the bit
    length of d ((max_i sum_j len(bmat_ij)) (p - 1)^2
    + (len(beta) + len(beta')) (p - 1)^3), which ``_t_step`` passes in.

    The fold takes z^d to z^(2d - 2) back to the low d digits without a
    division: with R_j the d digits of z^j mod the modulus, in [0, p),
    total is replaced by
    (total & LOW) + sum_(j=d..2d-2) ((total >> j bits) & M0) R_j,
    LOW the low d slots of every cell and M0 its bottom slot: the shift
    brings slot j of each cell to its bottom, and the product spreads it
    over the low d slots of its cell as z^j mod the modulus.  A low slot is
    then its own value plus one digit of R_j times each of the d - 1 folded
    slots, at most (2^n0 - 1)(1 + (d - 1)(p - 1)), and the high slots are 0,
    so every slot is below 2^n, n the bit length of that bound (n = n0 over
    F_p, which has no fold).
    Each slot is then reduced mod p by Barrett's multiply-shift-mask,
    total - p (((total m) >> s) & Q).
    With s = n + ceil(log2 p) and m = ceil(2^s / p), m p - 2^s < p <= 2^(s-n),
    so (T m) >> s = floor(T/p) for every T < 2^n (Granlund-Montgomery).  A
    slot of n + s bits holds T m < 2^(n+s); after the shift by s the
    quotient fills the low n bits of its own slot and the fraction of the
    slot above lands in its top s bits, which Q, the low n bits of every
    slot, drops.  A block is read at its exact length, the top of its
    highest nonzero slot.

    D, the derivative on the packed word: every slot of cell t is in mask b
    when bit b of (t mod L) mod p is set, so sum_b (N & M_b) << b holds e d
    at each digit d of coefficient t, e the exponent mod p, which is x num',
    and one cell shift down makes it num'.  Cell 0 of a block is in no mask,
    so no coefficient crosses a block.
    """
    p, digits = field.p, field.k
    top = p - 1
    nbits = (((1 << nbits) - 1) * (1 + (digits - 1) * top)).bit_length()
    shift = nbits + top.bit_length()
    bits, pack, unpack = _slot_codec((1 << (nbits + shift)) - 1)
    cell = 2 * digits - 1
    if digits > 1 or bits > 64:  # reduced cells: each below q, read one struct.unpack a block
        unpack = _reduced_unpack(cell * bits >> 3, field.q)
    block = size * cell * bits
    offsets = range(0, c * block, block)
    starts = sum(1 << o for o in offsets)  # 1 at the bottom slot of each block
    full = (1 << bits) - 1

    def cells(slots):  # the slots of every cell of every block
        return pack(slots * size) * starts
    dmasks = tuple((pack([full if t % p >> b & 1 else 0 for t in range(size)
                          for _ in range(cell)]) * starts, cell * bits - b)
                   for b in range(top.bit_length()))
    low = first = 0
    folds = []
    if digits > 1:
        low, first = cells([full] * digits + [0] * (digits - 1)), cells([full] + [0] * (cell - 1))
        for j in range(digits, cell):
            rem = [0] * j + [1]
            _reduce_mod_p(rem, field.modulus, p)
            folds.append((j * bits, pack(rem[:digits])))
    return _TLayout(bits, pack, unpack, cell, shift, -(-(1 << shift) // p),
                    cells([(1 << nbits) - 1] * cell), dmasks, low, first, tuple(folds),
                    block, (1 << block) - 1, offsets)


@lru_cache(maxsize=_T_LAYOUTS)
def _t_length(blens, beta_len: int, lens, steps: int) -> int:
    """The most coefficients a numerator of T^k v can have over
    k = 0..steps, bounded by lengths alone: blens[j][m] = len(bmat_jm),
    beta_len = len(beta), and lens[j] is the longest entry of row j over the
    columns v at k = 0.

    A step is beta n' - k beta' n + bmat n, so row j of the next level, and
    each of its terms, has at most max(n_j + len(beta) - 2,
    max_m len(bmat_jm) + n_m - 1) coefficients over its nonzero terms, n the
    bound at this level: a max-plus product, no larger than
    n_j + max(deg bmat, deg beta - 1).  The product is monotone, so once
    no row grows none grows at a later step, and once every row grows by
    the same c with no row zero every later step adds c again: the
    iteration stops at either.  For a nilpotent bmat over beta = 1 (a flat
    connection) the bound stops growing after r steps, where
    max(deg bmat, deg beta - 1) would add to it at each step.

    The bound is a function of lengths alone, which repeat from chart to
    chart, so it is kept per (blens, beta_len, lens, steps), all tuples of
    ints, in a cache of ``_T_LAYOUTS`` entries, as the layouts are.
    """
    down = beta_len - 2
    top = max(lens)
    for k in range(steps):
        new = []
        for n, row in zip(lens, blens):
            best = n + down if n else 0
            for m, b in zip(lens, row):
                if m and b and m + b - 1 > best:
                    best = m + b - 1
            new.append(best)
        moves = [a - b for a, b in zip(new, lens)]
        grow = max(moves)
        if grow <= 0:
            break
        if grow == min(moves) and min(lens):
            return max(top, max(new) + (steps - 1 - k) * grow)
        lens = new
        top = max(top, *new)
    return top


# -- horizontal sections: Katz's projector ------------------------------------------


def horizontal_sections(a: MatRF) -> list[Vec]:
    """A basis of { v in F_q(x)^r : v' + A v = 0 } over F_q(x^p).

    T is F_q(x^p)-linear, and its solutions span the same F_q(x^p)-dimension
    s as the F_q(x)-dimension of ker psi (Cartier, applied to the T-stable
    subspace ker psi).  Katz's projector P(v) = sum_{k<p} (-t)^k/k! T^k v,
    t = x - a0, is F_q(x^p)-linear, fixes horizontal vectors and maps ker psi
    onto them (T P(v) = (-t)^{p-1}/(p-1)! psi(v)).  The images P(x^j w) of
    ``_kernel_core``'s vectors w for ker N = ker psi are taken round by round,
    j = 0, 1, ..., until they have rank s; at a0 with beta(a0) and every
    w[fc](a0) nonzero, P(w) = w mod t, so round 0 already does.

    All of it is polynomial, with A cleared once to B/beta.  An image is
    n/beta^p, summed on the packed levels of T (``_katz_pass``): round 0 in
    the pass that forms N, on the e_i, where the w have entries in F_q
    (``_kernel_sections``), and ``_sections`` eliminates the numerators n as they are, reading their
    coordinates in the F_q(x^p)-basis x^j e_i at stride p; it yields every
    section here, each reduced here and nowhere before.

    The result is the reduced echelon basis of the solutions in that basis,
    coordinates taken last-first: each vector has a 1 at its last nonzero
    coordinate and 0 at those of the others, in increasing order of it.  The
    solution space alone fixes it; it is the kernel basis Gaussian elimination
    of the rp x rp matrix of T would give.  Each vector is re-verified: its
    numerators w over P(x^p), whose derivative is 0, satisfy beta w' + B w = 0.
    """
    return [tuple(RatFunc(e, den) for e in w) for w, den in _kernel_sections(*a.cleared)]


def _kernel_sections(bmat, beta: Poly, level=None) -> Iterator[tuple[list[Poly], Poly]]:
    """``horizontal_sections`` of A = bmat/beta as cleared pairs (w, P(x^p)),
    the section being w/P(x^p) entrywise and unreduced; a polynomial A may
    come as its rows with beta = 1, as ``pone.cartier_descent``'s does.  An
    iterator: ``_sections`` back-substitutes and re-verifies each section
    only when it is taken.

    ``level`` is (N, images) from ``_p_curvature`` when the caller has it,
    psi = N/beta^p and images Katz's projector on the e_i at
    a0 = ``_regular_point(beta)``; otherwise one ``_katz_pass`` on the e_i
    at that a0 forms both, with no beta^p.  Round 0 comes from that pass
    where the kernel is constant: with psi = 0 it is the images themselves,
    with no ``_kernel_core``, and where every w of ``_kernel_core`` has
    entries in F_q, the combinations sum_i w_i P(e_i) (``_constant_round``),
    P being F_q(x^p)-linear and a0 the one ``_regular_point`` picks for such
    w.  A kernel with polynomial entries takes round 0, and a round 0 short
    of rank each round j >= 1, from one ``_katz_pass`` on the x^j w at the
    a0 of ``_regular_point(beta, *w[fc])``, run when ``_sections`` asks."""
    F = beta.field
    a0, units = _regular_point(beta), _unit_columns(F, len(bmat))
    if level is None:
        cols, images = _katz_pass(bmat, beta, units, _katz_products(beta, a0))
        level = list(zip(*cols)), images
    nmat, images = level
    if not any(map(any, nmat)):  # psi = 0
        ker, first = units, images
    else:
        core = _kernel_core(nmat)
        if not core:
            return iter(())
        ker = [w for _, w in core]
        first = _constant_round(ker, images)
        if first is None:
            a0 = _regular_point(beta, *(w[fc] for fc, w in core))

    def rounds():
        if first is not None:
            yield first
        weights = _katz_products(beta, a0)
        for j in range(first is not None, F.p):
            yield _katz_pass(bmat, beta, [[Poly(F, (0,) * j + e.coeffs) for e in w] for w in ker],
                             weights)[1]
    return _sections(bmat, beta, rounds(), len(ker))


def _constant_round(ker, images):
    """The images P(w) of the kernel vectors w as F_q-combinations
    sum_i w_i P(e_i) of the ``images`` P(e_i), each as the coefficients of
    its numerators over beta^p, or None when some w has an entry outside
    F_q; images is read only when every entry lies in F_q."""
    if any(len(e.coeffs) > 1 for w in ker for e in w):
        return None
    images = list(images)
    F = ker[0][0].field
    columns = [[Poly(F, n) for n in ns] for ns in zip(*images)]  # entry j of every P(e_i)
    return [[poly_dot(zip(w, col), F).coeffs for col in columns] for w in ker]


def _regular_point(beta: Poly, *polys: Poly) -> int:
    """The first point a0 of F_q, in ``Field.elements`` order, where beta
    and every one of ``polys`` is nonzero, or 0 if there is none: with beta
    alone, the a0 of the projector that the pass forming N sums, and with
    the entries w[fc] of a kernel with polynomial entries, its round 0's."""
    return next((c for c in beta.field.elements()
                 if beta.evaluate(c) and all(f.evaluate(c) for f in polys)), 0)


def _sections(bmat, beta: Poly, rounds, s: int) -> Iterator[tuple[list[Poly], Poly]]:
    """The sections, as cleared pairs (w, P(x^p)), spanned by the images
    n/beta^p of Katz's projector that ``rounds`` yields round by round, each
    image as the coefficients of its numerators n, taken until they have
    rank s; yielded one at a time, last pivot first.

    beta^p is a polynomial in y = x^p, so the columns of n at stride p are
    the image's coordinates in the F_q(x^p)-basis x^j e_i, in y, up to a row
    scaling.  The rows are the numerators as they are, entries reversed, so
    that ``_echelon`` takes the coordinates last first, and its forward
    phase runs over the rounds.  Then ``_back_substitute`` reduces the rows
    bottom-up, one per section taken: a reduced row is w, entries reversed
    back, and its pivot column composed with x^p is P(x^p).  Each w is
    re-verified as it is yielded: beta w' + B w = 0.  The first section is
    the last forward row, which back-substitutes nothing.
    """
    F = beta.field
    p = F.p
    rows: list[list[Poly]] = []
    for images in rounds:
        rows += [[Poly(F, n) for n in reversed(image)] for image in images]
        pivots = _echelon(rows, p)
        del rows[len(pivots):]
        if len(pivots) == s:
            break
    else:
        raise InternalInvariantError(
            f"projected sections have rank {len(rows)}, ker psi has dimension {s}")
    for k, row in _back_substitute(rows, pivots, p):
        w, den = row[::-1], _coordinate(row, pivots[k], p).compose_xpow(p)
        if not (den and any(w)):
            raise InternalInvariantError("claimed horizontal section is zero")
        if any(poly_dot([(beta, wi.derivative()), *zip(brow, w)], F) for wi, brow in zip(w, bmat)):
            raise InternalInvariantError("claimed horizontal section fails T(v) = 0")
        yield w, den


def _katz_pass(bmat, beta: Poly, cols, weights, extra=()):
    """Katz's projector on the columns ``cols`` of A = bmat/beta, summed on
    the packed levels in the pass that steps them, the columns of ``extra``
    stepped beside them and not projected: (the numerators of T^p v over
    beta^p for each column v of cols and then of extra, and the images of
    cols), an image as the coefficients of the numerators of P(v) over
    beta^p, read out of the accumulators only when iterated; the images are
    empty when ``weights`` is.

    With T^m v = n_m/beta^m, P(v) = sum_(m<p) c_m n_m beta^(p-m)/beta^p, and
    weights[m] = (W_m, s_m) with c_m beta^(p-m) = x^(s_m) W_m
    (``_katz_products``).  The columns step through ``_t_stages``, one
    ``_t_step`` each.  At each level m < p, block i of row j (entry j of the
    numerator of T^m v_i) is multiplied by the packed W_m, moved s_m cells up
    and added into an accumulator int of its own, so no level is read out but
    those a new stage packs again.  The slot width and cell depend only on A
    and the weights, so the accumulators carry across stages.  A slot of the
    product with W_m is a sum over at most len(W_m) coefficient pairs, each
    over at most d digit pairs, or one where W_m lies in F_p[x], of at most
    (p - 1)^2 each: ``_t_step`` lays its slots out for the sum of these over
    m, and the accumulators are folded and reduced mod p once, when the
    images are read (``_barrett``).
    """
    F = beta.field
    p, n = F.p, len(cols)
    cols = [*cols, *extra]
    cells = [w for w, _ in weights]
    bound = (p - 1) ** 2 * sum(map(len, cells)) * (
        F.k if F.k > 1 and any(c >= p for w in cells for c in w) else 1)
    accs = [[0] * n for _ in bmat]  # accs[j][i]: entry j of the image of column i
    for k, steps in _t_stages(p):
        state, step, read, layout = _t_step(bmat, beta, cols, steps, bound)
        block, block_mask, width = layout.block, layout.block_mask, layout.cell * layout.bits
        pack = _cell_pack(layout, F)
        for m in range(k, k + steps):
            if weights:
                w, up = pack(weights[m][0]), weights[m][1] * width
                for row, acc in zip(state, accs):
                    for i in range(n):
                        e = row & block_mask
                        if e:
                            acc[i] += e * w << up
                        row >>= block
            state = step(state, m)
        cols = read(state, len(cols))
    return cols, _katz_images(layout, F, accs) if weights else []


def _katz_images(layout: _TLayout, field: Field, accs):
    """The images of ``_katz_pass`` from its accumulators accs[j][i], one
    list of numerator coefficients per column i, read when iterated."""
    p, width = field.p, layout.cell * layout.bits
    n = len(accs[0])
    nums = _barrett(layout, p, [a for row in accs for a in row])
    if field.k > 1:  # each cell's digits to its coefficient, at the cell's bottom
        first = (layout.first & (1 << width) - 1) * _cell_ones(width, nums)
        nums = [sum((a >> i * layout.bits & first) * p ** i for i in range(field.k)) for a in nums]
    nums = [layout.unpack(a, -(-a.bit_length() // width)) for a in nums]
    yield from (nums[i::n] for i in range(n))


def _katz_products(beta: Poly, a0: int) -> list[tuple[tuple[int, ...], int]]:
    """Katz's weights over beta^p, (W_m, s_m) with c_m beta^(p-m) = x^(s_m) W_m
    for m < p, W_m as its coefficients, c_m = (-t)^m/m! and t = x - a0.  At
    a0 = 0, c_m is x^m times the F_p scalar of ``_katz_weights``, so s_m = m,
    a shift by m cells; elsewhere s_m = 0.  Over beta = 1 at a0 = 0, W_m is
    that scalar."""
    F = beta.field
    p = F.p
    if beta.is_one() and not a0:
        return [((c,), m) for m, c in enumerate(_katz_weights(p))]
    one = Poly.one(F)
    powers = [one]  # beta^0, ..., beta^p
    for _ in range(p):
        powers.append(powers[-1] * beta)
    t = Poly(F, (F.neg(a0), 1)) if a0 else one
    products, tm = [], one
    for m, c in enumerate(_katz_weights(p)):
        products.append(((tm * powers[p - m]).scale(c).coeffs, 0 if a0 else m))
        tm = tm * t
    return products


def _katz_weights(p: int) -> list[int]:
    """The F_p scalars (-1)^m/m!, m < p, of Katz's weights c_m = (-1)^m/m! t^m."""
    weights = [1]
    for m in range(1, p):
        weights.append(weights[-1] * (p - pow(m, -1, p)) % p)
    return weights


def _cell_ones(width: int, ints) -> int:
    """1 at the bottom slot of every cell of ``width`` bits up to the longest of ``ints``."""
    cells = max(a.bit_length() for a in ints) // width + 1
    return ((1 << cells * width) - 1) // ((1 << width) - 1)


def _barrett(layout: _TLayout, p: int, ints) -> list[int]:
    """The ints in ``layout``'s cells, each slot below 2^n0, with every cell
    folded back to d digits and every slot reduced mod p as the step does it
    (see ``_t_layout``), the masks laid out for the longest of them."""
    width = layout.cell * layout.bits
    ones, cell = _cell_ones(width, ints), (1 << width) - 1
    if layout.folds:
        low, first = (layout.low & cell) * ones, (layout.first & cell) * ones
        ints = [(a & low) + sum([(a >> down & first) * fold for down, fold in layout.folds])
                for a in ints]
    quo = (layout.quo_mask & cell) * ones
    return [a - p * ((a * layout.barrett >> layout.shift) & quo) for a in ints]
