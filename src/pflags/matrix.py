"""Square matrices over F_q(x), with the linear algebra the geometry needs.

Besides ring operations this module provides: a division-free characteristic
polynomial (classical recurrences divide by integers that vanish mod p),
kernel and inverse, the action of a connection operator T(v) = v' + A v, its
p-th iterate (the p-curvature matrix psi), gauge transformation, and the
horizontal sections (T(v) = 0) as an F_q(x^p)-basis.  The sections come from
Katz's projector applied to ker psi, built from the same iterates T^k e_i as
psi; the only linear solves are r x r over F_q(x) and s x rp over F_q(x^p),
with s the number of sections.

Every solve is one elimination routine, ``_echelon``: Gauss-Jordan on rows
of polynomials by cross-multiplication, each new row divided by the gcd of
its entries.  A matrix of rational functions enters it as the rows of B,
m = B/beta, a scaling that changes neither the row space nor the reduced
echelon form.  The kernel's one algorithm, ``_kernel_core``, returns a
primitive polynomial vector per free column; ``kernel`` and ``inverse`` form
rational functions only from the entries they return.

A ``MatRF`` is the one matrix type: its rows, its cleared pair (B, beta),
or both, each formed from the other once, when first read.  Everything past
the rows reads the pair: the characteristic polynomial, the nilpotency test
(det(s - N) = s^r, Berkowitz again), the kernel, the inverse, the iterates
of T and the sections.  ``jsonio.matrix_from_json`` clears a payload as
written (``_clear_fractions``, no entry reduced), for a chart too; a matrix
built from rows is cleared by ``_clear_denominators``.  With A = B/beta,
T^k e_i has the fixed denominator beta^k, and its numerators follow the
classical p-curvature recurrence (Katz), with no gcd in the loop.  T e_i is
column i of A, so its numerators are column i of B; each later level is a
T step from ``_t_step``, built once per matrix, which over F_p packs the
fixed operands B and beta once rather than once per entry and step.  The
build of psi and its re-check share that one step.  Berkowitz on N, the
re-check's N v and the projector take one ``poly_dot`` per entry.  psi has
one builder, ``p_curvature_matrix``: ``_p_curvature`` reads (N, delta) off
the iterates (``_cleared_psi``), delta = beta^p, re-verifies it (delta
against beta^p formed by Frobenius, N v against T^p v iterated apart), and
psi is returned as that pair, which need not be its lcm pair.  Every reader
of a pair takes any pair: the characteristic polynomial of psi has its
numerators and delta in F_q[x^p], so its fractions are reduced in y = x^p,
where delta mostly divides them exactly (``_over_power``).
Rational functions are reduced only in results: a matrix's rows when they
are read (psi's among them, behind ``p_curvature_matrix``,
``pone.p_curvature`` and ``hitchin.p_curvature_chart``), ``kernel``'s
vectors, the inverse and the sections.  ``_horizontal_sections`` returns
each section as its cleared pair (w, P(x^p)), and only the three callers
that hand sections out reduce them: ``horizontal_sections``,
``pone.cartier_descent`` for its frame and ``hitchin._triangularize`` for
its gauge's columns.  ``horizontal_sections`` re-verifies every section it
returns, so it builds its N without the re-check.
"""

from __future__ import annotations

from operator import mul

from .errors import InternalInvariantError, PflagsError
from .fields import Field, _power, _slot_codec
from .poly import Poly, poly_dot, poly_gcd
from .ratfunc import RatFunc

Vec = tuple[RatFunc, ...]


class MatRF:
    """An r x r matrix over F_q(x): its rows of reduced rational functions,
    its cleared pair (B, beta), m = B/beta with beta monic, or both.

    A matrix built from rows is cleared once, by ``_clear_denominators``, when
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
            bmat, beta = _clear_denominators(self.rows)
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


def _echelon(rows: list[list[Poly]]) -> list[int]:
    """Gauss-Jordan on polynomial rows in place, with no division; returns
    the pivot columns.  Row k over its entry P_k at pivots[k] is row k of the
    reduced echelon form, and the rows past the pivots are zero."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = _eliminate(row, rows[r], c)
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return pivots


def _eliminate(row: list[Poly], prow: list[Poly], c: int) -> list[Poly]:
    """P row - f prow (P = prow[c], f = row[c]) over the gcd of its entries."""
    P, neg_f = prow[c], -row[c]
    return _primitive([poly_dot(((P, a), (neg_f, b)), P.field) for a, b in zip(row, prow)])


def _primitive(row: list[Poly]) -> list[Poly]:
    """The row divided by the monic gcd of its entries."""
    g = None
    for e in row:
        if e:
            g = e if g is None else poly_gcd(g, e)
            if g.degree == 0:
                return row
    return row if g is None else [e // g for e in row]


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
    (fc, w) per free column fc of ``_echelon``, in increasing order: w is the
    vector with a 1 at fc and -row[fc]/row[pc] at each pivot column pc,
    scaled to a primitive polynomial vector, so that w[fc] is the lcm of that
    vector's reduced denominators, up to a unit."""
    rows, n, F = list(rows), len(rows[0]), rows[0][0].field
    pivots = _echelon(rows)
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
    if _echelon(rows) != list(range(n)):
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
    *_, nmat, delta = _p_curvature(*a.cleared)
    return MatRF.from_cleared(a.field, nmat, delta)


def _p_curvature(bmat, beta: Poly):
    """(the ``_t_iterates`` of A, N, delta) for A = bmat/beta, with
    psi = N/delta; psi is not cleared at all.  It runs behind
    ``p_curvature_matrix``, the one builder of psi, and behind
    ``hitchin.nilpotent_flag_chart``, which reuses the iterates.

    Re-verified on every call, failure indicating an iteration bug, not bad
    input.  The denominator: delta, the last of the iterates' beta^k, equals
    beta^p formed apart from them, as the Frobenius image of beta's
    coefficients at x^p.  Linearity over the structure sheaf, on a sample
    polynomial section v: T^p(f v) = f T^p(v) with f = x + 1, and
    T^p(v) = psi v.  T is iterated over beta^k, A = B/beta, independently of
    the iterates, so T^p(f v) and T^p(v) = n/beta^p share beta^p, and with
    delta = beta^p the second reads N v = n.  The build and this iteration
    share the chart's one ``_t_step``, so a wrong step is caught by the first
    identity.
    """
    F = beta.field
    p = F.p
    step = _t_step(bmat, beta)
    iterates = _t_iterates(bmat, beta, p, step)
    nmat, delta = _cleared_psi(iterates)
    if delta != Poly(F, [F.frobenius(c) for c in beta.coeffs]).compose_xpow(p):
        raise InternalInvariantError("p-curvature denominator is not beta^p")
    f = Poly(F, (1, 1))  # x + 1
    v = [Poly.monomial(F, 1, i % 3) for i in range(len(bmat))]
    lhs = [f * e for e in v]
    rhs = v
    for k in range(p):
        lhs = step(lhs, k)
        rhs = step(rhs, k)
    if lhs != [f * e for e in rhs]:
        raise InternalInvariantError("p-curvature operator is not O-linear")
    if any(_dot(row, v) != e for row, e in zip(nmat, rhs)):
        raise InternalInvariantError("p-curvature matrix disagrees with iterated T")
    return iterates, nmat, delta


def _t_iterates(bmat, beta: Poly, p: int, step=None) -> tuple[list[list[list[Poly]]], list[Poly]]:
    """The iterates T^k e_i for k = 0..p with A = bmat/beta, unreduced, as
    (nums, dens): nums[i][k] holds the numerators of T^k e_i over dens[k] =
    beta^k, the one denominator of every column.  T e_i is column i of A, so
    its numerators are column i of bmat; each later level is one step of
    ``_t_step`` (``step``, when the caller has built it for the chart)."""
    F = beta.field
    n = len(bmat)
    if step is None:
        step = _t_step(bmat, beta)
    zero_p, one_p = Poly.zero(F), Poly.one(F)
    dens = [one_p]
    for _ in range(p):
        dens.append(poly_dot(((dens[-1], beta),), F))
    nums = []
    for i in range(n):
        num = [zero_p] * n
        num[i] = one_p
        its = [num, [row[i] for row in bmat]]
        for k in range(1, p):
            its.append(step(its[-1], k))
        nums.append(its)
    return nums, dens


def _cleared_psi(iterates) -> tuple[list[tuple[Poly, ...]], Poly]:
    """psi = N/delta from ``_t_iterates``: column i of N holds the numerators
    of T^p e_i, and delta = beta^p is their denominator."""
    nums, dens = iterates
    return list(zip(*(its[-1] for its in nums))), dens[-1]


def _clear_denominators(rows) -> tuple[list[list[Poly]], Poly]:
    """Write a matrix of reduced rational functions as N/delta: the polynomial
    rows of N and delta, the monic lcm of the entry denominators.  Each
    distinct denominator takes one lcm step and one exact division."""
    dens = dict.fromkeys(e.den for row in rows for e in row)
    delta = _lcm(dens, Poly.one(rows[0][0].field))
    for d in dens:
        dens[d] = delta if d.is_one() else delta // d
    return [[e.num * dens[e.den] for e in row] for row in rows], delta


def _clear_fractions(field: Field, rows) -> tuple[list[list[Poly]], Poly]:
    """``_clear_denominators`` of the matrix whose entries are the fractions
    num/den of ``rows``, given as pairs (num, den) and not reduced: no entry
    is reduced on the way.

    With den made monic, the reduced denominators of the entries over one den
    d have the lcm d/gcd(d, their nonzero numerators), a gcd chain that
    mostly stops at 1 after one step.  delta, the monic lcm of these, is the
    lcm of the reduced denominators, and the entry num/d is (num delta/d)/delta
    whatever its reduced form, so B_ij = num (delta // d), the quotient formed
    once per d.  Where d does not divide delta (num and d share a factor that
    the other entries' reduced denominators lack) B_ij is the exact
    (num delta) // d.
    """
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
    delta = _lcm([d // g if g.degree > 0 else d for d, g in groups.values()], Poly.one(field))
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


def _t_step(bmat, beta: Poly):
    """The T step of A = bmat/beta: step(num, k) is the list of numerators of
    T^(k+1) v over beta^(k+1), from T^k v = num/beta^k.

    (num/beta^k)' + (bmat/beta)(num/beta^k) = (beta num' - k beta' num +
    bmat num)/beta^(k+1): the classical p-curvature recurrence, with no gcd or
    division.  The exponent k enters through its image in F_p.  One step is
    built per chart: ``_p_curvature`` hands it to ``_t_iterates``, which
    needs it from T^2 on (T e_i is column i of bmat), and iterates the
    re-check's sample sections with it from k = 0.  Over an
    extension field each entry is one ``poly_dot``.  Over F_p it is the same
    sum of products on ``fields._slot_codec``'s ints: bmat_ij and beta are
    packed once here, -k beta' once per k mod p (in both branches), and each
    n_j and n_j' once per step.  One slot width serves every step, since a
    pair's coefficient sums at most len(fixed operand) terms.  The sum's
    highest nonzero slot is the top of its longest product with no zero
    factor, so each entry is unpacked from the slots ``_dot_mod_p`` would
    use.
    """
    F = beta.field
    p = F.p
    dbeta = beta.derivative()
    neg_kdbs = {}  # -k beta' by -k mod p: a Poly, or packed over F_p
    if F.k > 1:
        def step(num, k):
            neg_k = -k % p
            neg_kdb = neg_kdbs.get(neg_k)
            if neg_kdb is None:
                neg_kdb = neg_kdbs[neg_k] = dbeta.scale(neg_k)
            return [poly_dot([*zip(row, num), (beta, ni.derivative()), (neg_kdb, ni)], F)
                    for ni, row in zip(num, bmat)]
        return step
    db = dbeta.coeffs
    bits, pack, unpack = _slot_codec(
        (max(sum(len(e.coeffs) for e in row) for row in bmat) + len(beta.coeffs) + len(db))
        * (p - 1) ** 2)
    rows = [[pack(e.coeffs) for e in row] for row in bmat]
    pbeta = pack(beta.coeffs)

    def step(num, k):
        neg_k = -k % p
        pdb = neg_kdbs.get(neg_k)
        if pdb is None:
            pdb = neg_kdbs[neg_k] = pack([neg_k * c % p for c in db])
        cs = [n.coeffs for n in num]
        pnum = list(map(pack, cs))
        out = []
        for n, pn, row in zip(cs, pnum, rows):
            terms = enumerate(n)
            next(terms, None)  # n' as in ``Poly.derivative``
            total = (sum(map(mul, row, pnum)) + pbeta * pack([c * i % p for i, c in terms])
                     + pdb * pn)
            out.append(Poly(F, unpack(total, -(-total.bit_length() // bits), p)))
        return out
    return step


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
    n/beta^p (``_project``), and beta^p is a polynomial in y = x^p, so n split
    by exponent mod p gives the image's coordinates in the F_q(x^p)-basis
    x^j e_i (coordinate i p + j), in y, up to a row scaling.  ``_echelon``
    reduces these rows; a row with pivot entry P gives the section
    w/P(x^p), w_i = sum_j e_ij(x^p) x^j, reduced here and nowhere before.

    The result is the reduced echelon basis of the solutions in that basis,
    coordinates taken last-first: each vector has a 1 at its last nonzero
    coordinate and 0 at those of the others, in increasing order of it.  The
    solution space alone fixes it; it is the kernel basis Gaussian elimination
    of the rp x rp matrix of T would give.  Each vector is re-verified: its
    numerators w over P(x^p), whose derivative is 0, satisfy beta w' + B w = 0.
    """
    return [tuple(RatFunc(e, den) for e in w) for w, den in _horizontal_sections(*a.cleared)]


def _horizontal_sections(bmat, beta: Poly, iterates=None) -> list[tuple[list[Poly], Poly]]:
    """``horizontal_sections`` of A = bmat/beta as cleared pairs (w, P(x^p)),
    the section being w/P(x^p) entrywise and unreduced, from the
    ``_t_iterates`` of A when the caller has them; a polynomial A may come as
    its rows with beta = 1."""
    F = beta.field
    p = F.p
    r = len(bmat)
    if iterates is None:
        iterates = _t_iterates(bmat, beta, p)
    ker = _kernel_core(_cleared_psi(iterates)[0])
    if not ker:
        return []
    a0 = next((c for c in F.elements()
               if beta.evaluate(c) and all(w[fc].evaluate(c) for fc, w in ker)), 0)
    neg_t = Poly(F, [a0, F.neg(1)])
    weights = [Poly.one(F)]  # (-t)^k / k!
    for k in range(1, p):
        weights.append((weights[-1] * neg_t).scale(F.inv(F.scalar(k))))
    nums, dens = iterates
    outer = [w * d for w, d in zip(weights, dens[:0:-1])]  # c_m beta^(p-m)
    rows: list[list[Poly]] = []
    for j in range(p):
        for _, w in ker:
            image = _project(nums, weights, outer, [Poly(F, (0,) * j + e.coeffs) for e in w])
            rows.append([Poly(F, n.coeffs[t::p]) for n in image for t in range(p)][::-1])
        pivots = _echelon(rows)
        del rows[len(pivots):]
        if len(pivots) == len(ker):
            break
    else:
        raise InternalInvariantError(
            f"projected sections have rank {len(rows)}, ker psi has dimension {len(ker)}")
    sols = []
    for row, c in zip(reversed(rows), reversed(pivots)):
        kv = row[::-1]  # coefficient t of coordinate i p + j is coefficient t p + j of w_i
        cs = [[0] * (p * max(len(e.coeffs) for e in kv[i * p:i * p + p])) for i in range(r)]
        for k, e in enumerate(kv):
            cs[k // p][k % p:k % p + p * len(e.coeffs):p] = e.coeffs
        w = [Poly(F, ws) for ws in cs]
        if any(poly_dot([(beta, wi.derivative()), *zip(brow, w)], F) for wi, brow in zip(w, bmat)):
            raise InternalInvariantError("claimed horizontal section fails T(v) = 0")
        sols.append((w, row[c].compose_xpow(p)))
    return sols


def _project(nums, weights: list[Poly], outer: list[Poly], g: list[Poly]) -> list[Poly]:
    """The numerators of P(g) = sum_k c_k T^k g over beta^p, c_k = weights[k],
    from T^m e_i = nums[i][m]/beta^m and outer[m] = c_m beta^(p-m).

    By Leibniz, T^k (f e_i) = sum_m C(k, m) f^(k-m) T^m e_i and
    c_k C(k, m) = c_m c_(k-m), so P(g) = sum_i sum_m c_m D_m(g_i) T^m e_i with
    D_m(f) = sum_{l < p-m} c_l f^(l).  Over beta^p the term (i, m) has the
    numerator D_m(g_i) outer[m] nums[i][m], so each coordinate's numerator is
    one ``poly_dot``.
    """
    p = len(weights)
    F = weights[0].field
    terms = []
    for f, its in zip(g, nums):
        if not f:
            continue
        derivs = [f]
        for _ in range(p - 1):
            derivs.append(derivs[-1].derivative())
        dm = f  # D_{p-1}(f)
        for m in range(p - 1, -1, -1):
            if m < p - 1 and derivs[p - 1 - m]:
                dm = dm + weights[p - 1 - m] * derivs[p - 1 - m]
            tn = its[m]
            if dm and any(tn):
                terms.append((dm * outer[m], tn))
    return [poly_dot([(f, tn[i]) for f, tn in terms], F) for i in range(len(g))]
