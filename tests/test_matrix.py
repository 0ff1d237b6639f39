import itertools
import math
import random
import sys

import pytest

from pflags import matrix, properties
from pflags.errors import InternalInvariantError, PflagsError
from pflags.fields import GF, _reduce_mod_p
from pflags.hitchin import ChartConn, char_poly_psi
from pflags.matrix import (
    MatRF,
    _kernel_core,
    _primitive,
    _rref,
    _t_iterates,
    _t_step,
    apply_connection,
    charpoly_berkowitz,
    gauge_transform,
    horizontal_sections,
    inverse,
    is_nilpotent,
    kernel,
    p_curvature_matrix,
)
from pflags.poly import Poly, poly_dot, poly_gcd
from pflags.ratfunc import RatFunc, in_frobenius_subfield
from pflags.sampling import (
    random_flat_conn0,
    random_poly,
    random_polynomial_gauge,
    random_ratfunc,
    random_strict_upper,
)


def rf(field, coeffs, den=None):
    return RatFunc(Poly(field, coeffs), Poly(field, den) if den else None)


def _clear_denominators(rows):
    """Oracle for clearing: a matrix of reduced rational functions as N/delta,
    the polynomial rows of N and delta, the monic lcm of the entry
    denominators, formed entry by entry (the library clears with
    ``matrix._clear_fractions``)."""
    delta = Poly.one(rows[0][0].field)
    for row in rows:
        for e in row:
            delta = delta // poly_gcd(delta, e.den) * e.den
    return [[e.num * (delta // e.den) for e in row] for row in rows], delta


# -- characteristic polynomial: pinned examples and the cofactor oracle -------------


def test_charpoly_identity():
    F = GF(5)
    cp = charpoly_berkowitz(MatRF.identity(F, 2))
    assert cp == [rf(F, [1]), rf(F, [3]), rf(F, [1])]  # t^2 - 2t + 1


def test_charpoly_antidiagonal():
    F = GF(5)
    m = MatRF(F, [[rf(F, []), rf(F, [0, 1])], [rf(F, [1]), rf(F, [])]])
    assert charpoly_berkowitz(m) == [rf(F, [0, 4]), rf(F, []), rf(F, [1])]  # t^2 - x


def test_charpoly_f3_mixed():
    F = GF(3)
    m = MatRF(F, [[rf(F, [2]), rf(F, [0, 1])], [rf(F, [0, 0, 1]), rf(F, [1])]])
    assert charpoly_berkowitz(m) == [rf(F, [2, 0, 0, 2]), rf(F, []), rf(F, [1])]


def test_charpoly_matches_cofactor_expansion_sampled():
    assert properties.check_berkowitz_vs_cofactor(seed=2024, n=100).passed


def charpoly_entrywise_ref(m):
    """Reference: Berkowitz's recurrence run directly on the reduced RatFunc
    entries, with no common denominator."""
    F = m.field

    def dot(u, v):
        acc = RatFunc.zero(F)
        for a, b in zip(u, v):
            acc = acc + a * b
        return acc

    one = RatFunc.one(F)
    poly = [one, -m.rows[0][0]]
    for i in range(1, m.n):
        row = m.rows[i][:i]
        col = tuple(m.rows[t][i] for t in range(i))
        sub = [m.rows[t][:i] for t in range(i)]
        toeplitz_col = [one, -m.rows[i][i]]
        v = col
        for _ in range(i):
            toeplitz_col.append(-dot(row, v))
            v = tuple(dot(r, v) for r in sub)
        poly = [dot([toeplitz_col[t - b] for b in range(min(t, i) + 1)],
                    poly[:min(t, i) + 1]) for t in range(i + 2)]
    poly.reverse()
    return poly


def _matrix_with_dens(rng, field, n, dens):
    """A random n x n matrix whose entries have no, one shared, or distinct
    random denominators."""
    shared = random_poly(rng, field, 2, nonzero=True)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = random_poly(rng, field, 2)
            if dens == "none":
                row.append(RatFunc(num))
            elif dens == "shared":
                row.append(RatFunc(num, shared))
            else:
                row.append(RatFunc(num, random_poly(rng, field, 2, nonzero=True)))
        rows.append(row)
    return MatRF(field, rows)


def test_charpoly_matches_entrywise_recurrence_and_cofactor():
    rng = random.Random(606)
    fields = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]
    for F in fields:
        for n in range(1, 5):
            mats = [MatRF.zeros(F, n)]
            mats += [_matrix_with_dens(rng, F, n, dens)
                     for dens in ("none", "shared", "distinct") for _ in range(2)]
            for m in mats:
                got = charpoly_berkowitz(m)
                assert tuple(got) == tuple(charpoly_entrywise_ref(m))
                if n <= 3:
                    assert got == properties.charpoly_cofactor(m)


# -- elimination ---------------------------------------------------------------------


def test_inverse_roundtrip():
    rng = random.Random(7)
    F = GF(5)
    for _ in range(20):
        r = rng.randint(1, 3)
        m = MatRF(F, [[random_ratfunc(rng, F, 2, 1) for _ in range(r)] for _ in range(r)])
        try:
            mi = inverse(m)
        except PflagsError:
            assert charpoly_berkowitz(m)[0].is_zero()  # det = (-1)^r * a_0
            continue
        assert m * mi == MatRF.identity(F, r)


def test_kernel_vectors_annihilate():
    rng = random.Random(8)
    F = GF(3)
    zero = RatFunc.zero(F)
    for _ in range(20):
        r = rng.randint(2, 4)
        rows = [[random_ratfunc(rng, F, 1, 1) for _ in range(r)] for _ in range(r)]
        rows[rng.randrange(r)] = list(rows[rng.randrange(r)])  # force dependence sometimes
        m = MatRF(F, rows)
        for v in kernel(m):
            assert m.matvec(v) == tuple([zero] * r)


def test_kernel_of_zero_matrix_is_standard_basis():
    F = GF(2)
    ker = kernel(MatRF.zeros(F, 3))
    assert len(ker) == 3
    for i, v in enumerate(ker):
        assert [e.is_one() for e in v] == [j == i for j in range(3)]


# Oracle: Gauss-Jordan on reduced rational functions, one gcd per operation.
# ``_rref`` eliminates fraction-free on polynomial rows, a forward phase and a
# back-substitution; its rows over their pivot entries must give the same
# reduced form, which the row space alone fixes.


def _rref_ref(rows):
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _echelon_as_fractions(rows):
    """``_rref`` on the rows cleared one by one, read out as rational
    functions over each row's pivot entry, zero rows last."""
    prows = [_clear_denominators([row])[0][0] for row in rows]
    pivots = _rref(prows)
    zero = RatFunc.zero(rows[0][0].field)
    out = [[RatFunc(e, row[c]) for e in row] for row, c in zip(prows, pivots)]
    return out + [[zero] * len(rows[0]) for _ in rows[len(pivots):]], pivots


ORACLE_FIELDS = [GF(2), GF(3), GF(7), GF(2, 2), GF(3, 2)]


def _elimination_cases(rng, field):
    """Square matrices with sparse entries, non-unit denominators, rank
    deficiency (a row a multiple of another) and zero rows."""
    zero = RatFunc.zero(field)
    cases = []
    for n in range(1, 5):
        for _ in range(6):
            m = [[random_ratfunc(rng, field, 2, 2) if rng.random() < 0.75 else zero
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.4:
                c = random_ratfunc(rng, field, 1, 1)
                m[-1] = [c * e for e in m[0]]
            if rng.random() < 0.2:
                m[rng.randrange(n)] = [zero] * n
            cases.append(m)
    return cases


def test_rref_kernel_and_inverse_match_the_gauss_jordan_oracle():
    rng = random.Random(909)
    seen = dict.fromkeys(["singular", "zero row", "pole", "invertible"], 0)
    for F in ORACLE_FIELDS:
        zero, one = RatFunc.zero(F), RatFunc.one(F)
        for m in _elimination_cases(rng, F):
            n = len(m)
            wide = [row + [random_ratfunc(rng, F, 2, 2) for _ in range(2)] for row in m]
            aug = [row + [one if j == i else zero for j in range(n)] for i, row in enumerate(m)]
            for rows in (m, wide, aug):
                assert _echelon_as_fractions(rows) == _rref_ref(rows)
            assert kernel(MatRF(F, m)) == _kernel_ref(m, F)
            ref_rows, ref_pivots = _rref_ref(aug)
            if ref_pivots == list(range(n)):
                assert inverse(MatRF(F, m)) == MatRF(F, [row[n:] for row in ref_rows])
                seen["invertible"] += 1
            else:
                with pytest.raises(PflagsError):
                    inverse(MatRF(F, m))
                seen["singular"] += 1
            seen["zero row"] += any(all(e.is_zero() for e in row) for row in m)
            seen["pole"] += any(not e.den.is_one() for row in m for e in row)
    assert min(seen.values()) >= 15, seen


def test_kernel_core_spans_the_lines_of_kernel_and_the_oracle():
    # the core's primitive polynomial vector w for free column fc spans the
    # line of the reduced vector with a 1 at fc: w/w[fc] is that vector
    rng = random.Random(911)
    seen = 0
    for F in ORACLE_FIELDS:
        for m in _elimination_cases(rng, F):
            rows = [_clear_denominators([row])[0][0] for row in m]
            copy = list(rows)
            core = _kernel_core(rows)
            assert rows == copy
            ker = kernel(MatRF(F, m))
            assert ker == _kernel_ref(m, F)
            assert len(core) == len(ker)
            for (fc, w), v in zip(core, ker):
                assert v[fc].is_one()
                assert tuple(RatFunc(e, w[fc]) for e in w) == v
                assert _primitive(w) is w  # the gcd of the entries is a unit
                assert all(not poly_dot(zip(row, w), F) for row in rows)
            seen += len(core)
    assert seen >= 60, seen


def test_is_nilpotent_matches_the_power_oracle():
    # the polynomial-row test det(s - N) = s^n against the power of m over
    # F_q(x), on conjugates g^-1 U g of strictly upper U with poles, and random
    # matrices
    rng = random.Random(912)
    seen = {True: 0, False: 0}
    for F in ORACLE_FIELDS:
        zero = RatFunc.zero(F)
        for n in range(1, 5):
            for _ in range(6):
                if rng.random() < 0.5:
                    u = MatRF(F, [[random_ratfunc(rng, F, 2, 1) if j > i else zero
                                   for j in range(n)] for i in range(n)])
                    g = random_polynomial_gauge(rng, F, n)
                    m = inverse(g) * u * g
                else:
                    m = MatRF(F, [[random_ratfunc(rng, F, 2, 1) if rng.random() < 0.6 else zero
                                   for _ in range(n)] for _ in range(n)])
                got = is_nilpotent(m)
                assert got == m.pow(n).is_zero()
                seen[got] += 1
    assert min(seen.values()) >= 30, seen


def test_echelon_degrees_stay_within_the_cramer_bound():
    # an entry of a primitive echelon row is a minor up to a common factor,
    # so n x m polynomial rows of degree <= d give entries of degree <= n d;
    # without the gcd per step the degrees would double with every pivot
    rng = random.Random(910)
    for field in (GF(7), GF(3, 2)):
        for n, m in ((4, 4), (4, 8), (5, 5)):
            rows = [[random_poly(rng, field, 3) for _ in range(m)] for _ in range(n)]
            pivots = matrix._rref(rows)
            assert len(pivots) == n
            assert max(e.degree for row in rows for e in row) <= 3 * n


# -- connection operator ---------------------------------------------------------------


def naive_p_curvature(a, p):
    """Oracle: iterate T entrywise with plain rational arithmetic, no common
    denominator bookkeeping."""
    F = a.field
    n = a.n
    cols = []
    for i in range(n):
        v = tuple(RatFunc.one(F) if t == i else RatFunc.zero(F) for t in range(n))
        for _ in range(p):
            v = apply_connection(a, v)
        cols.append(v)
    return MatRF(F, [[cols[j][i] for j in range(n)] for i in range(n)])


def test_p_curvature_matches_naive_iteration():
    rng = random.Random(9)
    for p in (2, 3, 5):
        F = GF(p)
        for _ in range(8):
            r = rng.randint(1, 3)
            a = MatRF(F, [[random_ratfunc(rng, F, 2, 1) for _ in range(r)]
                          for _ in range(r)])
            assert p_curvature_matrix(a) == naive_p_curvature(a, p)


# -- fixed-denominator iteration against the gcd-per-step reference -----------------

POLE_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)]


def reference_apply_t(bmat, beta, num, den):
    """T(num/den) with A = bmat/beta as (beta(num' den - num den') + den bmat num)
    / (beta den^2), reduced by the gcd of every entry and made monic."""
    field = beta.field
    bn = []
    for row in bmat:
        acc = Poly.zero(field)
        for b, e in zip(row, num):
            acc = acc + b * e
        bn.append(acc)
    dden = den.derivative()
    new_num = [beta * (e.derivative() * den - e * dden) + den * b for e, b in zip(num, bn)]
    new_den = beta * den * den
    g = new_den
    for e in new_num:
        g = poly_gcd(g, e)
    new_num = [e // g for e in new_num]
    new_den = new_den // g
    c = field.inv(new_den.lc())
    return [e.scale(c) for e in new_num], new_den.scale(c)


def column_matrix(field, columns):
    """Oracle: the matrix whose j-th column is the vector numerators/denominator,
    reduced entry by entry."""
    n = len(columns)
    return MatRF(field, [[RatFunc(columns[j][0][i], columns[j][1]) for j in range(n)]
                         for i in range(n)])


def reference_iterates(a, steps):
    """T^k e_i for k = 0..steps by ``reference_apply_t``, one list per i."""
    field = a.field
    bmat, beta = _clear_denominators(a.rows)
    out = []
    for i in range(a.n):
        its = [([Poly.one(field) if t == i else Poly.zero(field) for t in range(a.n)],
                Poly.one(field))]
        for _ in range(steps):
            its.append(reference_apply_t(bmat, beta, *its[-1]))
        out.append(its)
    return out


def pole_chart(rng, field, r, poles):
    """A random r x r matrix whose entry denominators are 1 ("none"), one
    shared quadratic ("shared"), a linear factor per entry ("distinct") or a
    square or cube of one ("repeated")."""
    def linear():
        return Poly(field, [rng.randrange(field.q), 1])

    shared = linear() * linear()
    den = {"none": lambda: Poly.one(field), "shared": lambda: shared,
           "distinct": linear, "repeated": lambda: linear() ** rng.randint(2, 3)}[poles]
    return MatRF(field, [[RatFunc(random_poly(rng, field, 2), den()) for _ in range(r)]
                         for _ in range(r)])


def pole_charts():
    rng = random.Random(2014)
    return [pole_chart(rng, field, r, poles) for field in POLE_FIELDS
            for poles in ("none", "shared", "distinct", "repeated") for r in range(1, 5)]


def test_t_iterates_match_gcd_per_step_reference():
    for a in pole_charts():
        p = a.field.p
        ref = reference_iterates(a, 2 * p)
        bmat, beta = _clear_denominators(a.rows)
        nums = t_levels(bmat, beta)
        for its, ref_its in zip(nums, ref):
            for k, (num, (ref_num, ref_den)) in enumerate(zip(its, ref_its)):
                assert [RatFunc(e, beta**k) for e in num] == [RatFunc(e, ref_den) for e in ref_num]
        # the library's iterates: level p alone, over beta^p
        assert _t_iterates(bmat, beta) == ([its[-1] for its in nums], beta**p)
        assert p_curvature_matrix(a) == column_matrix(a.field, [its[p] for its in ref])
        if a.n > 2:
            continue
        # past T^p the step's k >= p must enter as k mod p (over GF(4) and GF(9)
        # the integer k itself would be another field element): the level-p
        # numerators, stepped on as extra columns by k = p..2p-1
        state, step, read, _ = _t_step(bmat, beta, [its[p] for its in nums], p)
        for k in range(p, 2 * p):
            state = step(state, k)
            for num, ref_its in zip(read(state, a.n), ref):
                ref_num, ref_den = ref_its[k + 1]
                assert ([RatFunc(e, beta ** (k + 1)) for e in num]
                        == [RatFunc(e, ref_den) for e in ref_num])


def apply_t_oracle(bmat, beta, num, k):
    """Oracle: one T step as one ``poly_dot`` per entry, over (bmat_ij, n_j),
    (beta, n_i') and (-k beta', n_i)."""
    field = beta.field
    neg_kdb = beta.derivative().scale(field.scalar(-k))
    return [poly_dot([*zip(row, num), (beta, ni.derivative()), (neg_kdb, ni)], field)
            for ni, row in zip(num, bmat)]


# 1-byte slots at p <= 7, then H, I, Q and slots wider than 8 bytes
STEP_PRIMES = (2, 3, 7, 31, 251, 65521, 2**31 - 1, 2**61 - 1)


def step_cases(field, rng):
    """(bmat, beta, num) on pole charts of rank 1-3 over field, num a random
    numerator vector with a zero entry, a constant and a p-th power among
    its entries, so that pairs are skipped and derivatives vanish; last, a
    rank-1 step whose coefficients are all p - 1, -beta' included, so that
    its integer sums need the beta and beta' terms of the slot bound."""
    p = field.p
    for r in (1, 2, 3):
        for poles in ("none", "shared", "distinct", "repeated"):
            bmat, beta = _clear_denominators(pole_chart(rng, field, r, poles).rows)
            num = [random_poly(rng, field, rng.randint(0, 6)) for _ in range(r)]
            num[rng.randrange(r)] = rng.choice(
                [Poly.zero(field), Poly.one(field), Poly.monomial(field, 1, p) if p < 99
                 else Poly.x(field)])
            yield bmat, beta, num
    top = p - 1
    beta = Poly(field, [1] + [field.div(top, field.scalar(-i)) if i % p else 1
                              for i in range(1, 6)])
    yield [[Poly(field, [top])]], beta, [Poly(field, [top] * 5)]


def unit_columns(field, r):
    return [[Poly.one(field) if j == i else Poly.zero(field) for j in range(r)]
            for i in range(r)]


def t_levels(bmat, beta, extra=()):
    """Every level of the T iteration that ``_katz_pass`` runs, read out:
    nums[l][k] the numerators of T^k v_l over beta^k, k = 0..p, for the
    columns v = e_0, ..., e_(r-1) and then those of ``extra``, stepped in
    the stages of ``_t_stages`` by ``_t_step`` as the library steps them."""
    cols = unit_columns(beta.field, len(bmat)) + list(extra)
    levels = [cols]
    for k, steps in matrix._t_stages(beta.field.p):
        state, step, read, _ = matrix._t_step(bmat, beta, cols, steps)
        for j in range(k, k + steps):
            state = step(state, j)
            levels.append(read(state, len(cols)))
        cols = levels[-1]
    return [list(its) for its in zip(*levels)]


def t_step_comparisons(fields):
    """(got, want) for every level the per-entry oracle checks over the given
    fields: each case steps e_0..e_(r-1), num and two more columns of other
    lengths at once, one step from level 0 at each k, then three steps in a
    row from k, each level against the oracle."""
    rng = random.Random(16)
    for field in fields:
        p = field.p
        for bmat, beta, num in step_cases(field, rng):
            r = len(bmat)
            extra = [num, [random_poly(rng, field, rng.randint(0, 9)) for _ in range(r)],
                     [Poly.zero(field)] * (r - 1) + [random_poly(rng, field, 3)]]
            cols = unit_columns(field, r) + extra
            state, step, read, _ = _t_step(bmat, beta, cols, 1)
            yield read(state, len(cols)), cols
            for k in (0, 1, p - 1, p, 2 * p + 1):
                yield read(step(state, k), len(cols)), [apply_t_oracle(bmat, beta, col, k)
                                                        for col in cols]
            state, step, read, _ = _t_step(bmat, beta, cols, 3)
            want = cols
            for k in (p - 2, p - 1, p) if p > 2 else (0, 1, 2):
                state = step(state, k)
                want = [apply_t_oracle(bmat, beta, col, k) for col in want]
                yield read(state, len(want)), want


# cells of 3 to 25 slots; GF(2^13) and GF(67^2) lie above the log-table cap
EXT_STEP_FIELDS = (GF(2, 2), GF(3, 2), GF(2, 13), GF(5, 3), GF(7, 2), GF(67, 2))


def test_t_step_matches_the_per_entry_oracle():
    for got, want in t_step_comparisons([GF(p) for p in STEP_PRIMES] + list(EXT_STEP_FIELDS)):
        assert got == want


@pytest.fixture
def cold_layouts():
    """An empty layout cache, emptied again after the test, so that the test
    reuses no layout another test built and leaves none of its own."""
    layouts = matrix._t_layout
    layouts.cache_clear()
    yield layouts
    layouts.cache_clear()


def _stride_short(layout):
    """The blocks packed and read one slot closer, the masks as they are."""
    block = max(layout.block - layout.bits, layout.bits)
    return layout._replace(block=block, block_mask=(1 << block) - 1,
                           offsets=range(0, len(layout.offsets) * block, block))


def _relaid(layout, field, cell, exponent):
    """The layout with cells of ``cell`` slots, the masks and the folds laid
    out for them, and mask b of the derivative holding cell t when bit b of
    exponent(t) is set; its slot width, Barrett constants and R_j as built."""
    bits, digits = layout.bits, field.k
    size = layout.block // (layout.cell * bits)
    block = size * cell * bits
    offsets = range(0, len(layout.offsets) * block, block)
    starts = sum(1 << o for o in offsets)
    full = (1 << bits) - 1

    def cells(slots):
        return layout.pack(slots * size) * starts
    dmasks = tuple((layout.pack([full if exponent(t) >> b & 1 else 0 for t in range(size)
                                 for _ in range(cell)]) * starts, cell * bits - b)
                   for b in range((field.p - 1).bit_length()))
    folds = tuple((j * bits, fold) for j, (_, fold) in zip(range(digits, cell), layout.folds))
    return layout._replace(
        cell=cell, quo_mask=cells([layout.quo_mask & full] * cell), dmasks=dmasks,
        low=cells([full] * digits + [0] * (cell - digits)) if folds else 0,
        first=cells([full] + [0] * (cell - 1)) if folds else 0, folds=folds,
        block=block, block_mask=(1 << block) - 1, offsets=offsets)


def _masks_from_t(layout, field):
    """Mask b holding the cells t with bit b of t set, not of t mod p."""
    return _relaid(layout, field, layout.cell, lambda t: t)


def _sign_flipped(layout, field):
    """R_j the digits of z^j modulo the modulus with its lower coefficients
    negated, z^d = +(them) in place of -(them)."""
    p = field.p
    flipped = [-c % p for c in field.modulus[:-1]] + [1]
    folds = []
    for down, _ in layout.folds:
        rem = [0] * (down // layout.bits) + [1]
        _reduce_mod_p(rem, flipped, p)
        folds.append((down, layout.pack(rem[:field.k])))
    return layout._replace(folds=tuple(folds))


LAYOUT_MUTANTS = {
    "blocks one slot short": lambda true, F, n, size, c: true(F, n, max(size - 1, 1), c),
    "block stride one slot short": lambda true, *shape: _stride_short(true(*shape)),
    "Barrett constant rounded down": lambda true, F, *shape: true(F, *shape)._replace(
        barrett=(1 << true(F, *shape).shift) // F.p),
    "masks from t, not t mod p": lambda true, F, *shape: _masks_from_t(true(F, *shape), F),
}

FOLD_MUTANTS = {
    "z^(2d - 2) fold dropped": lambda true, *shape: true(*shape)._replace(
        folds=true(*shape).folds[:-1]),
    "R_j of the modulus with its sign flipped": lambda true, F, *shape: _sign_flipped(
        true(F, *shape), F),
    "cell stride 2d - 2": lambda true, F, *shape: _relaid(
        true(F, *shape), F, true(F, *shape).cell - 1, lambda t: t % F.p),
}


@pytest.mark.parametrize("mutant", LAYOUT_MUTANTS)
def test_a_wrong_t_layout_fails_the_per_entry_oracle(monkeypatch, mutant):
    true = matrix._t_layout
    monkeypatch.setattr(matrix, "_t_layout",
                        lambda *shape: LAYOUT_MUTANTS[mutant](true, *shape))
    assert any(got != want for got, want in t_step_comparisons([GF(p) for p in STEP_PRIMES]))


@pytest.mark.parametrize("mutant", FOLD_MUTANTS)
def test_a_wrong_fold_fails_the_per_entry_oracle(monkeypatch, mutant):
    # each extension field on its own; in characteristic 2 the sign flip
    # leaves every R_j as it is, and the step with it matches the oracle
    true = matrix._t_layout
    layout = true(GF(3, 2), 20, 4, 3)
    assert _relaid(layout, GF(3, 2), layout.cell, lambda t: t % 3) == layout
    monkeypatch.setattr(matrix, "_t_layout", lambda *shape: FOLD_MUTANTS[mutant](true, *shape))
    for field in EXT_STEP_FIELDS:
        wrong = any(got != want for got, want in t_step_comparisons([field]))
        assert wrong == (field.p > 2 or "sign" not in mutant), field


def test_a_cached_t_layout_steps_as_a_fresh_one(monkeypatch, cold_layouts):
    # at every STEP_PRIMES prime, slots of 1 byte to more than 8, and over
    # extension fields, cells of 3 to 25 slots with and without log tables:
    # a step on a layout just built and one on the same layout found in the
    # cache give equal states and reads; the cache is bounded
    assert cold_layouts.cache_parameters()["maxsize"] is not None
    widths = set()

    def recording(*shape):
        layout = cold_layouts(*shape)
        widths.add(layout.bits)
        return layout
    monkeypatch.setattr(matrix, "_t_layout", recording)
    rng = random.Random(29)
    for field in [GF(p) for p in STEP_PRIMES] + [GF(2, 2), GF(3, 2), GF(2, 13), GF(67, 2)]:
        p = field.p
        for bmat, beta, num in step_cases(field, rng):
            cols = unit_columns(field, len(bmat)) + [num]
            cold_layouts.cache_clear()
            cold = _t_step(bmat, beta, cols, 2)
            assert cold_layouts.cache_info().misses == 1
            warm = _t_step(bmat, beta, cols, 2)
            assert cold_layouts.cache_info().misses == 1
            assert cold[0] == warm[0]
            for k in (0, 1, p - 1):
                stepped = cold[1](cold[0], k)
                assert warm[1](warm[0], k) == stepped
                assert cold[2](stepped, len(cols)) == warm[2](stepped, len(cols))
    assert min(widths) == 8 and max(widths) > 64


def test_t_step_forms_minus_k_beta_prime_once_per_k_mod_p(monkeypatch, cold_layouts):
    # at every k nothing is packed after the kernel is built and no Poly is
    # scaled, -k beta' being the packed beta' times -k mod p, over an
    # extension field digit by digit.  The layout cache starts empty, so
    # every layout is built with the counting codec
    true_codec, true_scale = matrix._slot_codec, Poly.scale
    packs = scales = 0

    def counting_codec(bound):
        bits, pack, unpack = true_codec(bound)

        def counted(cs):
            nonlocal packs
            packs += 1
            return pack(cs)
        return bits, counted, unpack

    def counting_scale(f, c):
        nonlocal scales
        scales += 1
        return true_scale(f, c)

    monkeypatch.setattr(matrix, "_slot_codec", counting_codec)
    monkeypatch.setattr(Poly, "scale", counting_scale)
    rng = random.Random(23)
    for field in (GF(5), GF(7), GF(2, 2), GF(3, 2)):
        p = field.p
        for bmat, beta, num in step_cases(field, rng):
            state, step, read, _ = _t_step(bmat, beta, [num], 1)
            assert packs  # the kernel packs with the counting codec
            packs = 0
            for k in range(p):
                read(step(state, k), 1)
            assert packs == 0
            scales = 0
            for k in range(p, 3 * p):
                read(step(state, k), 1)
            assert packs == 0
            assert scales == 0


def test_each_t_step_closure_steps_at_distinct_k_below_p(monkeypatch):
    # every closure ``_t_step`` returns is stepped at distinct k, and the
    # closures of one ``_katz_pass`` together at exactly k = 0..p - 1, with
    # or without the projector's weights and extra columns, below and above
    # _T_STAGE: so a per-closure memo of -k beta' would never be hit
    true_step, runs = matrix._t_step, []

    def recording(*args):
        state, step, read, layout = true_step(*args)
        ks = []
        runs[-1].append(ks)

        def recorded(state, k):
            ks.append(k)
            return step(state, k)
        return state, recorded, read, layout
    monkeypatch.setattr(matrix, "_t_step", recording)
    rng = random.Random(32)
    for field in (GF(5), GF(11), GF(31), GF(2, 2), GF(3, 2)):
        p = field.p
        for r in (1, 2, 3):
            bmat, beta = _clear_denominators(pole_chart(rng, field, r, "shared").rows)
            extras = ((), ([random_poly(rng, field, 3) for _ in range(r)],
                           [Poly.zero(field)] * r))
            for extra in extras:
                cols = unit_columns(field, r) + list(extra)
                for weights in ((), matrix._katz_products(beta, 0)):
                    runs.append([])
                    matrix._katz_pass(bmat, beta, cols, weights)
                    closures = runs[-1]
                    assert (len(closures) > 1) == (p > matrix._T_STAGE)
                    assert all(len(set(ks)) == len(ks) for ks in closures)
                    assert sorted(k for ks in closures for k in ks) == list(range(p))


def p31_chart():
    """A rank-2 chart at p = 31 whose det psi is not zero."""
    return pole_chart(random.Random(31), GF(31), 2, "shared")


def test_t_iterate_degrees_grow_at_most_linearly():
    for a in pole_charts() + [p31_chart()]:
        bmat, beta = _clear_denominators(a.rows)
        step = max(beta.degree - 1, max(e.degree for row in bmat for e in row))
        assert _t_iterates(bmat, beta)[1] == beta**a.field.p
        for its in t_levels(bmat, beta):
            for k, num in enumerate(its):
                assert all(e.degree <= k * step for e in num if not e.is_zero())


def test_t_length_bounds_every_level():
    # the kernel's block length bounds every numerator of every level, and is
    # no larger than the uniform bound max(len) + p max(deg B, deg beta - 1);
    # on flat connections (nilpotent B over beta = 1) it is far smaller
    rng = random.Random(4711)
    cases = [(*_clear_denominators(a.rows), []) for a in pole_charts() + [p31_chart()]]
    for bmat, beta, _ in cases[:20]:
        F = beta.field
        cases.append((bmat, beta, [[random_poly(rng, F, rng.randint(0, 4)) for _ in bmat]]))
    flat = [random_flat_conn0(rng, GF(p), r) for p in (5, 7, 11) for r in (2, 3, 4)]
    cases += [(c.A, Poly.one(c.field), []) for c in flat]
    tighter = 0
    for bmat, beta, extra in cases:
        F = beta.field
        p = F.p
        lens = [max([1, *(len(col[j].coeffs) for col in extra)]) for j in range(len(bmat))]
        length = matrix._t_length(tuple(tuple(len(e.coeffs) for e in row) for row in bmat),
                                  len(beta.coeffs), tuple(lens), p)
        nums = t_levels(bmat, beta, extra)
        assert max(len(e.coeffs) for its in nums for num in its for e in num) <= length
        grow = max(0, beta.degree - 1, *(e.degree for row in bmat for e in row))
        assert length <= max(lens) + p * grow
        tighter += length < max(lens) + p * grow
    assert tighter >= len(flat)


def test_char_poly_psi_at_p_31_matches_reference():
    a = p31_chart()
    psi = column_matrix(a.field, [its[31] for its in reference_iterates(a, 31)])
    coeffs = list(char_poly_psi(ChartConn(a.field, 2, a)).coeffs)
    assert not coeffs[0].is_zero()
    assert coeffs == charpoly_berkowitz(psi)[:-1]


def test_char_poly_psi_above_the_table_cap_matches_reference():
    # GF(2^13) has no log tables: the T step packs its digits into cells and
    # the reference iterates with poly_dot's digit branch
    F = GF(2, 13)
    assert F._exp is None
    rng = random.Random(8192)
    for r in (2, 3):
        a = pole_chart(rng, F, r, "shared")
        psi = column_matrix(F, [its[2] for its in reference_iterates(a, 2)])
        assert not psi.is_zero()
        coeffs = list(char_poly_psi(ChartConn(F, r, a)).coeffs)
        assert coeffs == charpoly_berkowitz(psi)[:-1]


def test_t_iterates_call_no_poly_operator(monkeypatch):
    # nor does the projector's pass, its weights made before it runs
    cleared = [_clear_denominators(a.rows) for a in pole_charts() + [p31_chart()]]
    passes = [(bmat, beta, unit_columns(beta.field, len(bmat)), matrix._katz_products(beta, 0))
              for bmat, beta in cleared]
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        def counted(*args, _name=name, _original=getattr(Poly, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Poly, name, counted)
    for (bmat, beta), args in zip(cleared, passes):
        matrix._katz_pass(*args)
        _t_iterates(bmat, beta)
    assert calls == []
    assert Poly.one(GF(3)) * Poly.x(GF(3)) == Poly.x(GF(3)) and calls == ["__mul__"]
    # nor does the step call poly_dot at any k, over F_p and F_(p^k) alike:
    # every level of the p steps at k = 0..p - 1, then one step at each
    # k = p..2p - 1
    assert {a.field for a in pole_charts()} == set(POLE_FIELDS)
    monkeypatch.setattr(matrix, "poly_dot", lambda *args: calls.append("poly_dot"))
    for bmat, beta in cleared:
        p = beta.field.p
        start, step, read, _ = _t_step(bmat, beta, unit_columns(beta.field, len(bmat)), p)
        calls.clear()
        state = start
        for k in range(p):
            state = step(state, k)
        for k in range(p, 2 * p):
            step(start, k)
        assert calls == []


def test_t_iterates_level_one_is_the_first_step():
    # the step at k = 0 takes e_i to column i of B, so level 1 is that column
    for a in pole_charts():
        F = a.field
        bmat, beta = _clear_denominators(a.rows)
        nums = t_levels(bmat, beta)
        for i, (its, e) in enumerate(zip(nums, unit_columns(F, a.n))):
            assert its[0] == e
            assert its[1] == [row[i] for row in bmat]


def test_t_iterates_in_stages_match_the_per_entry_oracle():
    # at p = 11 and 37 the steps run in stages of 8, 8, 16, ... steps, each
    # stage repacking the columns: every level against the per-entry oracle
    rng = random.Random(37)
    for p in (11, 37):
        F = GF(p)
        charts = [_clear_denominators(pole_chart(rng, F, r, "shared").rows) for r in (1, 2, 3)]
        charts.append((random_flat_conn0(rng, F, 3).A, Poly.one(F)))
        for bmat, beta in charts:
            extra = [[random_poly(rng, F, 3) for _ in bmat]]
            nums = t_levels(bmat, beta, extra)
            want = unit_columns(F, len(bmat)) + extra
            for k in range(p + 1):  # every level of every column
                assert [its[k] for its in nums] == want
                want = [apply_t_oracle(bmat, beta, col, k) for col in want]
            assert _t_iterates(bmat, beta, extra) == ([its[-1] for its in nums], beta**p)


def _charpoly_in_x(rows, delta):
    """Oracle: each c_i/delta^(n-i) reduced in x, from the numerators of det(s - N)."""
    nums = matrix._berkowitz(rows)
    return [RatFunc(c, delta ** (len(rows) - i)) for i, c in enumerate(reversed(nums))]


def _count_compose_xpow(monkeypatch):
    """A list that gets n for every RatFunc.compose_xpow(n) call from now on."""
    calls = []
    true_compose = RatFunc.compose_xpow
    monkeypatch.setattr(RatFunc, "compose_xpow",
                        lambda f, n: calls.append(n) or true_compose(f, n))
    return calls


def test_charpoly_of_psi_reduces_in_y_as_in_x(monkeypatch):
    # over GF(2), GF(3), GF(5), GF(7), GF(4) and GF(9): delta = beta^p and every
    # numerator lie in F_q[x^p], so every coefficient is reduced in y = x^p
    cases = []
    for a in pole_charts():
        *_, nmat, delta = matrix._p_curvature(*_clear_denominators(a.rows))
        cases.append((nmat, delta, _charpoly_in_x(nmat, delta)))
    assert sum(delta.degree > 0 for _, delta, _ in cases) >= len(cases) // 2
    mapped = _count_compose_xpow(monkeypatch)
    for nmat, delta, want in cases:
        mapped.clear()
        assert matrix._charpoly_cleared(nmat, delta) == want
        assert mapped == [delta.field.p] * (len(nmat) + 1)


def test_charpoly_of_a_general_matrix_reduces_in_x(monkeypatch):
    rng = random.Random(2208)
    mapped = _count_compose_xpow(monkeypatch)
    in_x = 0
    for F in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)):
        for n in (1, 2, 3):
            for dens in ("shared", "distinct"):
                m = _matrix_with_dens(rng, F, n, dens)
                rows, delta = _clear_denominators(m.rows)
                want = _charpoly_in_x(rows, delta)
                assert want == properties.charpoly_cofactor(m)
                mapped.clear()
                assert charpoly_berkowitz(m) == want
                if not in_frobenius_subfield(RatFunc(delta), 1):
                    assert mapped == []
                    in_x += 1
    assert in_x >= 15  # of 30; the others have delta in F_q[x^p] by chance


def test_exact_division_by_delta_matches_one_gcd_reduction():
    # c/delta^k with delta divided out while it divides c equals RatFunc(c, delta^k)
    # on the y path (psi of the pole charts, in y = x^p) and the x path
    # (charpoly_berkowitz's numerators over GF(4), GF(9) and GF(5))
    cases = []
    for a in pole_charts():
        *_, nmat, delta = matrix._p_curvature(*_clear_denominators(a.rows))
        p = delta.field.p
        cases.append(([Poly(delta.field, c.coeffs[::p]) for c in matrix._berkowitz(nmat)],
                      Poly(delta.field, delta.coeffs[::p])))
    rng = random.Random(2209)
    for F in (GF(2, 2), GF(3, 2), GF(5)):
        for n in (1, 2, 3):
            for dens in ("shared", "distinct"):
                rows, delta = _clear_denominators(_matrix_with_dens(rng, F, n, dens).rows)
                cases.append((matrix._berkowitz(rows), delta))
    divided = stopped = 0
    for nums, delta in cases:
        for k, c in enumerate(nums):
            assert matrix._over_power(c, delta, k) == RatFunc(c, delta**k)
            if k and c and delta.degree > 0:
                if divmod(c, delta)[1]:
                    stopped += 1
                else:
                    divided += 1
    assert divided >= 50 and stopped >= 50


def test_scalar_jacobson_formula():
    # rank 1 oracle: psi = a^{(p-1)} + a^p
    rng = random.Random(10)
    for p in (2, 3, 5):
        F = GF(p)
        for _ in range(10):
            a = random_ratfunc(rng, F, 2, 1)
            expected = a
            for _ in range(p - 1):
                expected = expected.derivative()
            expected = expected + a**p
            got = p_curvature_matrix(MatRF(F, [[a]]))
            assert got.rows[0][0] == expected


def test_gauge_transform_composes():
    rng = random.Random(11)
    F = GF(3)
    from pflags.sampling import random_polynomial_gauge

    a = MatRF(F, [[random_ratfunc(rng, F, 1, 1) for _ in range(2)] for _ in range(2)])
    g = random_polynomial_gauge(rng, F, 2)
    h = random_polynomial_gauge(rng, F, 2)
    assert gauge_transform(gauge_transform(a, g), h) == gauge_transform(a, g * h)


def test_is_nilpotent():
    F = GF(3)
    n = MatRF(F, [[RatFunc.zero(F), RatFunc.x(F)], [RatFunc.zero(F), RatFunc.zero(F)]])
    assert is_nilpotent(n)
    assert not is_nilpotent(MatRF.identity(F, 2))


# -- horizontal sections ----------------------------------------------------------------


def test_horizontal_sections_of_derivative_operator():
    F = GF(3)
    sols = horizontal_sections(MatRF.zeros(F, 2))
    assert len(sols) == 2
    for v in sols:
        assert all(e.derivative().is_zero() for e in v)


def test_horizontal_sections_solve_T():
    F = GF(2)
    # A = [[0, 1], [0, 0]]: solutions e1 and (x, 1)
    a = MatRF(F, [[rf(F, []), rf(F, [1])], [rf(F, []), rf(F, [])]])
    sols = horizontal_sections(a)
    assert len(sols) == 2
    zero = RatFunc.zero(F)
    for v in sols:
        assert apply_connection(a, v) == (zero, zero)
    assert sols[0] == (RatFunc.one(F), zero)
    assert sols[1] == (rf(F, [0, 1]), RatFunc.one(F))


def test_horizontal_sections_rank_drops_for_nonzero_psi():
    F = GF(3)
    # cyclic connection with invertible psi: no horizontal sections at all
    a = MatRF(F, [[rf(F, []), rf(F, [1])], [rf(F, [0, 1]), rf(F, [])]])
    assert horizontal_sections(a) == []


# Reference: T(v) = 0 solved as F_q(x^p)-linear algebra on the basis x^j e_i
# (coordinate i p + j) by the rp x rp kernel; horizontal_sections must return
# exactly this basis.


def _frobenius_parts_ref(f, p):
    F = f.field
    if f.is_zero():
        return [RatFunc.zero(F)] * p
    big = f.num * f.den ** (p - 1)
    den_y = Poly(F, [F.frobenius(c) for c in f.den.coeffs])
    return [RatFunc(Poly(F, big.coeffs[j::p]), den_y) for j in range(p)]


def _kernel_ref(rows, field):
    """Right kernel by the Gauss-Jordan oracle: a 1 at each free column, free
    columns in increasing order."""
    rows, pivots = _rref_ref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [RatFunc.zero(field)] * ncols
        v[fc] = RatFunc.one(field)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def horizontal_sections_rp(a):
    F = a.field
    p = F.p
    r = a.n
    dim = r * p
    zero = RatFunc.zero(F)
    cols = []
    for i in range(r):
        a_parts = [_frobenius_parts_ref(a.rows[t][i], p) for t in range(r)]
        for j in range(p):
            col = [zero] * dim
            if j >= 1:
                col[i * p + (j - 1)] = RatFunc.constant(F, F.scalar(j))
            for t in range(r):
                for jj in range(p):
                    c = a_parts[t][jj]
                    if c.is_zero():
                        continue
                    e = jj + j
                    if e >= p:
                        c = c * RatFunc.x(F)
                        e -= p
                    col[t * p + e] = col[t * p + e] + c
            cols.append(col)
    sols = []
    for kv in _kernel_ref([[cols[c][t] for c in range(dim)] for t in range(dim)], F):
        v = []
        for i in range(r):
            acc = RatFunc.zero(F)
            for j in range(p):
                if not kv[i * p + j].is_zero():
                    acc = acc + kv[i * p + j].compose_xpow(p) * RatFunc(Poly.monomial(F, 1, j))
            v.append(acc)
        sols.append(tuple(v))
    return sols


def solve_ref(m_cols, target, field):
    """Solve sum_j x_j m_cols[j] = target by reduced row echelon form of the
    augmented matrix; None when inconsistent."""
    ncols = len(m_cols)
    aug = [[col[i] for col in m_cols] + [target[i]] for i in range(len(target))]
    rows, pivots = _rref_ref(aug)
    if ncols in pivots:
        return None
    x = [RatFunc.zero(field)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return tuple(x)


def _restricted_to_ker_psi(a):
    """T restricted to the span of the kernel basis of psi, as in the
    nilpotent flag construction."""
    F = a.field
    basis = kernel(p_curvature_matrix(a))
    cols = [solve_ref(basis, apply_connection(a, v), F) for v in basis]
    k = len(basis)
    return MatRF(F, [[cols[j][i] for j in range(k)] for i in range(k)])


def _frame_with_short_round(rng, field, r):
    """A = F^-1 F' for a polynomial F whose first row lies in x F_q(x^p), with
    a pole of A at every F_q point, or None.  The horizontal frame is F^-1,
    so the images of e_i under the projector expanded at 0 have a zero first
    coordinate in that frame: the round j = 0 falls short of rank r."""
    p = field.p
    rows = [[RatFunc(Poly.x(field) * random_poly(rng, field, 1).compose_xpow(p))
             for _ in range(r)]]
    rows += [[RatFunc(random_poly(rng, field, 2)) for _ in range(r)] for _ in range(r - 1)]
    f = MatRF(field, rows)
    try:
        a = inverse(f) * f.derivative()
    except PflagsError:
        return None
    return a if _no_regular_point(a) else None


def _katz_images_at_zero(a):
    """P(e_i) = sum_{k<p} (-x)^k/k! T^k e_i, by repeated application of T."""
    F = a.field
    p = F.p
    zero, one = RatFunc.zero(F), RatFunc.one(F)
    images = []
    for i in range(a.n):
        v = tuple(one if t == i else zero for t in range(a.n))
        acc = v
        weight = RatFunc.one(F)
        for k in range(1, p):
            v = apply_connection(a, v)
            weight = weight * RatFunc(Poly(F, [0, F.neg(1)])) * RatFunc.constant(
                F, F.inv(F.scalar(k)))
            acc = tuple(s + weight * e for s, e in zip(acc, v))
        images.append(acc)
    return MatRF(F, [[images[j][i] for j in range(a.n)] for i in range(a.n)])


def _no_regular_point(a):
    F = a.field
    return all(any(e.den.evaluate(c) == 0 for row in a.rows for e in row)
               for c in F.elements())


def _pole_at_zero_charts(rng, field):
    """Flat charts with beta(0) = 0: diag(c_i/x), c_i in F_p^*, gauged by a
    polynomial gauge of constant determinant, at ranks 1-3.  For A = c/x the
    projector expanded at 0 maps x^j to x^j sum_{k<p} (-1)^k C(j + c, k),
    which is 0 unless j + c = 0 mod p, so a0 = 0 needs more than one round."""
    p = field.p
    x = Poly.x(field)
    for r in (1, 2, 3):
        for _ in range(4):
            diag = MatRF(field, [[RatFunc(Poly.constant(field, rng.randrange(1, p)), x)
                                  if i == j else RatFunc.zero(field) for j in range(r)]
                                 for i in range(r)])
            yield gauge_transform(diag, random_polynomial_gauge(rng, field, r))


def test_projector_takes_one_round_at_a_pole_at_zero(monkeypatch):
    # a0 is chosen where beta does not vanish: with a pole at 0 taken as a0,
    # the round j = 0 of the projector would fall short of rank s
    rng = random.Random(2209)
    true_echelon = matrix._echelon
    rounds = []

    def counted(rows, p=1):
        if sys._getframe(1).f_code.co_name == "_sections":
            rounds.append(len(rows))
        return true_echelon(rows, p)

    monkeypatch.setattr(matrix, "_echelon", counted)
    for field in (GF(2), GF(3), GF(5), GF(2, 2)):
        for a in _pole_at_zero_charts(rng, field):
            bmat, beta = _clear_denominators(a.rows)
            assert beta.evaluate(0) == 0
            rounds.clear()
            sols = horizontal_sections(a)
            assert len(sols) == a.n  # flat: psi = 0
            assert len(rounds) == 1


def test_horizontal_sections_match_rp_kernel_on_flat_p1():
    rng = random.Random(77)
    for F in (GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)):
        for r in range(1, 5):
            for _ in range(2 if F.q < 7 else 1):
                a = random_flat_conn0(rng, F, r=r).matrix()
                while r > 1 and a.is_zero():  # rank 1 on P^1 is always trivial
                    a = random_flat_conn0(rng, F, r=r).matrix()
                sols = horizontal_sections(a)
                assert len(sols) == r
                assert tuple(sols) == tuple(horizontal_sections_rp(a))


def test_horizontal_sections_match_rp_kernel_on_restrictions():
    rng = random.Random(78)
    for p in (2, 3, 5):
        F = GF(p)
        for r in (2, 3):
            for _ in range(3):
                a = gauge_transform(random_strict_upper(rng, F, r),
                                    random_polynomial_gauge(rng, F, r))
                restricted = _restricted_to_ker_psi(a)
                assert tuple(horizontal_sections(restricted)) == \
                    tuple(horizontal_sections_rp(restricted))


def test_horizontal_sections_match_rp_kernel_for_nonzero_psi():
    # a flat block beside the cyclic block [[0, 1], [x, 0]] (invertible psi),
    # mixed by a polynomial gauge: ker psi is nontrivial, not full, and not
    # spanned by standard vectors
    rng = random.Random(79)
    for p in (2, 3, 5):
        F = GF(p)
        for flat_rank in (1, 2):
            r = flat_rank + 2
            zero = RatFunc.zero(F)
            rows = [[zero] * r for _ in range(r)]
            rows[flat_rank][flat_rank + 1] = RatFunc.one(F)
            rows[flat_rank + 1][flat_rank] = RatFunc.x(F)
            block = gauge_transform(MatRF(F, rows), random_polynomial_gauge(rng, F, r))
            psi = p_curvature_matrix(block)
            assert len(kernel(psi)) == flat_rank and not psi.is_zero()
            sols = horizontal_sections(block)
            assert len(sols) == flat_rank
            assert tuple(sols) == tuple(horizontal_sections_rp(block))


def test_horizontal_sections_match_rp_kernel_with_poles_everywhere():
    # no F_q point is regular, so the projector expands at 0, where the
    # images of the e_i are dependent and rounds j >= 1 are needed
    rng = random.Random(81)
    F3 = GF(3)
    f = rf(F3, [0, 1, 0, 0, 0, 2])  # x - x^5 = x * 1 + x^2 * (-x^3)
    cases = [MatRF(F3, [[f.derivative() / f]])]
    for q in (2, 3):
        for r in (2, 3):
            found = 0
            while found < 2:
                a = _frame_with_short_round(rng, GF(q), r)
                if a is not None:
                    cases.append(a)
                    found += 1
    for a in cases:
        assert _no_regular_point(a)
        assert len(kernel(_katz_images_at_zero(a))) > 0
        sols = horizontal_sections(a)
        assert len(sols) == a.n
        assert tuple(sols) == tuple(horizontal_sections_rp(a))


def _twisted_pole(a):
    """Whether some denominator of a has a coefficient outside F_p."""
    F = a.field
    return any(F.frobenius(c) != c for row in a.rows for e in row for c in e.den.coeffs)


def _extension_pole_cases(rng, field):
    """Charts with poles over an extension field, each with a denominator
    coefficient outside F_p: two flat charts A = f^-1 f' (f polynomial), and
    the flat-beside-cyclic blocks of flat rank 1 and 2 gauged by an invertible
    g of rational functions (nonzero psi with a kernel)."""
    cases = []
    while len(cases) < 2:
        r = 2 + len(cases)
        f = MatRF(field, [[RatFunc(random_poly(rng, field, 2)) for _ in range(r)]
                          for _ in range(r)])
        try:
            a = inverse(f) * f.derivative()
        except PflagsError:
            continue
        if _twisted_pole(a):
            cases.append((a, r))
    for flat_rank in (1, 2):
        r = flat_rank + 2
        zero = RatFunc.zero(field)
        rows = [[zero] * r for _ in range(r)]
        rows[flat_rank][flat_rank + 1] = RatFunc.one(field)
        rows[flat_rank + 1][flat_rank] = RatFunc.x(field)
        while True:
            g = MatRF(field, [[random_ratfunc(rng, field, 1, 1) for _ in range(r)]
                              for _ in range(r)])
            try:
                a = gauge_transform(MatRF(field, rows), g)
            except PflagsError:
                continue
            if _twisted_pole(a):
                cases.append((a, flat_rank))
                break
    return cases


def test_horizontal_sections_match_rp_kernel_with_poles_over_extension_fields():
    # the images' common denominator beta^p is dropped as a row factor, where
    # the reference twists each denominator's coefficients by Frobenius
    rng = random.Random(82)
    for field in (GF(2, 2), GF(3, 2)):
        for a, s in _extension_pole_cases(rng, field):
            sols = horizontal_sections(a)
            assert len(sols) == s
            assert tuple(sols) == tuple(horizontal_sections_rp(a))


def test_horizontal_sections_reduce_the_cleared_pairs():
    # _kernel_sections hands each section on as (w, P(x^p)); the public
    # sections are those pairs reduced, and every w solves beta w' + B w = 0
    rng = random.Random(85)
    cases = [a for a, _ in _extension_pole_cases(rng, GF(2, 2))]
    for field in (GF(2), GF(3), GF(5), GF(3, 2)):
        for r in (2, 3):
            cases.append(random_flat_conn0(rng, field, r=r).matrix())
            cases.append(gauge_transform(random_strict_upper(rng, field, r),
                                         random_polynomial_gauge(rng, field, r)))
    for a in cases:
        bmat, beta = _clear_denominators(a.rows)
        pairs = list(matrix._kernel_sections(bmat, beta))
        assert pairs
        assert horizontal_sections(a) == [tuple(RatFunc(e, den) for e in w) for w, den in pairs]
        for w, den in pairs:
            assert den.derivative().is_zero()
            assert not any(poly_dot([(beta, wi.derivative()), *zip(brow, w)], a.field)
                           for wi, brow in zip(w, bmat))


def _flipped_sign(row, prow, c, p):
    P, f = (matrix._coordinate(r, c, p).compose_xpow(p) for r in (prow, row))
    return matrix._primitive([poly_dot(((P, a), (f, b)), P.field) for a, b in zip(row, prow)], p)


def _pivot_dropped(row, prow, c, p):
    neg_f = (-matrix._coordinate(row, c, p)).compose_xpow(p)
    return matrix._primitive([a + neg_f * b for a, b in zip(row, prow)], p)


@pytest.mark.parametrize("mutant", [_flipped_sign, _pivot_dropped])
def test_a_wrong_elimination_step_is_caught(monkeypatch, mutant):
    # a wrong step still leaves rows in the row space, so the sections stay
    # horizontal; the reduced form, and with it the basis, is what changes
    rng = random.Random(83)
    cases = [a for a, _ in _extension_pole_cases(rng, GF(3, 2))]
    expected = [tuple(horizontal_sections_rp(a)) for a in cases]
    monkeypatch.setattr(matrix, "_eliminate", mutant)
    for a, want in zip(cases, expected):
        try:
            got = tuple(horizontal_sections(a))
        except InternalInvariantError:
            continue
        assert got != want


def test_horizontality_recheck_catches_a_wrong_projection(monkeypatch):
    # the first coordinate of every image multiplied by x: the rows leave the
    # solution space, and the re-check on the numerators must notice
    rng = random.Random(84)
    cases = []
    for field in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)):
        for r in (2, 3):
            a = random_flat_conn0(rng, field, r=r).matrix()
            while a.is_zero():
                a = random_flat_conn0(rng, field, r=r).matrix()
            cases.append(a)
    true_pass = matrix._katz_pass

    def pass_times_x(*args):
        top, images = true_pass(*args)
        return top, [[(0, *image[0]), *image[1:]] for image in images]

    monkeypatch.setattr(matrix, "_katz_pass", pass_times_x)
    for a in cases:
        with pytest.raises(InternalInvariantError, match="fails T\\(v\\) = 0"):
            horizontal_sections(a)


# -- the one pass: Katz's projector summed on the packed levels ----------------------


def _project(nums, weights, outer, g):
    """Oracle: the numerators of P(g) = sum_k c_k T^k g over beta^p,
    c_k = weights[k], from T^m e_i = nums[i][m]/beta^m and
    outer[m] = c_m beta^(p-m), all of them polynomials.

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


def _echelon_ref(rows):
    """Oracle for the elimination: Gauss-Jordan on polynomial rows in place,
    with no division, each new row over the monic gcd of its entries; returns
    the pivot columns.  Row k over its entry at pivots[k] is row k of the
    reduced echelon form."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        P = rows[r][c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                neg_f = -row[c]
                new = [poly_dot(((P, a), (neg_f, b)), P.field) for a, b in zip(row, rows[r])]
                g = None
                for e in new:
                    if e:
                        g = e if g is None else poly_gcd(g, e)
                rows[i] = new if g is None or g.degree == 0 else [e // g for e in new]
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return pivots


def _sections_ref(bmat, beta, rounds, s):
    """Oracle for the tail, ``matrix._sections``: each image's numerators n
    split by exponent mod p into their coordinates in the F_q(x^p)-basis
    x^j e_i, polynomials in y = x^p, taken last first, Gauss-Jordan
    (``_echelon_ref``) on those rows round by round until they have rank s,
    and each reduced row put back together as w_i = sum_j e_ij(x^p) x^j over
    its pivot entry composed with x^p.  The pairs (w, P(x^p)), the last
    pivot row first."""
    F = beta.field
    p, r = F.p, len(bmat)
    rows = []
    for images in rounds:
        rows += [[Poly(F, n[t::p]) for n in image for t in range(p)][::-1] for image in images]
        pivots = _echelon_ref(rows)
        del rows[len(pivots):]
        if len(pivots) == s:
            break
    else:
        raise AssertionError(f"the images have rank {len(rows)} < {s}")
    sols = []
    for row, c in zip(reversed(rows), reversed(pivots)):
        kv = row[::-1]  # coefficient t of coordinate i p + j is coefficient t p + j of w_i
        cs = [[0] * (p * max(len(e.coeffs) for e in kv[i * p:i * p + p])) for i in range(r)]
        for k, e in enumerate(kv):
            cs[k // p][k % p:k % p + p * len(e.coeffs):p] = e.coeffs
        sols.append(([Poly(F, ws) for ws in cs], row[c].compose_xpow(p)))
    return sols


def _reduced(pairs):
    """The sections w/P(x^p) of cleared pairs, each entry reduced."""
    return [tuple(RatFunc(e, den) for e in w) for w, den in pairs]


def _horizontal_sections(bmat, beta):
    """Oracle for the one pass: the sections of A = bmat/beta as cleared
    pairs (w, P(x^p)), with every level T^m e_i read out as polynomials
    (``t_levels``), the weights (-t)^k/k! and c_m beta^(p-m) formed as
    polynomials, the images P(x^j w) summed by Leibniz (``_project``), and
    then the tail's oracle, ``_sections_ref``."""
    F = beta.field
    p = F.p
    nums = t_levels(bmat, beta)
    ker = _kernel_core(list(zip(*(its[-1] for its in nums))))
    if not ker:
        return []
    a0 = next((c for c in F.elements()
               if beta.evaluate(c) and all(w[fc].evaluate(c) for fc, w in ker)), 0)
    neg_t = Poly(F, [a0, F.neg(1)])
    weights = [Poly.one(F)]  # (-t)^k / k!
    for k in range(1, p):
        weights.append((weights[-1] * neg_t).scale(F.inv(F.scalar(k))))
    outer = [w * beta**(p - m) for m, w in enumerate(weights)]  # c_m beta^(p-m)
    rounds = ([[n.coeffs for n in _project(nums, weights, outer,
                                           [Poly(F, (0,) * j + e.coeffs) for e in w])]
               for _, w in ker] for j in range(p))
    return _sections_ref(bmat, beta, rounds, len(ker))


# GF(11), GF(31) and GF(293) step in several stages; GF(2^8) has cells of 15
# slots, GF(7^2) of 3, and both read reduced cells one struct.unpack a block
FLAT_FIELDS = (GF(2), GF(3), GF(5), GF(7), GF(11), GF(31), GF(293),
               GF(2, 2), GF(3, 2), GF(7, 2), GF(2, 8))


def _two_pole_charts(rng, field):
    """Flat charts diag(c_i/(x - b_i)), c_i in F_p^* and b_i = 0, 1, 0, ...,
    gauged by a polynomial gauge of constant determinant, at ranks 1-3.  From
    rank 2 no point of F_2 is regular: over GF(2) the projector expands at
    the pole 0, where round 0 falls short, and over GF(4) at a point outside
    F_2."""
    p = field.p
    for r in (1, 2, 3):
        diag = [[RatFunc(Poly.constant(field, rng.randrange(1, p)),
                         Poly(field, (field.neg(i % 2), 1))) if i == j else RatFunc.zero(field)
                 for j in range(r)] for i in range(r)]
        yield gauge_transform(MatRF(field, diag), random_polynomial_gauge(rng, field, r))


def _flag_levels(charts):
    """(bmat, beta) of every level of the nilpotent flags of ``charts``, as
    ``hitchin._triangularize`` projects them: beta = 1 at the first level of
    a polynomial chart and mostly not past it."""
    from pflags import hitchin

    levels, true_sections = [], hitchin._kernel_sections

    def recorded(bmat, beta, nmat=None):
        levels.append((bmat, beta))
        return true_sections(bmat, beta, nmat)
    hitchin._kernel_sections = recorded
    try:
        for a in charts:
            hitchin.nilpotent_flag_chart(ChartConn(a.field, a.n, a))
    finally:
        hitchin._kernel_sections = true_sections
    return levels


def _pass_cases(rng):
    """(cases, charts): (bmat, beta) for the cross-checks of the one pass,
    over FLAT_FIELDS flat connections of ranks 1-4, the zero connection and
    every level of the gauged nilpotent charts of ranks 1-4 (at p = 293 up to
    rank 3), and over GF(2), GF(3), GF(5) and GF(4) the flat charts with
    poles at 0 and 1; and those nilpotent charts."""
    cases, nilpotent = [], []
    for field in FLAT_FIELDS:
        one, zero = Poly.one(field), Poly.zero(field)
        for r in (1, 2, 3, 4):
            cases += [(random_flat_conn0(rng, field, r=r).A, one), ([[zero] * r] * r, one)]
            if field.p < 293 or r < 4:
                nilpotent.append(gauge_transform(random_strict_upper(rng, field, r),
                                                 random_polynomial_gauge(rng, field, r)))
    cases += _flag_levels(nilpotent)
    for field in (GF(2), GF(3), GF(5), GF(2, 2)):
        cases += [a.cleared for a in _two_pole_charts(rng, field)]
    return cases, nilpotent


def test_flat_sections_match_the_projector_oracle(monkeypatch):
    # the one pass's (w, P(x^p)) pairs are the oracle's, through
    # _kernel_sections on every case and _flat_sections on the flat ones (the
    # zero connection too); the cases reach every branch of the weights and
    # rounds past round 0
    reached, weighted = set(), []
    true_products, true_pass = matrix._katz_products, matrix._katz_pass

    def products(beta, a0):
        p = beta.field.p
        reached.update(branch for branch, hit in (
            ("beta != 1", not beta.is_one()), ("a0 != 0", a0 != 0),
            ("a0 outside F_p", a0 >= p), ("p = 293", p == 293)) if hit)
        return true_products(beta, a0)

    def counted(bmat, beta, cols, weights):
        weighted.append(bool(weights))
        return true_pass(bmat, beta, cols, weights)
    cases, _ = _pass_cases(random.Random(35))
    monkeypatch.setattr(matrix, "_katz_products", products)
    monkeypatch.setattr(matrix, "_katz_pass", counted)
    flat = 0
    for bmat, beta in cases:
        want = _horizontal_sections(bmat, beta)
        weighted.clear()
        assert list(matrix._kernel_sections(bmat, beta)) == want, (beta.field, len(bmat))
        if sum(weighted) > 1:
            reached.add("round j > 0")
        if beta.is_one() and len(want) == len(bmat):
            assert list(matrix._flat_sections(bmat)) == want, (beta.field, len(bmat))
            flat += 1
    assert reached == {"beta != 1", "a0 != 0", "a0 outside F_p", "round j > 0", "p = 293"}
    assert flat >= 2 * 4 * len(FLAT_FIELDS)


def _tail_compared(true_sections, taken):
    """``matrix._sections`` run beside its oracle on the same images (the
    rounds teed): each section it yields is compared, reduced, with the
    oracle's section of the same place, and (sections taken, oracle's
    sections) is appended to ``taken`` once the caller stops taking them."""
    def compared(bmat, beta, rounds, s):
        mine, theirs = itertools.tee(rounds)
        want = _reduced(_sections_ref(bmat, beta, theirs, s))
        got = 0
        try:
            for w, den in true_sections(bmat, beta, mine, s):
                assert _reduced([(w, den)]) == [want[got]], (beta.field, len(bmat), got)
                got += 1
                yield w, den
        finally:
            taken.append((got, len(want)))
    return compared


def test_the_tail_matches_the_coordinate_split_oracle(monkeypatch):
    # _sections eliminates the images as they are, at stride p, and
    # back-substitutes a section only when it is taken; on the same images
    # the oracle splits them into coordinates and runs Gauss-Jordan.  The
    # sections agree reduced, as every caller hands them out: through
    # horizontal_sections (every section) on every case of the one pass, and
    # through every level of the nilpotent flags, where _triangularize takes
    # the first section alone
    from pflags import hitchin

    cases, charts = _pass_cases(random.Random(38))
    taken = []
    monkeypatch.setattr(matrix, "_sections", _tail_compared(matrix._sections, taken))
    for bmat, beta in cases:
        sols = horizontal_sections(MatRF.from_cleared(beta.field, bmat, beta))
        if sols:
            assert taken.pop() == (len(sols), len(sols))
    assert not taken
    for a in charts:
        hitchin.nilpotent_flag_chart(ChartConn(a.field, a.n, a))
    firsts = [s for got, s in taken if got == 1]
    assert len(firsts) == len(taken) >= 60, taken
    assert sum(s > 1 for s in firsts) >= 40, firsts  # levels with more sections than one


def _uncomposed_multiplier(row, prow, c, p):
    """``matrix._eliminate`` with the multiplier f in place of f(x^p)."""
    P = matrix._coordinate(prow, c, p).compose_xpow(p)
    neg_f = -matrix._coordinate(row, c, p)
    return _primitive([poly_dot(((P, a), (neg_f, b)), P.field) for a, b in zip(row, prow)], p)


def _content_in_x(row, p=1):
    """``matrix._primitive`` with the gcd of the row's entries taken in x."""
    g = None
    for e in row:
        if e:
            g = e if g is None else poly_gcd(g, e)
    return row if g is None or g.degree == 0 else [e // g for e in row]


def _row_zero_first(true):
    """``matrix._back_substitute`` that gives row 0 first, unreduced, at
    stride p > 1: the first section read as rows[0], not the last row."""
    def back(rows, pivots, p=1):
        if p > 1:
            yield 0, rows[0]
        yield from ((k, row) for k, row in true(rows, pivots, p) if k or p == 1)
    return back


# name: (the function replaced, its mutant from the true one)
TAIL_MUTANTS = {
    "multiplier f for f(x^p)": ("_eliminate", lambda true: _uncomposed_multiplier),
    "content gcd in x": ("_primitive", lambda true: _content_in_x),
    "first section rows[0]": ("_back_substitute", _row_zero_first),
    "back-substitution skipped past the first": ("_back_substitute", lambda true: (
        lambda rows, pivots, p=1: ((k, rows[k]) for k in range(len(pivots) - 1, -1, -1))
        if p > 1 else true(rows, pivots, p))),
}


@pytest.mark.parametrize("mutant", TAIL_MUTANTS)
def test_a_wrong_tail_is_caught(monkeypatch, mutant):
    # each mutant of the stride-p elimination or of the back-substitution
    # leaves stride 1 alone, and on some case it fails the re-check
    # T(v) = 0 or gives sections other than the coordinate-split oracle's:
    # those of horizontal_sections, or the first section at a level of a
    # nilpotent flag
    cases, charts = _pass_cases(random.Random(39))
    levels = _flag_levels(charts)
    wants = [_reduced(_horizontal_sections(bmat, beta)) for bmat, beta in cases + levels]
    name, make = TAIL_MUTANTS[mutant]
    monkeypatch.setattr(matrix, name, make(getattr(matrix, name)))
    caught = []
    for k, ((bmat, beta), want) in enumerate(zip(cases + levels, wants)):
        first = k >= len(cases)  # a level of a flag takes the first section alone
        try:
            sols = matrix._kernel_sections(bmat, beta)
            got = _reduced([next(sols)] if first else sols)
            caught.append(got != (want[:1] if first else want))
        except InternalInvariantError as exc:
            assert "fails T(v) = 0" in str(exc) or "projected sections have rank" in str(exc)
            caught.append(True)
    assert any(caught), mutant


def test_flat_sections_slots_hold_the_accumulators(monkeypatch):
    # an accumulator slot holds up to p (p - 1)^2; the step's own slot bound
    # for B = 0, d (p - 1)^3, lies below it, so the bound is raised to it,
    # which at p = 2 takes one more bit
    true, bounds = matrix._t_layout, []

    def recording(field, nbits, *shape):
        bounds.append((field, nbits))
        return true(field, nbits, *shape)
    monkeypatch.setattr(matrix, "_t_layout", recording)
    for field in FLAT_FIELDS:
        zero = Poly.zero(field)
        assert len(list(matrix._flat_sections([[zero] * 2, [zero] * 2]))) == 2
    assert {field for field, _ in bounds} == set(FLAT_FIELDS)
    for field, nbits in bounds:
        p = field.p
        assert nbits == max(p * (p - 1) ** 2, field.k * (p - 1) ** 3).bit_length()
    assert (GF(2), 2) in bounds


# name: (the function replaced, its mutant from the true one, the outcomes on
# the flat cases and on the others).  An outcome is the check that caught the
# mutant, or "unchanged" where the mutant returns what the true function does
FLAT_MUTANTS = {
    # the weights (+1)^m/m!: P(e_i) is no longer horizontal, T(v) = 0 fails
    "weights (+1)^m/m!": ("_katz_weights", lambda true: lambda p: [
        pow(math.factorial(m), -1, p) for m in range(p)], {"T(v) = 0"}, {"T(v) = 0"}),
    # c_(p-1) T^(p-1) e_i left out: likewise T(v) = 0 fails
    "level p - 1 dropped": ("_katz_weights", lambda true: lambda p: true(p)[:-1] + [0],
                            {"T(v) = 0"}, {"T(v) = 0"}),
    # the accumulators read unreduced: coefficients past p change the images,
    # which fails the cross-check on some flat cases and T(v) = 0 on others;
    # on the others some coefficients are no field element: the tail's
    # arithmetic raises on them before any check runs, or they vanish mod p
    # in an elimination step and leave zero sections, which the cross-check
    # refuses
    "final reduction skipped": ("_barrett", lambda true: lambda layout, p, ints: list(ints),
                                {"cross-check", "T(v) = 0"},
                                {"T(v) = 0", "raised", "cross-check"}),
    # c_1 = -t taken as +t
    "weight c_1 with its sign flipped": ("_katz_weights", lambda true: lambda p: [
        -c % p if m == 1 else c for m, c in enumerate(true(p))], {"T(v) = 0"}, {"T(v) = 0"}),
    # c_m beta^(p-m) n_m taken as c_m n_m: the same weights over beta = 1
    "beta^(p - m) dropped": ("_katz_products", lambda true: lambda beta, a0: true(
        Poly.one(beta.field), a0), {"unchanged"}, {"T(v) = 0"}),
    # at a0 != 0 the weights (-(x - a0))^m/m! moved m cells up, as the
    # weights at a0 = 0 are: c_m taken as x^m (-(x - a0))^m/m!
    "a0 = 0's shift at a0 != 0": ("_katz_products", lambda true: lambda beta, a0: [
        (w, m) for m, (w, _) in enumerate(true(beta, a0))], {"unchanged"},
        {"T(v) = 0", "unchanged"}),
}


def _live(bmat, beta):
    """Whether T^(p-1) w != 0 for a kernel vector w of psi, so that every
    weight and every level of the projector counts."""
    ker = [w for _, w in _kernel_core(list(zip(*_t_iterates(bmat, beta)[0])))]
    return any(any(its[-2]) for its in t_levels(bmat, beta, ker)[len(bmat):])


def _live_flat_cases(fields):
    """Flat connections of ranks 2-4 with T^(p-1) e_i != 0 for some i, so
    that every weight and every level of the projector counts."""
    rng = random.Random(36)
    cases = []
    for field in fields:
        for r in (2, 3, 4):
            while True:
                bmat = random_flat_conn0(rng, field, r=r).A
                if _live(bmat, Poly.one(field)):
                    break
            cases.append(bmat)
    return cases


@pytest.mark.parametrize("mutant", FLAT_MUTANTS)
def test_a_wrong_flat_pass_is_caught(monkeypatch, mutant):
    # odd p, where the sign of the weights counts.  Over F_(p^k) with log
    # tables the unreduced digits of the reduction mutant index past the
    # tables (IndexError) before any check runs, so it runs over F_p alone.
    # The flat cases run _flat_sections, the others _kernel_sections: the
    # levels of nilpotent flags past the first, over beta != 1, and charts
    # with poles at 0 and 1, where a0 != 0
    fields = [GF(3), GF(5), GF(7), GF(11)]
    if "reduction" not in mutant:
        fields += [GF(3, 2), GF(7, 2)]
    rng = random.Random(37)
    nilpotent = [gauge_transform(random_strict_upper(rng, field, r),
                                 random_polynomial_gauge(rng, field, r))
                 for field in fields for r in (3, 4)]
    cases = [("_flat_sections", bmat, Poly.one(bmat[0][0].field))
             for bmat in _live_flat_cases(fields)]
    cases += [("_kernel_sections", *level) for level in _flag_levels(nilpotent)
              if not level[1].is_one() and _live(*level)]
    cases += [("_kernel_sections", *a.cleared) for field in fields
              for a in _two_pole_charts(rng, field) if _live(*a.cleared)]
    wants = [_horizontal_sections(bmat, beta) for _, bmat, beta in cases]
    name, make, *expected = FLAT_MUTANTS[mutant]
    true, changed = getattr(matrix, name), []
    wrong = make(true)

    def mutated(*args):
        got = wrong(*args)
        changed.append(got != true(*args))
        return got
    monkeypatch.setattr(matrix, name, mutated)
    outcomes = {"_flat_sections": set(), "_kernel_sections": set()}
    for (run, bmat, beta), want in zip(cases, wants):
        changed.clear()
        try:
            got = list(matrix._flat_sections(bmat) if run == "_flat_sections"
                       else matrix._kernel_sections(bmat, beta))
            outcome = "cross-check" if got != want else "missed"
        except InternalInvariantError as exc:
            assert "fails T(v) = 0" in str(exc)
            outcome = "T(v) = 0"
        except (OverflowError, ValueError):
            outcome = "raised"
        if outcome == "missed" and not any(changed):
            outcome = "unchanged"
        outcomes[run].add(outcome)
    assert outcomes == dict(zip(outcomes, expected))


def test_matrix_pow():
    F = GF(3)
    m = MatRF(F, [[rf(F, [1]), rf(F, [0, 1])], [rf(F, []), rf(F, [1], [1, 1])]])
    assert m.pow(0) == MatRF.identity(F, 2)
    assert m.pow(1) == m
    assert m.pow(5) == m * m * m * m * m
    for e in (-1, -4):
        try:
            m.pow(e)
        except PflagsError:
            pass
        else:
            raise AssertionError(f"pow({e}) did not raise")


# -- one matrix type: its rows, its cleared pair, or both -------------------------------

ONE_TYPE_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


def _random_pairs(rng, field):
    """Cleared pairs (B, beta), beta monic: lcm pairs, pairs whose every
    entry shares a factor with beta (not the lcm pair), and zero entries."""
    pairs = []
    for n in range(1, 4):
        for kind in ("lcm", "common", "zero"):
            beta = random_poly(rng, field, rng.randrange(3), nonzero=True)
            beta = beta.scale(field.inv(beta.lc()))
            bmat = [[random_poly(rng, field, 2) if kind != "zero" or rng.random() < 0.5
                     else Poly.zero(field) for _ in range(n)] for _ in range(n)]
            if kind == "common":
                h = Poly(field, [rng.randrange(field.q), 1])
                bmat, beta = [[e * h for e in row] for row in bmat], beta * h
            pairs.append((bmat, beta))
    return pairs


def _entrywise(field, bmat, beta):
    return MatRF(field, [[RatFunc(e, beta) for e in row] for row in bmat])


def test_from_cleared_is_the_matrix_of_its_reduced_rows():
    rng = random.Random(2030)
    for F in ONE_TYPE_FIELDS:
        for bmat, beta in _random_pairs(rng, F):
            m, want = MatRF.from_cleared(F, bmat, beta), _entrywise(F, bmat, beta)
            assert hash(m) == hash(want)
            m = MatRF.from_cleared(F, bmat, beta)
            assert repr(m) == repr(want)
            m = MatRF.from_cleared(F, bmat, beta)
            assert m == want and want == m
            assert m.rows is m.rows and m.n == len(bmat) and m.field is F
            assert m.cleared == (tuple(map(tuple, bmat)), beta)


def test_cleared_is_formed_once_and_is_the_lcm_pair_of_the_rows():
    rng = random.Random(2031)
    for F in ONE_TYPE_FIELDS:
        for bmat, beta in _random_pairs(rng, F):
            m = _entrywise(F, bmat, beta)
            assert m.cleared is m.cleared
            want_b, want_beta = _clear_denominators(m.rows)
            assert m.cleared == (tuple(map(tuple, want_b)), want_beta)
            built = MatRF.from_cleared(F, bmat, beta)
            assert built.cleared is built.cleared


def test_cleared_takes_a_gcd_per_distinct_denominator_and_per_lcm_step(monkeypatch):
    # a matrix's rows are reduced, each numerator prime to its denominator,
    # so clearing them takes one gcd(den, num) per distinct non-unit
    # denominator, which is 1 and ends that chain, and one per lcm step, at
    # most one fewer than there are denominators: 2 d - 1 for d of them
    true_gcd, gcds = matrix.poly_gcd, []
    monkeypatch.setattr(matrix, "poly_gcd", lambda f, g: gcds.append(1) or true_gcd(f, g))
    for a in pole_charts():
        dens = {e.den.coeffs for row in a.rows for e in row if e and e.den.degree > 0}
        gcds.clear()
        cleared = MatRF(a.field, a.rows).cleared
        assert len(gcds) <= max(2 * len(dens) - 1, 0)
        want_b, want_beta = _clear_denominators(a.rows)
        assert cleared == (tuple(map(tuple, want_b)), want_beta)


def test_psi_is_returned_as_its_pair_and_every_reader_takes_it():
    """p_curvature_matrix returns psi as (N, beta^p), not the lcm pair of its
    reduced entries; the charpoly, nilpotency, kernel and inverse of that
    matrix are those of the matrix of its reduced rows."""
    not_lcm = 0
    for a in pole_charts()[::3]:
        F = a.field
        psi = p_curvature_matrix(a)
        nmat, delta = psi.cleared
        bmat, beta = a.cleared
        assert delta == beta ** F.p
        assert psi.rows == tuple(tuple(RatFunc(e, delta) for e in row) for row in nmat)
        eager = MatRF(F, psi.rows)
        assert psi == eager and hash(psi) == hash(eager)
        not_lcm += eager.cleared[1] != delta
        fresh = MatRF.from_cleared(F, nmat, delta)
        assert charpoly_berkowitz(fresh) == charpoly_berkowitz(eager)
        assert is_nilpotent(fresh) == is_nilpotent(eager)
        assert kernel(fresh) == kernel(eager)
        try:
            want = inverse(eager)
        except PflagsError:
            with pytest.raises(PflagsError):
                inverse(fresh)
        else:
            assert inverse(fresh) == want
    assert not_lcm >= 5, not_lcm


def test_conn0_matrix_is_the_eager_matrix_of_its_rows():
    from pflags.sampling import random_conn0

    rng = random.Random(2032)
    for F in ONE_TYPE_FIELDS:
        for _ in range(5):
            c = random_conn0(rng, F, r_max=3)
            want = MatRF(F, [[RatFunc(e) for e in row] for row in c.A])
            got = c.matrix()
            assert got.cleared == (c.A, Poly.one(F))
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def _rowwise_kernel(m):
    """``kernel`` as it was with each row cleared on its own."""
    zero, one = RatFunc.zero(m.field), RatFunc.one(m.field)
    return [tuple(one if c == fc else RatFunc(e, w[fc]) if e else zero for c, e in enumerate(w))
            for fc, w in _kernel_core([_clear_denominators([row])[0][0] for row in m.rows])]


def _rowwise_inverse(m):
    """``inverse`` as it was: [m | I] cleared row by row."""
    n = m.n
    rows = [_clear_denominators([[*row, *e]])[0][0]
            for row, e in zip(m.rows, MatRF.identity(m.field, n).rows)]
    if _rref(rows) != list(range(n)):
        raise PflagsError("matrix is singular")
    return MatRF(m.field, [[RatFunc(e, row[k]) for e in row[n:]] for k, row in enumerate(rows)])


def test_kernel_and_inverse_on_the_pair_match_the_rowwise_clearing():
    rng = random.Random(2033)
    cases = [MatRF(F, m) for F in ORACLE_FIELDS for m in _elimination_cases(rng, F)]
    cases += [MatRF.from_cleared(F, *pair) for F in ONE_TYPE_FIELDS
              for pair in _random_pairs(rng, F)]
    cases += pole_charts()
    invertible = 0
    for m in cases:
        assert kernel(m) == _rowwise_kernel(m)
        try:
            want = _rowwise_inverse(m)
        except PflagsError:
            with pytest.raises(PflagsError, match="singular"):
                inverse(m)
        else:
            assert inverse(m) == want
            invertible += 1
    assert invertible >= 100, invertible
