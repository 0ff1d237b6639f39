import random
import sys

import pytest

from pflags import matrix, properties
from pflags.errors import InternalInvariantError, PflagsError
from pflags.fields import GF
from pflags.hitchin import ChartConn, char_poly_psi
from pflags.matrix import (
    MatRF,
    _clear_denominators,
    _echelon,
    _horizontal_sections,
    _kernel_core,
    _primitive,
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
# ``_echelon`` eliminates fraction-free on polynomial rows; its rows over their
# pivot entries must give the same reduced form, which the row space alone
# fixes.


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
    """``_echelon`` on the rows cleared one by one, read out as rational
    functions over each row's pivot entry, zero rows last."""
    prows = [_clear_denominators([row])[0][0] for row in rows]
    pivots = _echelon(prows)
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
            pivots = matrix._echelon(rows)
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
        nums, dens = _t_iterates(*_clear_denominators(a.rows), p)
        for its, ref_its in zip(nums, ref):
            for num, den, (ref_num, ref_den) in zip(its, dens, ref_its):
                assert [RatFunc(e, den) for e in num] == [RatFunc(e, ref_den) for e in ref_num]
        assert p_curvature_matrix(a) == column_matrix(a.field, [its[p] for its in ref])
        if a.n > 2:
            continue
        # past T^p the step's k >= p must enter as k mod p (over GF(4) and GF(9)
        # the integer k itself would be another field element)
        bmat, beta = _clear_denominators(a.rows)
        step = _t_step(bmat, beta)
        for its, ref_its in zip(nums, ref):
            num = its[p]
            for k in range(p, 2 * p):
                num = step(num, k)
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


def test_t_step_matches_the_per_entry_oracle():
    # GF(4), GF(9) and GF(2^13) take the extension-field branch
    rng = random.Random(16)
    for field in [GF(p) for p in STEP_PRIMES] + [GF(2, 2), GF(3, 2), GF(2, 13)]:
        p = field.p
        for bmat, beta, num in step_cases(field, rng):
            step = _t_step(bmat, beta)
            for k in (0, 1, p - 1, p, 2 * p + 1):
                assert step(num, k) == apply_t_oracle(bmat, beta, num, k)


def test_t_step_forms_minus_k_beta_prime_once_per_k_mod_p(monkeypatch):
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
            step = _t_step(bmat, beta)
            for k in range(p):
                step(num, k)
            packs = scales = 0
            for k in range(p, 3 * p):  # every k mod p has been seen
                step(num, k)
            # over F_p only each n_i and n_i' is packed; nothing is scaled
            assert scales == 0
            assert packs == (0 if field.k > 1 else 2 * p * 2 * len(num))


def p31_chart():
    """A rank-2 chart at p = 31 whose det psi is not zero."""
    return pole_chart(random.Random(31), GF(31), 2, "shared")


def test_t_iterate_degrees_grow_at_most_linearly():
    for a in pole_charts() + [p31_chart()]:
        bmat, beta = _clear_denominators(a.rows)
        step = max(beta.degree - 1, max(e.degree for row in bmat for e in row))
        nums, dens = _t_iterates(bmat, beta, a.field.p)
        assert dens == [beta**k for k in range(a.field.p + 1)]
        for its in nums:
            for k, num in enumerate(its):
                assert all(e.degree <= k * step for e in num if not e.is_zero())


def test_char_poly_psi_at_p_31_matches_reference():
    a = p31_chart()
    psi = column_matrix(a.field, [its[31] for its in reference_iterates(a, 31)])
    coeffs = list(char_poly_psi(ChartConn(a.field, 2, a)).coeffs)
    assert not coeffs[0].is_zero()
    assert coeffs == charpoly_berkowitz(psi)[:-1]


def test_char_poly_psi_above_the_table_cap_matches_reference():
    # GF(2^13) has no log tables: the T step runs poly_dot's digit branch
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
    cleared = [_clear_denominators(a.rows) for a in pole_charts() + [p31_chart()]]
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        def counted(*args, _name=name, _original=getattr(Poly, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Poly, name, counted)
    for bmat, beta in cleared:
        _t_iterates(bmat, beta, beta.field.p)
    assert calls == []
    assert Poly.one(GF(3)) * Poly.x(GF(3)) == Poly.x(GF(3)) and calls == ["__mul__"]


def test_t_iterates_level_one_is_the_first_step():
    # T e_i is read off column i of B, not stepped from e_i
    for a in pole_charts():
        F = a.field
        bmat, beta = _clear_denominators(a.rows)
        step = _t_step(bmat, beta)
        nums, _ = _t_iterates(bmat, beta, F.p)
        for i, its in enumerate(nums):
            e = [Poly.one(F) if t == i else Poly.zero(F) for t in range(a.n)]
            assert its[0] == e
            assert its[1] == step(e, 0)


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

    def counted(rows):
        if sys._getframe(1).f_code.co_name == "_horizontal_sections":
            rounds.append(len(rows))
        return true_echelon(rows)

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
    # _horizontal_sections hands each section on as (w, P(x^p)); the public
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
        pairs = _horizontal_sections(bmat, beta)
        assert pairs
        assert horizontal_sections(a) == [tuple(RatFunc(e, den) for e in w) for w, den in pairs]
        for w, den in pairs:
            assert den.derivative().is_zero()
            assert not any(poly_dot([(beta, wi.derivative()), *zip(brow, w)], a.field)
                           for wi, brow in zip(w, bmat))


def _flipped_sign(row, prow, c):
    P, f = prow[c], row[c]
    return matrix._primitive([poly_dot(((P, a), (f, b)), P.field) for a, b in zip(row, prow)])


def _pivot_dropped(row, prow, c):
    neg_f = -row[c]
    return matrix._primitive([a + neg_f * b for a, b in zip(row, prow)])


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
    true_project = matrix._project

    def project_times_x(*args):
        nums = true_project(*args)
        return [nums[0] * Poly.x(nums[0].field), *nums[1:]]

    monkeypatch.setattr(matrix, "_project", project_times_x)
    for a in cases:
        with pytest.raises(InternalInvariantError, match="fails T\\(v\\) = 0"):
            horizontal_sections(a)


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
    if _echelon(rows) != list(range(n)):
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
