import random

from pflags.errors import PflagsError
from pflags.fields import GF
from pflags.matrix import (
    MatRF,
    apply_connection,
    charpoly_berkowitz,
    gauge_transform,
    horizontal_sections,
    inverse,
    is_nilpotent,
    kernel,
    p_curvature_matrix,
    solve,
)
from pflags.poly import Poly
from pflags.ratfunc import RatFunc
from pflags.sampling import random_poly, random_ratfunc


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


def tpoly_mul(a, b, field):
    out = [RatFunc.zero(field)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def tpoly_det_cofactor(mat, field):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = [RatFunc.zero(field)]
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = tpoly_mul(mat[0][j], tpoly_det_cofactor(minor, field), field)
        if j % 2:
            term = [-c for c in term]
        if len(acc) < len(term):
            acc = acc + [RatFunc.zero(field)] * (len(term) - len(acc))
        for i, c in enumerate(term):
            acc[i] = acc[i] + c
    return acc


def test_charpoly_matches_cofactor_expansion_sampled():
    rng = random.Random(2024)
    F = GF(3)
    for _ in range(100):
        r = rng.randint(1, 3)
        m = MatRF(F, [[RatFunc(random_poly(rng, F, 2)) for _ in range(r)]
                      for _ in range(r)])
        tmat = []
        for i in range(r):
            row = []
            for j in range(r):
                lead = RatFunc.one(F) if i == j else RatFunc.zero(F)
                row.append([-m.rows[i][j], lead])  # t*delta_ij - m_ij
            tmat.append(row)
        oracle = tpoly_det_cofactor(tmat, F)
        got = charpoly_berkowitz(m)
        oracle = oracle + [RatFunc.zero(F)] * (len(got) - len(oracle))
        assert got == oracle


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


def test_solve_consistent_and_inconsistent():
    F = GF(5)
    one, zero, x = RatFunc.one(F), RatFunc.zero(F), RatFunc.x(F)
    cols = [(one, zero), (x, zero)]
    assert solve(cols, (x, zero), F) is not None
    assert solve(cols, (zero, one), F) is None


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
            assert p_curvature_matrix(a, p) == naive_p_curvature(a, p)


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
            got = p_curvature_matrix(MatRF(F, [[a]]), p)
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
