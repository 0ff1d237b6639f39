import itertools
import random

import pytest

from pflags import hitchin, matrix
from pflags.errors import InternalInvariantError, PflagsError, PreconditionError
from pflags.fields import GF, Field
from pflags.hitchin import (
    ChartConn,
    HitchinDims,
    Verdict,
    _check_triangular,
    _triangularize,
    char_poly_psi,
    hitchin_dims,
    nilpotent_flag_chart,
    no_flag_certificate_rank2,
    p_curvature_chart,
)
from pflags.matrix import (
    MatRF,
    apply_connection,
    charpoly_berkowitz,
    gauge_transform,
    horizontal_sections,
    inverse,
    kernel,
    p_curvature_matrix,
)
from pflags.poly import Poly, poly_dot, poly_gcd
from pflags.pone import complete_flag, p_curvature, verify_flag
from pflags.ratfunc import RatFunc, in_frobenius_subfield
from pflags.sampling import (
    random_chart_conn,
    random_conn0,
    random_polynomial_gauge,
    random_strict_upper,
)

from test_matrix import _clear_denominators, _rref_ref, t_levels

F2, F3, F5 = GF(2), GF(3), GF(5)


def rf(field, coeffs, den=None):
    return RatFunc(Poly(field, coeffs), Poly(field, den) if den else None)


def chart(field, rows):
    mat = MatRF(field, [[rf(field, e) if isinstance(e, list) else e for e in row]
                        for row in rows])
    return ChartConn(field, mat.n, mat)


CYCLIC = chart(F3, [[[], [1]], [[0, 1], []]])


# -- p-curvature on the chart ---------------------------------------------------------


def test_p_curvature_chart_pinned_examples():
    assert p_curvature_chart(chart(F3, [[[], []], [[], []]])).is_zero()
    scalar = p_curvature_chart(chart(F2, [[[0, 1]]]))
    assert scalar.rows[0][0] == rf(F2, [1, 0, 1])  # 1 + x^2
    psi = p_curvature_chart(CYCLIC)
    assert psi == MatRF(F3, [[rf(F3, [2]), rf(F3, [0, 1])],
                             [rf(F3, [0, 0, 1]), rf(F3, [1])]])


def test_p_curvature_chart_rational_entries():
    rng = random.Random(51)
    for _ in range(10):
        field = GF(rng.choice([2, 3]))
        c = random_chart_conn(rng, field, r_max=2)
        psi = p_curvature_chart(c)
        # O-linearity as a matrix identity: psi(x * e_i) = x * psi(e_i)
        x = RatFunc.x(field)
        for i in range(c.r):
            e = tuple(RatFunc.one(field) if t == i else RatFunc.zero(field)
                      for t in range(c.r))
            v = tuple(x * s for s in e)
            lhs = v
            for _ in range(field.p):
                from pflags.matrix import apply_connection

                lhs = apply_connection(c.A, lhs)
            assert lhs == tuple(x * s for s in psi.matvec(e))


def _mutation_charts():
    """Random charts with A != 0 (for A = 0 every iterate of a constant vector
    vanishes, so an iteration count that is off by one cannot show)."""
    rng = random.Random(606)
    charts = []
    for p in (2, 3, 5):
        drawn = 0
        while drawn < 6:
            c = random_chart_conn(rng, GF(p), r_max=3)
            if not c.A.is_zero():
                charts.append(c)
                drawn += 1
    return charts


def _mutation_conns():
    """Split connections on P^1 whose psi has a nonzero last column, so that
    each mutation below changes psi (psi is often 0 on P^1)."""
    rng = random.Random(707)
    conns = []
    for p in (2, 3, 5):
        drawn = 0
        while drawn < 2:
            c = random_conn0(rng, GF(p), r=3)
            if any(not row[-1].is_zero() for row in p_curvature(c).rows):
                conns.append(c)
                drawn += 1
    return conns


def _every_level(bmat, beta):
    """(nums, dens): nums[i][k] the numerators of T^k e_i over dens[k] = beta^k,
    k = 0..p, read out of the packed kernel level by level (``t_levels``)."""
    return t_levels(bmat, beta), [beta**k for k in range(beta.field.p + 1)]


def _iterates_through(monkeypatch, mutate):
    """Make every psi ``matrix`` returns be built from mutate(iterates), the
    every-level iterates of e_0, ..., e_(r-1), of which ``_t_iterates`` hands
    on level p.  The re-check's sample sections and the projector's images
    are as they are, so the re-check must catch every mutation that changes
    psi."""
    true_iterates = matrix._t_iterates

    def mutated(bmat, beta, extra=(), project=False):
        nums, dens = mutate(_every_level(bmat, beta))
        cols, _, images = true_iterates(bmat, beta, extra, project)
        return [its[-1] for its in nums] + cols[len(bmat):], dens[-1], images
    monkeypatch.setattr(matrix, "_t_iterates", mutated)


def _mutated_psi(c, mutate):
    """psi as the pair (N, delta) of the mutated iterates would give it."""
    nums, dens = mutate(_every_level(*_clear_denominators(c.A.rows)))
    return MatRF(c.field, [[RatFunc(e, dens[-1]) for e in row]
                           for row in zip(*(its[-1] for its in nums))])


def wrong_column(iterates):
    """psi with 1 added down its last column: its T^p numerators n over
    beta^p become n + beta^p."""
    nums, dens = iterates
    return nums[:-1] + [nums[-1][:-1] + [[e + dens[-1] for e in nums[-1][-1]]]], dens


def psi_over_x(iterates):
    """psi divided by x: its denominator beta^p becomes x beta^p."""
    nums, dens = iterates
    return nums, dens[:-1] + [dens[-1] * Poly.x(dens[-1].field)]


def t_p_minus_1(iterates):
    """T^(p-1) in place of T^p."""
    nums, dens = iterates
    return [its[:-1] + [its[-2]] for its in nums], dens[:-1] + [dens[-2]]


def test_p_curvature_recheck_catches_a_wrong_column(monkeypatch):
    charts, conns = _mutation_charts(), _mutation_conns()
    _iterates_through(monkeypatch, wrong_column)
    for c in charts:
        with pytest.raises(InternalInvariantError):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError):
            char_poly_psi(c)
    for c in conns:
        with pytest.raises(InternalInvariantError):
            p_curvature(c)


def test_p_curvature_recheck_catches_a_changed_denominator(monkeypatch):
    charts, conns = _mutation_charts(), _mutation_conns()
    _iterates_through(monkeypatch, psi_over_x)
    for c in charts:
        with pytest.raises(InternalInvariantError):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError):
            char_poly_psi(c)
    for c in conns:
        with pytest.raises(InternalInvariantError):
            p_curvature(c)


def test_p_curvature_recheck_catches_an_iteration_off_by_one(monkeypatch):
    charts, conns = _mutation_charts(), _mutation_conns()
    psis = [p_curvature_chart(c) for c in charts]
    conn_psis = [p_curvature(c) for c in conns]
    _iterates_through(monkeypatch, t_p_minus_1)
    caught = 0
    for c, psi in zip(charts, psis):
        if _mutated_psi(c, t_p_minus_1) == psi:
            continue  # T^(p-1) = T^p here (e.g. A = 1 at r = 1): nothing to catch
        with pytest.raises(InternalInvariantError):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError):
            char_poly_psi(c)
        caught += 1
    assert caught >= len(charts) - 1
    for c, psi in zip(conns, conn_psis):
        assert _mutated_psi(ChartConn.from_conn0(c), t_p_minus_1) != psi
        with pytest.raises(InternalInvariantError):
            p_curvature(c)


def test_p_curvature_recheck_catches_a_step_without_the_beta_prime_term(monkeypatch):
    """A T step that drops -k beta' n_i is shared by the build of psi and by
    the re-check, so psi v agrees with the iterated sample section and only
    the O-linearity identity can catch it."""
    charts = _mutation_charts()
    psis = [p_curvature_chart(c) for c in charts]
    true_step = matrix._t_step

    def without_beta_prime(*args):
        state, step, read, layout = true_step(*args)
        return state, lambda state, k: step(state, 0), read, layout
    monkeypatch.setattr(matrix, "_t_step", without_beta_prime)
    caught = 0
    for c, psi in zip(charts, psis):
        if _mutated_psi(c, lambda iterates: iterates) == psi:
            continue  # beta' = 0, or the term cancels in psi: nothing to catch
        with pytest.raises(InternalInvariantError):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError):
            char_poly_psi(c)
        caught += 1
    assert caught >= len(charts) // 2


def test_p_curvature_recheck_catches_level_one_read_off_the_rows(monkeypatch):
    """T e_i taken from row i of B in place of column i, the later steps
    right: psi changes unless B is symmetric, and N v no longer matches the
    sample section the re-check iterates."""
    charts = _mutation_charts()
    psis = [p_curvature_chart(c) for c in charts]
    true_iterates, true_step = matrix._t_iterates, matrix._t_step

    def from_rows(bmat, beta, extra=(), project=False):
        # the samples and images as they are; each e_i restarted at level 1
        # from row i of B, a column of the kernel stepped by k = 1..p-1 only
        cols, delta, images = true_iterates(bmat, beta, extra, project)
        state, step, read, _ = true_step(bmat, beta, [list(row) for row in bmat], beta.field.p)
        for k in range(1, beta.field.p):
            state = step(state, k)
        cols[:len(bmat)] = read(state, len(bmat))
        return cols, delta, images

    monkeypatch.setattr(matrix, "_t_iterates", from_rows)
    caught = 0
    for c, psi in zip(charts, psis):
        cols, delta, _ = from_rows(*_clear_denominators(c.A.rows))
        if MatRF(c.field, [[RatFunc(e, delta) for e in row] for row in zip(*cols)]) == psi:
            continue  # B symmetric, or the change cancels in psi: nothing to catch
        with pytest.raises(InternalInvariantError, match="disagrees with iterated T"):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError, match="disagrees with iterated T"):
            char_poly_psi(c)
        caught += 1
    assert caught >= len(charts) // 2


def test_p_curvature_recheck_catches_beta_p_without_frobenius(monkeypatch):
    """Over GF(4) and GF(9), beta^p is beta's Frobenius image at x^p; with
    a coefficient of beta outside F_p, beta(x^p) alone differs from delta."""
    rng = random.Random(4909)
    charts = []
    for field in (GF(2, 2), GF(3, 2)):
        drawn = 0
        while drawn < 6:
            c = random_chart_conn(rng, field, r_max=3)
            beta = _clear_denominators(c.A.rows)[1]
            if any(field.frobenius(b) != b for b in beta.coeffs):
                charts.append(c)
                drawn += 1
    monkeypatch.setattr(Field, "frobenius", lambda field, a: a)
    for c in charts:
        with pytest.raises(InternalInvariantError, match="denominator is not beta\\^p"):
            p_curvature_chart(c)
        with pytest.raises(InternalInvariantError, match="denominator is not beta\\^p"):
            char_poly_psi(c)
        with pytest.raises(InternalInvariantError, match="denominator is not beta\\^p"):
            nilpotent_flag_chart(c)


def test_char_poly_psi_builds_no_matrix(monkeypatch):
    """char_poly_psi reads psi as the cleared pair (N, delta) alone: it forms
    no MatRF, so no entry of psi is reduced."""
    charts = _mutation_charts()
    built = []
    true_init = MatRF.__init__
    monkeypatch.setattr(MatRF, "__init__",
                        lambda m, field, rows: built.append(1) or true_init(m, field, rows))
    for c in charts:
        char_poly_psi(c)
    assert built == []


def test_char_poly_psi_is_berkowitz_of_the_chart_psi():
    p31 = random_chart_conn(random.Random(36), GF(31), r=2)
    assert not char_poly_psi(p31).coeffs[0].is_zero()
    for c in _mutation_charts() + [p31]:
        assert char_poly_psi(c).coeffs == tuple(charpoly_berkowitz(p_curvature_chart(c))[:-1])


# -- characteristic polynomial and descent -----------------------------------------------


def test_char_poly_psi_pinned_examples():
    cp = char_poly_psi(chart(F3, [[[], []], [[], []]]))
    assert all(a.is_zero() for a in cp.coeffs) and cp.descent_ok
    cp = char_poly_psi(chart(F2, [[[0, 1]]]))
    assert cp.coeffs == (rf(F2, [1, 0, 1]),) and cp.descent_ok
    cp = char_poly_psi(CYCLIC)
    assert cp.coeffs[0] == rf(F3, [2, 0, 0, 2]) and cp.coeffs[1].is_zero()
    assert cp.descent_ok


def test_descent_holds_on_random_charts():
    rng = random.Random(52)
    for _ in range(40):
        field = GF(rng.choice([2, 3, 5]))
        cp = char_poly_psi(random_chart_conn(rng, field, r_max=3))
        assert cp.descent_ok
        for a in cp.coeffs:
            if not a.is_zero():
                assert in_frobenius_subfield(a, 1)


def test_charpoly_gauge_invariance():
    rng = random.Random(53)
    for _ in range(15):
        field = GF(rng.choice([2, 3, 5]))
        c = random_chart_conn(rng, field, r_max=2, num_deg=2, den_deg=1)
        g = random_polynomial_gauge(rng, field, c.r)
        gauged = ChartConn(field, c.r, gauge_transform(c.A, g))
        psi_c = p_curvature_chart(c)
        psi_g = p_curvature_chart(gauged)
        assert psi_g == inverse(g) * psi_c * g
        assert charpoly_berkowitz(psi_c) == charpoly_berkowitz(psi_g)


# -- dimension count -------------------------------------------------------------------------


def test_hitchin_dims_pinned_examples():
    assert hitchin_dims(2, 2) == HitchinDims(5, 4, True)
    assert hitchin_dims(2, 1) == HitchinDims(2, 2, False)
    assert hitchin_dims(3, 2) == HitchinDims(9, 6, True)


def test_hitchin_dims_formula_range():
    for g in range(2, 8):
        for r in range(1, 7):
            dims = hitchin_dims(g, r)
            assert dims.dim_b == g + (r * r - 1) * (g - 1)
            assert dims.dim_d == r * g
            assert dims.gamma_nondominant == (r >= 2)


def test_hitchin_dims_preconditions():
    with pytest.raises(PreconditionError):
        hitchin_dims(1, 2)
    with pytest.raises(PreconditionError):
        hitchin_dims(2, 0)


# -- rank-2 no-flag certificates ----------------------------------------------------------------


def test_certificate_hyperbolic_fixture():
    cert = no_flag_certificate_rank2(CYCLIC)
    assert cert.verdict == Verdict.CERTIFIED
    # Char = t^2 - (x+1)^3; the witness discriminant 4(x+1)^3 has odd valuation
    assert cert.char.coeffs[0] == rf(F3, [2, 0, 0, 2])
    assert cert.witness == rf(F3, [1, 0, 0, 1])
    # no eigenline over the ambient field: constant candidates never kill Char
    psi = p_curvature_chart(CYCLIC)
    for a in F3.elements():
        shifted = psi - MatRF.identity(F3, 2).scale(RatFunc.constant(F3, a))
        if charpoly_berkowitz(shifted)[0].is_zero():
            assert not kernel(shifted)


def test_certificate_negative_cases():
    nilp = chart(F5, [[[], [1]], [[], []]])
    cert = no_flag_certificate_rank2(nilp)
    assert cert.verdict == Verdict.NOT_CERTIFIED
    assert cert.witness is not None and cert.witness.is_zero()  # double eigenvalue 0
    assert no_flag_certificate_rank2(chart(F3, [[[], []], [[], []]])).verdict \
        == Verdict.NOT_CERTIFIED


def test_certificate_char2_cases():
    # zero trace: the constant coefficient descends to F_2(x^2), so it is a
    # square in F_2(x) and an eigenvalue always exists; never certified
    c = chart(F2, [[[], [1]], [[0, 1], []]])
    psi = p_curvature_chart(c)
    assert (psi.rows[0][0] + psi.rows[1][1]).is_zero()
    cert = no_flag_certificate_rank2(c)
    assert cert.verdict == Verdict.NOT_CERTIFIED
    assert cert.witness == rf(F2, [0, 1])  # Char = (t + x)^2
    # nonzero trace: undecided rather than possibly wrong
    u = chart(F2, [[[0, 1], [1]], [[], []]])
    assert no_flag_certificate_rank2(u).verdict == Verdict.UNKNOWN


def test_certificate_requires_rank_2():
    with pytest.raises(PreconditionError):
        no_flag_certificate_rank2(chart(F3, [[[0, 1]]]))


def test_embedded_split_connections_never_certified():
    rng = random.Random(54)
    for _ in range(60):
        field = GF(rng.choice([2, 3, 5]))
        c = random_conn0(rng, field, r_max=2, r=2)
        emb = ChartConn.from_conn0(c)
        assert p_curvature_chart(emb) == p_curvature(c)
        assert no_flag_certificate_rank2(emb).verdict != Verdict.CERTIFIED
        assert verify_flag(c, complete_flag(c))


# -- nilpotent triangularization ----------------------------------------------------------------


def test_nilpotent_flag_pinned_examples():
    out = nilpotent_flag_chart(chart(F3, [[[], [1]], [[], []]]))
    assert out.gauge == MatRF.identity(F3, 2) and out.perm == (0, 1)
    out = nilpotent_flag_chart(chart(F2, [[[], [0, 1]], [[], []]]))
    assert out.gauge == MatRF.identity(F2, 2)
    with pytest.raises(PreconditionError):
        nilpotent_flag_chart(CYCLIC)


def test_nilpotent_flag_randomized_conjugates():
    rng = random.Random(55)
    for _ in range(25):
        field = GF(rng.choice([2, 3, 5]))
        r = rng.randint(2, 3)
        upper = random_strict_upper(rng, field, r)
        g = random_polynomial_gauge(rng, field, r)
        conn = ChartConn(field, r, gauge_transform(upper, g))
        out = nilpotent_flag_chart(conn)
        transformed = gauge_transform(conn.A, out.gauge)
        for i in range(r):
            for j in range(i):
                assert transformed.rows[i][j].is_zero()
            diag = transformed.rows[i][i]
            scalar = diag
            for _ in range(field.p - 1):
                scalar = scalar.derivative()
            assert (scalar + diag**field.p).is_zero()


# Reference: the first flag vector found by restricting T to ker psi, solving
# for the horizontal sections of the restriction and mapping the first one
# back.  The flag takes sols[0] of the ambient sections instead; the two agree.


def _solve_ref(m_cols, target):
    ncols = len(m_cols)
    rows, pivots = _rref_ref([[col[i] for col in m_cols] + [target[i]]
                              for i in range(len(target))])
    assert ncols not in pivots, "kernel of psi is not stable under T"
    x = [RatFunc.zero(target[0].field)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def _horizontal_in_ker_psi_ref(a):
    field = a.field
    basis = kernel(p_curvature_matrix(a))
    k = len(basis)
    cols = [_solve_ref(basis, apply_connection(a, b)) for b in basis]
    w = horizontal_sections(MatRF(field, [[cols[j][i] for j in range(k)] for i in range(k)]))[0]
    v = [RatFunc.zero(field)] * a.n
    for coef, b in zip(w, basis):
        v = [acc + coef * e for acc, e in zip(v, b)]
    return tuple(v)


def test_first_section_matches_restriction_to_ker_psi():
    rng = random.Random(56)
    for field in (F2, F3, F5, GF(2, 2)):
        for r in (2, 3, 4):
            a = gauge_transform(random_strict_upper(rng, field, r),
                                random_polynomial_gauge(rng, field, r))
            v0 = _horizontal_in_ker_psi_ref(a)
            assert horizontal_sections(a)[0] == v0
            gauge = nilpotent_flag_chart(ChartConn(field, r, a)).gauge
            assert tuple(row[0] for row in gauge.rows) == v0


def test_first_section_matches_restriction_beside_a_cyclic_block():
    # a flat block beside [[0, 1], [x, 0]] (invertible psi), mixed by a
    # polynomial gauge: ker psi is not spanned by standard vectors
    rng = random.Random(57)
    for field in (F2, F3, F5):
        for flat_rank in (1, 2):
            r = flat_rank + 2
            zero = RatFunc.zero(field)
            rows = [[zero] * r for _ in range(r)]
            rows[flat_rank][flat_rank + 1] = RatFunc.one(field)
            rows[flat_rank + 1][flat_rank] = RatFunc.x(field)
            a = gauge_transform(MatRF(field, rows), random_polynomial_gauge(rng, field, r))
            psi = p_curvature_matrix(a)
            assert len(kernel(psi)) == flat_rank and not psi.is_zero()
            assert horizontal_sections(a)[0] == _horizontal_in_ker_psi_ref(a)


def _extend_to_basis_ref(field, v0, r):
    """[v0 | standard columns] completed greedily: the pivot columns of the
    reduced row echelon form of [v0 | I]."""
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    _, pivots = _rref_ref([[v0[t]] + [one if j == t else zero for j in range(r)]
                           for t in range(r)])
    assert len(pivots) == r and pivots[0] == 0
    cols = [tuple(v0)] + [tuple(one if t == c - 1 else zero for t in range(r))
                          for c in pivots[1:]]
    return MatRF(field, [[cols[j][i] for j in range(r)] for i in range(r)])


# Oracle: the triangularization by matrix products, g1^-1 (a g1 + g1') for the
# level gauge g1 = [v0 | e_s1 ... e_s(r-1)] and the gauge g1 diag(1, g_sub).


def _extend_to_basis_oracle(field, v0, r):
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    m = max(i for i in range(r) if not v0[i].is_zero())
    others = [i for i in range(r) if i != m]
    g = MatRF(field, [[v0[i]] + [one if i == s else zero for s in others] for i in range(r)])
    inv_vm = v0[m].inv()
    inv = [[inv_vm if j == m else zero for j in range(r)]]
    for s in others:
        inv.append([one if j == s else -v0[s] * inv_vm if j == m else zero for j in range(r)])
    return g, MatRF(field, inv)


def _triangularize_oracle(a):
    field = a.field
    r = a.n
    if r == 1:
        return MatRF.identity(field, 1)
    v0 = horizontal_sections(a)[0]
    g1, g1_inv = _extend_to_basis_oracle(field, v0, r)
    assert g1 == _extend_to_basis_ref(field, v0, r) and g1_inv == inverse(g1)
    b = g1_inv * (a * g1 + g1.derivative())
    assert all(b.rows[i][0].is_zero() for i in range(r))
    g_sub = _triangularize_oracle(MatRF(field, [row[1:] for row in b.rows[1:]]))
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    block = [[one] + [zero] * (r - 1)] + [[zero] + list(row) for row in g_sub.rows]
    return g1 * MatRF(field, block)


def test_triangularize_matches_the_product_oracle():
    rng = random.Random(58)
    for field in (F2, F3, F5, GF(2, 2)):
        for r in (2, 3, 4, 5):
            for _ in range(2):
                a = gauge_transform(random_strict_upper(rng, field, r),
                                    random_polynomial_gauge(rng, field, r))
                gauge, order = _triangularize(*_clear_denominators(a.rows))
                assert gauge == _triangularize_oracle(a)
                assert sorted(order) == list(range(r))
                for k, i in enumerate(order):
                    assert not gauge.rows[i][k].is_zero()
                    assert all(e.is_zero() for e in gauge.rows[i][k + 1:])


# Oracle: each level's quotient formed entrywise as reduced rational functions,
# a[sk][sl] - (v0[sk]/v0[m]) a[m][sl], then cleared.  _triangularize must hand
# exactly that (B, beta) to the next level.


def _quotient_by_ratfuncs(bmat, beta):
    field = beta.field
    a = MatRF(field, [[RatFunc(e, beta) for e in row] for row in bmat])
    v0 = horizontal_sections(a)[0]
    m = max(i for i in range(a.n) if not v0[i].is_zero())
    others = [i for i in range(a.n) if i != m]
    return _clear_denominators([[a.rows[k][l] - v0[k] / v0[m] * a.rows[m][l] for l in others]
                                for k in others])


def _cleared_level_charts():
    rng = random.Random(67)
    for field in (F2, F3, F5, GF(2, 2), GF(3, 2), GF(101)):
        for r in (3, 4, 5):
            for _ in range(4 if field.q < 100 else 1):
                a = gauge_transform(random_strict_upper(rng, field, r),
                                    random_polynomial_gauge(rng, field, r))
                yield ChartConn(field, r, a)


class _WrongQuotient(Exception):
    pass


def _cleared_quotient_mismatches(monkeypatch, charts):
    """(charts with a level whose (B, beta) differs from the oracle's or whose
    run raises, quotients over a g != 1).  Each level is compared as it is
    entered, before it runs, so a wrong quotient stops its chart at once."""
    wrong = reduced = 0
    parents, true_triangularize = [], hitchin._triangularize

    def checked(bmat, beta, level=None):
        nonlocal reduced
        if parents:
            pb, pbeta = parents[-1]
            if ([list(row) for row in bmat], beta) != _quotient_by_ratfuncs(pb, pbeta):
                raise _WrongQuotient
            w, _ = next(matrix._kernel_sections(pb, pbeta))
            wm = next(e for e in reversed(w) if e)
            reduced += beta.degree < wm.degree + pbeta.degree  # D = w_m beta over g
        parents.append((bmat, beta))
        return true_triangularize(bmat, beta, level)

    with monkeypatch.context() as mp:
        mp.setattr(hitchin, "_triangularize", checked)
        for c in charts:
            parents.clear()
            try:
                nilpotent_flag_chart(c)
            except (_WrongQuotient, PflagsError):
                wrong += 1
    return wrong, reduced


def test_each_level_hands_on_the_cleared_ratfunc_quotient(monkeypatch):
    wrong, reduced = _cleared_quotient_mismatches(monkeypatch, _cleared_level_charts())
    assert wrong == 0
    assert reduced >= 10, reduced


def _quotient_mutant(divide=True, monic=True, swap=False):
    """hitchin._quotient, optionally without the division by g, without the
    monic scaling, or with w[m] and w[sk] swapped in n_kl."""
    def quotient(bmat, beta, w, m):
        field = beta.field
        others = [i for i in range(len(bmat)) if i != m]
        nums = [poly_dot(((w[k] if swap else w[m], bmat[k][l]),
                          (-(w[m] if swap else w[k]), bmat[m][l])), field)
                for k in others for l in others]
        den = w[m] * beta
        if divide:
            den, *nums = matrix._primitive([den, *nums])
        if monic:
            c = field.inv(den.lc())
            den, nums = den.scale(c), [e.scale(c) for e in nums]
        n = len(others)
        return [nums[k * n:k * n + n] for k in range(n)], den
    return quotient


def test_the_quotient_mutant_builder_is_faithful(monkeypatch):
    monkeypatch.setattr(hitchin, "_quotient", _quotient_mutant())
    assert _cleared_quotient_mismatches(monkeypatch, _cleared_level_charts())[0] == 0


@pytest.mark.parametrize("mutant", [dict(divide=False), dict(monic=False), dict(swap=True)])
def test_the_cleared_quotient_oracle_catches_a_mutant(monkeypatch, mutant):
    monkeypatch.setattr(hitchin, "_quotient", _quotient_mutant(**mutant))
    assert _cleared_quotient_mismatches(monkeypatch, _cleared_level_charts())[0] > 0


def test_a_rank_r_chart_takes_r_minus_1_sections_and_no_1x1_quotient(monkeypatch):
    calls, sizes = [], []
    true_sections, true_quotient = hitchin._kernel_sections, hitchin._quotient

    def counted(*args):
        calls.append(len(args[0]))
        return true_sections(*args)

    def sized(*args):
        sub, beta = true_quotient(*args)
        sizes.append(len(sub))
        return sub, beta

    monkeypatch.setattr(hitchin, "_kernel_sections", counted)
    monkeypatch.setattr(hitchin, "_quotient", sized)
    rng = random.Random(68)
    for field in (F2, F3, GF(2, 2)):
        for r in range(1, 6):
            a = gauge_transform(random_strict_upper(rng, field, r),
                                random_polynomial_gauge(rng, field, r))
            calls.clear()
            sizes.clear()
            nilpotent_flag_chart(ChartConn(field, r, a))
            assert calls == list(range(r, 1, -1))
            assert sizes == list(range(r - 1, 1, -1))


# The triangularity re-check, structure and then forward substitution, against
# gauge_transform's verdict G^-1 (A G + G') as the test-local oracle.  Where the
# structure holds the two decide the same statement, so they must agree.


def _triangular_by_products(a, gauge):
    try:
        t = gauge_transform(a, gauge)
    except PflagsError:  # a singular gauge
        return False
    return all(t.rows[i][j].is_zero() for i in range(a.n) for j in range(i))


def _triangular_by_substitution(a, gauge, order):
    try:
        _check_triangular(*_clear_denominators(a.rows), gauge, order)
    except InternalInvariantError:
        return False
    return True


def _recheck_cases(seed, ranks=(2, 3), draws=3):
    """(rng, A, gauge, row order) for nilpotent charts gauged from strictly
    upper ones, over GF(2), GF(3), GF(5), GF(4) and GF(101)."""
    rng = random.Random(seed)
    for field in (F2, F3, F5, GF(2, 2), GF(101)):
        for r in ranks:
            for _ in range(draws):
                a = gauge_transform(random_strict_upper(rng, field, r),
                                    random_polynomial_gauge(rng, field, r))
                yield (rng, a, *_triangularize(*_clear_denominators(a.rows)))


def _with_entry(gauge, i, j, fn):
    rows = [list(row) for row in gauge.rows]
    rows[i][j] = fn(rows[i][j])
    return MatRF(gauge.field, rows)


def _perturbed(rng, gauge, order):
    """x added to column j at row order[k], k > j: below the diagonal in the
    row order, so the structure holds and only the substitution can object."""
    j = rng.randrange(gauge.n - 1)
    k = rng.randrange(j + 1, gauge.n)
    return _with_entry(gauge, order[k], j, lambda e: e + RatFunc.x(gauge.field))


def test_triangularity_recheck_agrees_with_the_product_oracle():
    verdicts = []
    for rng, a, gauge, order in _recheck_cases(62):
        for g in (gauge, _perturbed(rng, gauge, order)):
            verdict = _triangular_by_products(a, g)
            assert _triangular_by_substitution(a, g, order) == verdict
            verdicts.append(verdict)
    assert verdicts.count(True) == 30 and verdicts.count(False) >= 20, verdicts


def test_triangularity_recheck_catches_a_perturbed_column():
    caught = 0
    for rng, a, gauge, order in _recheck_cases(63, ranks=(2, 3, 4)):
        g = _perturbed(rng, gauge, order)
        if _triangular_by_products(a, g):
            continue
        with pytest.raises(InternalInvariantError, match="failed to triangularize"):
            _check_triangular(*_clear_denominators(a.rows), g, order)
        caught += 1
    assert caught >= 35, caught


def test_triangularity_recheck_refuses_an_order_that_is_not_a_permutation():
    for _, a, gauge, order in _recheck_cases(64):
        for bad in ([*order[:-1], order[0]], [*order[:-1], a.n], order[:-1]):
            with pytest.raises(InternalInvariantError, match="not a permutation"):
                _check_triangular(*_clear_denominators(a.rows), gauge, bad)


def test_triangularity_recheck_refuses_a_zero_on_the_permuted_diagonal():
    for rng, a, gauge, order in _recheck_cases(65):
        k = rng.randrange(a.n)
        g = _with_entry(gauge, order[k], k, lambda e: RatFunc.zero(a.field))
        with pytest.raises(InternalInvariantError, match="nonzero diagonal"):
            _check_triangular(*_clear_denominators(a.rows), g, order)


def test_triangularity_recheck_catches_a_dropped_substitution_term(monkeypatch):
    # drop the term low[-1][0] u_0 from the last row's substitution.  It is
    # live where G has a nonzero entry there and u_0 = (G^-1 (A G + G'))_0j is
    # nonzero for some 1 <= j < r - 1; then the last u_k of column j is wrong
    true_solve = hitchin._forward_solve

    def dropping(low, x):
        zero = low[0][0] - low[0][0]
        return true_solve([*low[:-1], [zero, *low[-1][1:]]], x)

    live = []
    for _, a, gauge, order in _recheck_cases(66, ranks=(3, 4), draws=6):
        t = gauge_transform(a, gauge)
        if not gauge.rows[order[-1]][0].is_zero() and \
                any(not t.rows[0][j].is_zero() for j in range(1, a.n - 1)):
            live.append(a)
    assert len(live) >= 10, len(live)
    monkeypatch.setattr(hitchin, "_forward_solve", dropping)
    for a in live:
        with pytest.raises(InternalInvariantError, match="failed to triangularize"):
            nilpotent_flag_chart(ChartConn(a.field, a.n, a))


# The decision census: every rank-2 chart with polynomial entries of degree
# <= 1 over GF(2), and a seeded sample over GF(3), sorted by what the library
# decides (a CERTIFIED verdict, or a flag from nilpotent_flag_chart) against a
# brute-force search for a stable line.  The undecided counts are pinned: a
# change that decides more charts moves them, and says so.


def _polys(field, deg):
    return [Poly(field, c) for c in itertools.product(range(field.p), repeat=deg + 1)]


def _line_terms(field, deg):
    """(u'w - uw', u^2, uw, w^2) for every h = u/w in lowest terms with w
    monic and deg u, deg w <= deg."""
    return [(u.derivative() * w - u * w.derivative(), u * u, u * w, w * w)
            for w in _polys(field, deg) if not w.is_zero() and w.coeffs[-1] == 1
            for u in _polys(field, deg) if poly_gcd(u, w).degree == 0]


def _has_stable_line(rows, terms):
    # (0, 1) is stable iff A01 = 0; (1, u/w) iff u'w - uw' = A01 u^2 + (A00 - A11) uw - A10 w^2
    (a00, a01), (a10, a11) = rows
    return a01.is_zero() or any(lhs == a01 * uu + (a00 - a11) * uw - a10 * ww
                                for lhs, uu, uw, ww in terms)


def _census(field, charts, deg):
    terms = _line_terms(field, deg)
    counts = {"certified": 0, "flag": 0, "undecided, a line": 0, "undecided, no line": 0}
    for entries in charts:
        rows = [entries[:2], entries[2:]]
        a = MatRF(field, [[RatFunc(e) for e in row] for row in rows])
        c = ChartConn(field, 2, a)
        certified = no_flag_certificate_rank2(c).verdict is Verdict.CERTIFIED
        try:
            gauge = nilpotent_flag_chart(c).gauge
        except PreconditionError:
            gauge = None
        line = _has_stable_line(rows, terms)
        if certified:
            assert not line and gauge is None, entries
            counts["certified"] += 1
        elif gauge is not None:
            assert gauge_transform(a, gauge).rows[1][0].is_zero(), entries
            counts["flag"] += 1
        else:
            counts["undecided, a line" if line else "undecided, no line"] += 1
    return counts


def test_decision_census_gf2_every_chart():
    # all 4^4 = 256 charts, lines up to degree 3; GF(2) certifies nothing
    # (ROADMAP item 1), and the 84 charts without a line are the ones to certify
    assert _census(F2, itertools.product(_polys(F2, 1), repeat=4), 3) == {
        "certified": 0, "flag": 10, "undecided, a line": 162, "undecided, no line": 84}


def test_decision_census_gf3_seeded_sample():
    # a seeded sample of 300 of the 9^4 = 6,561 charts, lines up to degree 2:
    # its own counts, not the full census's
    charts = random.Random(11).sample(list(itertools.product(_polys(F3, 1), repeat=4)), 300)
    assert _census(F3, charts, 2) == {
        "certified": 135, "flag": 3, "undecided, a line": 162, "undecided, no line": 0}
