"""Cross-validation of independent mathematical identities.

These tie different subsystems together: each identity is computed along two
routes that share no code path, so a bug in either side breaks the test.
"""

import random

from pflags.fields import GF
from pflags.hitchin import Verdict, no_flag_certificate_rank2, p_curvature_chart
from pflags.matrix import MatRF, charpoly_berkowitz, kernel
from pflags.poly import Poly
from pflags.pone import dual, p_curvature, tensor
from pflags.ratfunc import RatFunc, in_frobenius_subfield
from pflags.sampling import random_chart_conn, random_conn0, random_ratfunc


def kron_sum(psi_a, psi_b):
    """psi_a (x) I + I (x) psi_b on the lexicographic pair basis."""
    F = psi_a.field
    ra, rb = psi_a.n, psi_b.n
    n = ra * rb
    zero = RatFunc.zero(F)
    rows = [[zero] * n for _ in range(n)]
    for j in range(ra):
        for i in range(ra):
            e = psi_a.rows[j][i]
            if not e.is_zero():
                for l in range(rb):
                    rows[j * rb + l][i * rb + l] = rows[j * rb + l][i * rb + l] + e
    for l in range(rb):
        for k in range(rb):
            e = psi_b.rows[l][k]
            if not e.is_zero():
                for i in range(ra):
                    rows[i * rb + l][i * rb + k] = rows[i * rb + l][i * rb + k] + e
    return MatRF(F, rows)


def conjugate_by_perm(m, perm):
    return MatRF(m.field, [[m.rows[perm[u]][perm[v]] for v in range(m.n)]
                           for u in range(m.n)])


def test_p_curvature_additive_under_tensor():
    # T_tensor = T_a (x) 1 + 1 (x) T_b with commuting summands, so in
    # characteristic p the p-th power distributes over the sum
    rng = random.Random(71)
    for _ in range(20):
        field = GF(rng.choice([2, 3]))
        a = random_conn0(rng, field, r_max=2, spread=2)
        b = random_conn0(rng, field, r_max=2, spread=2)
        t, perm = tensor(a, b)
        lhs = p_curvature(t)
        rhs = conjugate_by_perm(kron_sum(p_curvature(a), p_curvature(b)), perm)
        assert lhs == rhs


def test_p_curvature_of_dual_is_negative_transpose():
    rng = random.Random(72)
    for _ in range(25):
        field = GF(rng.choice([2, 3, 5]))
        a = random_conn0(rng, field, r_max=3, spread=2)
        d, perm = dual(a)
        lhs = p_curvature(d)
        psi = p_curvature(a)
        neg_t = MatRF(field, [[-psi.rows[v][u] for v in range(psi.n)]
                              for u in range(psi.n)])
        assert lhs == conjugate_by_perm(neg_t, perm)


def _frobenius_parts(f, p):
    """The c_j(y) with f = sum_{j<p} c_j(x^p) x^j: f = n d^(p-1) / d^p and
    d^p = D(x^p), D the coefficient-wise Frobenius of d, so the c_j are the
    numerator's exponents grouped mod p, over D."""
    F = f.field
    if f.is_zero():
        return [RatFunc.zero(F)] * p
    big = f.num * f.den ** (p - 1)
    den_y = Poly(F, [F.frobenius(c) for c in f.den.coeffs])
    return [RatFunc(Poly(F, big.coeffs[j::p]), den_y) for j in range(p)]


def test_frobenius_membership_agrees_with_power_decomposition():
    # independent route: f lies in F_q(x^p) iff all components above the
    # 0th vanish in the decomposition f = sum_j c_j(x^p) x^j
    rng = random.Random(73)
    for _ in range(120):
        field = GF(rng.choice([2, 3, 5]))
        f = random_ratfunc(rng, field)
        if rng.random() < 0.5:
            f = f.compose_xpow(field.p)
        parts = _frobenius_parts(f, field.p)
        decomposed = all(parts[j].is_zero() for j in range(1, field.p))
        assert in_frobenius_subfield(f, 1) == decomposed
        # the decomposition itself reassembles to f
        x = RatFunc.x(field)
        acc = RatFunc.zero(field)
        powx = RatFunc.one(field)
        for j in range(field.p):
            acc = acc + parts[j].compose_xpow(field.p) * powx
            powx = powx * x
        assert acc == f


def test_not_certified_witness_is_an_eigenvalue():
    rng = random.Random(74)
    found = 0
    while found < 30:
        field = GF(rng.choice([3, 5]))
        c = random_chart_conn(rng, field, r_max=2, num_deg=2, den_deg=1, r=2)
        cert = no_flag_certificate_rank2(c)
        if cert.verdict != Verdict.NOT_CERTIFIED:
            continue
        found += 1
        lam = cert.witness
        a0, a1 = cert.char.coeffs
        assert (a0 + a1 * lam + lam * lam).is_zero()
        # and an eigenvector exists over the function field
        psi = p_curvature_chart(c)
        shifted = psi - MatRF.identity(field, 2).scale(lam)
        assert kernel(shifted)


def test_certified_never_has_constant_eigenvalue():
    rng = random.Random(75)
    found = 0
    attempts = 0
    while found < 10 and attempts < 400:
        attempts += 1
        field = GF(rng.choice([3, 5]))
        c = random_chart_conn(rng, field, r_max=2, num_deg=2, den_deg=1, r=2)
        cert = no_flag_certificate_rank2(c)
        if cert.verdict != Verdict.CERTIFIED:
            continue
        found += 1
        cp = charpoly_berkowitz(p_curvature_chart(c))
        for a in field.elements():
            const = RatFunc.constant(field, a)
            value = cp[0] + cp[1] * const + cp[2] * const * const
            assert not value.is_zero()
    assert found >= 5  # certified instances are common at these sizes


def test_charpoly_constant_term_is_determinant_route():
    # det via elimination-free route: (-1)^n a_0 equals the product of
    # eigen-factors encoded by the characteristic polynomial; compare against
    # an explicit 2x2 determinant
    rng = random.Random(76)
    for _ in range(40):
        field = GF(rng.choice([2, 3, 5]))
        m = MatRF(field, [[random_ratfunc(rng, field, 2, 1) for _ in range(2)]
                          for _ in range(2)])
        cp = charpoly_berkowitz(m)
        det = m.rows[0][0] * m.rows[1][1] - m.rows[0][1] * m.rows[1][0]
        assert cp[0] == det
        assert cp[1] == -(m.rows[0][0] + m.rows[1][1])
