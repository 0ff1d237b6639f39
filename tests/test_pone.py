import dataclasses
import random

import pytest

from pflags import matrix, pone, sampling
from pflags.errors import NeedsExtensionError, PflagsError, PreconditionError
from pflags.fields import GF, PRIME_BOUND
from pflags.matrix import MatRF, gauge_transform, inverse, is_nilpotent
from pflags.poly import Poly
from pflags.pone import (
    BundleP1,
    Conn0,
    DmBundle,
    FlagP1,
    admits_level,
    as_level,
    canonical_connection,
    cartier_descent,
    complete_flag,
    dual,
    frobenius_pullback,
    infinity_chart_matrix,
    p_curvature,
    pm1_curvature,
    structural_violations,
    tensor,
    validate,
    verify_flag,
)
from pflags.ratfunc import RatFunc
from pflags.sampling import random_conn0, random_flat_conn0, random_poly

F2, F3, F5 = GF(2), GF(3), GF(5)


def conn(field, degrees, rows):
    return Conn0(field, BundleP1(degrees),
                 [[Poly(field, e) for e in row] for row in rows])


CEX = conn(F2, [2, 0], [[[], [1]], [[], []]])
CEX40 = conn(F2, [4, 0], [[[], [1, 1, 1]], [[], []]])


# -- records ----------------------------------------------------------------------


def _equal_pairs():
    """Two equal, separately built instances of each record."""
    base = conn(F2, [2, 0], [[[], [1]], [[], []]])
    return [
        (BundleP1([0, 2]), BundleP1((2, 0))),
        (base, CEX),
        (DmBundle(2, base), DmBundle(2, CEX)),
        (FlagP1([1, 0, 2]), FlagP1((1, 0, 2))),
    ]


@pytest.mark.parametrize("a,b", _equal_pairs(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_and_hash_by_value(a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    for f in dataclasses.fields(a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, getattr(b, f.name))


def test_records_differ_on_any_field():
    assert BundleP1([0, 2]) != BundleP1([0, 1])
    assert CEX != conn(F2, [2, 0], [[[], [1, 1]], [[], []]])
    assert CEX != conn(F3, [2, 0], [[[], [1]], [[], []]])
    assert DmBundle(1, CEX) != DmBundle(2, CEX)
    assert FlagP1((1, 0, 2)) != FlagP1((0, 1, 2))
    assert BundleP1([0]) != (0,) and FlagP1((0,)) != (0,)


def test_record_reprs_are_pinned():
    assert repr(BundleP1([0, 2])) == "O(2, 0)"
    assert repr(FlagP1([1, 0, 2])) == "FlagP1(1, 0, 2)"
    assert repr(CEX) == "Conn0(GF(2), O(2, 0))"
    assert repr(DmBundle(2, CEX)) == "DmBundle(m=2, base=Conn0(GF(2), O(2, 0)))"


def test_validate_recomputes_on_equal_connections():
    bad = conn(F2, [2, 0], [[[], []], [[1], []]])
    again = conn(F2, [2, 0], [[[], []], [[1], []]])
    first = validate(bad)
    assert first and first == validate(again)
    first.clear()  # the caller owns the list; nothing is kept on the connection
    assert validate(bad) == validate(again) != []


# -- bundles and levels -----------------------------------------------------------


def test_bundle_canonicalizes_descending():
    assert BundleP1([0, 3, 6]).degrees == (6, 3, 0)
    with pytest.raises(PflagsError):
        BundleP1([])


@pytest.mark.parametrize(
    "degrees,p,m,expected",
    [
        ([6, 3, 0], 3, 0, True),
        ([6, 3, 0], 3, 1, False),
        ([0, 0], 2, 0, True),
        ([0, 0], 5, 3, True),
        ([2, 0], 3, 0, False),
    ],
)
def test_admits_level(degrees, p, m, expected):
    assert admits_level(BundleP1(degrees), p, m) == expected


@pytest.mark.parametrize("p", [0, 1, -2])
def test_admits_level_rejects_characteristic_below_2(p):
    with pytest.raises(PreconditionError):
        admits_level(BundleP1([2, 0]), p, 0)


@pytest.mark.parametrize("p,error", [
    (4, "a prime, got 4"), (1, "a prime, got 1"), (65535, "a prime, got 65535"),
    (PRIME_BOUND, "below the primality bound"), (10**4298, "below the primality bound")])
def test_admits_level_takes_a_prime_characteristic_alone(p, error):
    # degree 0 is divisible by any p^(m+1): only the check on p refuses
    with pytest.raises(PreconditionError, match=f"^characteristic must be {error}"):
        admits_level(BundleP1([0]), p, 0)


@pytest.mark.parametrize("p,top", [(2, 16), (3, 10), (251, 2), (65537, 0)])
def test_levels_stop_where_p_to_the_m_passes_2_to_the_16(p, top):
    field = GF(p)
    base = Conn0(field, BundleP1([0]), [[Poly.zero(field)]])
    bundle = BundleP1([0])
    assert DmBundle(top, base).underlying_degrees() == (0,)
    assert frobenius_pullback(DmBundle(0, base), top).m == top
    assert admits_level(bundle, p, top)
    assert canonical_connection(bundle, field, top).m == top
    for m in (top + 1, 20000, 2**31):
        with pytest.raises(PreconditionError):
            DmBundle(m, base)
        with pytest.raises(PreconditionError):
            frobenius_pullback(DmBundle(top, base), m - top)
        with pytest.raises(PreconditionError):
            admits_level(bundle, p, m)
        with pytest.raises(PreconditionError):
            canonical_connection(bundle, field, m)


def test_canonical_connection_examples():
    d = canonical_connection(BundleP1([4, 2]), F2, 0)
    assert d.m == 0 and d.base.degrees == (4, 2)
    assert all(e.is_zero() for row in d.base.A for e in row)
    d = canonical_connection(BundleP1([4, 0]), F2, 1)
    assert d.m == 1 and d.base.degrees == (2, 0)
    assert d.underlying_degrees() == (4, 0)
    with pytest.raises(PreconditionError, match="2"):
        canonical_connection(BundleP1([2, 0]), F3, 0)


# -- validity ----------------------------------------------------------------------


def test_validate_pinned_examples():
    assert validate(CEX) == []
    bad = conn(F2, [2, 0], [[[], []], [[1], []]])
    v = validate(bad)
    assert [(x.row, x.col, x.order) for x in v] == [(1, 0, 4)]
    assert validate(conn(F3, [6, 3, 0], [[[]] * 3] * 3)) == []


def test_validate_rejects_indivisible_diagonal_degree():
    c = conn(F3, [2, 0], [[[], []], [[], []]])
    poles = {(v.row, v.col) for v in validate(c)}
    assert (0, 0) in poles  # degree 2 not divisible by 3


def test_infinity_chart_of_canonical_is_zero_matrix():
    c = canonical_connection(BundleP1([4, 2]), F2, 0).base
    assert infinity_chart_matrix(c).is_zero()


def _infinity_chart_by_products(c):
    """Oracle: the infinity-chart matrix as a chain of reduced products,
    -y^{-2} (y^{d_j - d_i} a(1/y) + [i = j] d_i y) with a(1/y) = rev(a) / y^deg."""
    F = c.field
    degs = c.degrees
    y = RatFunc.x(F)
    inv_y2 = RatFunc(Poly.one(F), Poly.monomial(F, 1, 2))
    rows = []
    for j in range(c.rank):
        row = []
        for i in range(c.rank):
            a = c.A[j][i]
            if a.is_zero():
                entry = RatFunc.zero(F)
            else:
                rev = RatFunc(Poly(F, tuple(reversed(a.coeffs))), Poly.monomial(F, 1, a.degree))
                shift = degs[j] - degs[i]
                power = RatFunc(Poly.monomial(F, 1, shift)) if shift >= 0 else RatFunc(
                    Poly.one(F), Poly.monomial(F, 1, -shift)
                )
                entry = power * rev
            if i == j:
                entry = entry + RatFunc.constant(F, F.scalar(degs[i])) * y
            row.append(-inv_y2 * entry)
        rows.append(row)
    return MatRF(F, rows)


def _infinity_chart_corpus():
    """2,000 connections over GF(2), GF(3), GF(5), GF(4), GF(9), r <= 4."""
    rng = random.Random(34)
    fields = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]
    for t in range(2000):
        field = fields[t % len(fields)]
        r = rng.randint(1, 4)
        # degrees mix multiples of p with arbitrary ones, so diagonal terms vanish or not
        degs = [rng.choice([field.p * rng.randint(-2, 2), rng.randint(-6, 6)]) for _ in range(r)]
        rows = [[random_poly(rng, field, rng.randint(-1, 5)) for _ in range(r)] for _ in range(r)]
        c = Conn0(field, BundleP1(degs), rows)
        if rng.random() < 0.3:
            c = random_conn0(rng, field, r_max=4)
        yield c


def test_infinity_chart_matches_the_product_chain():
    seen = dict.fromkeys(["zero", "p | d_i", "negative shift", "valid", "invalid"], 0)
    for t, c in enumerate(_infinity_chart_corpus()):
        field = c.field
        assert infinity_chart_matrix(c) == _infinity_chart_by_products(c), (t, c.degrees, c.A)
        entries = [(j, i) for j in range(c.rank) for i in range(c.rank)]
        seen["zero"] += any(c.A[j][i].is_zero() for j, i in entries)
        seen["p | d_i"] += any(d % field.p == 0 and d != 0 for d in c.degrees)
        seen["negative shift"] += any(c.degrees[j] < c.degrees[i] and not c.A[j][i].is_zero()
                                      for j, i in entries)
        seen["valid" if not validate(c) else "invalid"] += 1
    assert min(seen.values()) >= 200, seen


def test_validate_orders_are_the_infinity_chart_pole_orders():
    # validate reads the orders off the entries' terms, without building them
    for c in _infinity_chart_corpus():
        inf = infinity_chart_matrix(c)
        orders = {(j, i): inf.rows[j][i].pole_order_at_zero()
                  for j in range(c.rank) for i in range(c.rank)}
        assert {(v.row, v.col): v.order for v in validate(c)} == \
            {ji: order for ji, order in orders.items() if order > 0}


def test_validator_equivalence_sampled():
    # two independent validity implementations agree on 500 random matrices
    rng = random.Random(31)
    for _ in range(500):
        field = GF(rng.choice([2, 3, 5]))
        r = rng.randint(1, 3)
        degs = sorted((rng.randint(-4, 6) for _ in range(r)), reverse=True)
        rows = [[random_poly(rng, field, rng.randint(-1, 4)) for _ in range(r)]
                for _ in range(r)]
        c = Conn0(field, BundleP1(degs), rows)
        assert {(v.row, v.col) for v in validate(c)} == set(structural_violations(c))


# -- curvature ----------------------------------------------------------------------


def test_p_curvature_pinned_examples():
    assert p_curvature(canonical_connection(BundleP1([4, 2]), F2, 0).base).is_zero()
    assert p_curvature(CEX).is_zero()
    psi = p_curvature(CEX40)
    assert psi.rows[0][1] == RatFunc.one(F2)  # c1 survives, 2*c2 dies
    assert psi.rows[0][0].is_zero() and psi.rows[1][0].is_zero() and psi.rows[1][1].is_zero()


def test_p_curvature_strictly_upper_triangular_and_nilpotent():
    rng = random.Random(32)
    for _ in range(50):
        field = GF(rng.choice([2, 3, 5]))
        c = random_conn0(rng, field, r_max=4)
        psi = p_curvature(c)
        for i in range(c.rank):
            for j in range(c.rank):
                if not psi.rows[i][j].is_zero():
                    assert c.degrees[i] > c.degrees[j]
        assert is_nilpotent(psi)


def test_pm1_curvature_substitution():
    base = conn(F2, [8, 0], [[[], [0, 0, 0, 1]], [[], []]])
    psi0 = p_curvature(base)
    assert psi0.rows[0][1] == RatFunc(Poly(F2, (0, 0, 1)))  # x^2
    psi1 = pm1_curvature(DmBundle(1, base))
    assert psi1.rows[0][1] == RatFunc(Poly(F2, (0, 0, 0, 0, 1)))  # x^4
    assert pm1_curvature(canonical_connection(BundleP1([4, 0]), F2, 1)).is_zero()


def test_frobenius_pullback_scales_degrees_and_substitutes_curvature():
    d = as_level(CEX)
    out = frobenius_pullback(d, 1)
    assert out.m == 1 and out.underlying_degrees() == (4, 0)
    d2 = frobenius_pullback(canonical_connection(BundleP1([4, 2]), F2, 0), 2)
    assert d2.m == 2 and d2.underlying_degrees() == (16, 8)
    lhs = pm1_curvature(frobenius_pullback(as_level(CEX40), 1))
    rhs = pm1_curvature(as_level(CEX40)).map_entries(lambda e: e.compose_xpow(2))
    assert lhs == rhs


def test_pullback_curvature_law_randomized():
    rng = random.Random(33)
    for _ in range(40):
        field = GF(rng.choice([2, 3]))
        base = random_conn0(rng, field, r_max=3, spread=2)
        d = DmBundle(rng.randint(0, 1), base)
        s = rng.choice([1, 2])
        lhs = pm1_curvature(frobenius_pullback(d, s))
        rhs = pm1_curvature(d).map_entries(lambda e: e.compose_xpow(field.p**s))
        assert lhs == rhs


# -- tensor and dual --------------------------------------------------------------------


def test_tensor_of_canonicals_is_canonical():
    a = canonical_connection(BundleP1([2, 0]), F2, 0).base
    b = canonical_connection(BundleP1([4, 2]), F2, 0).base
    t, _ = tensor(a, b)
    assert t.degrees == (6, 4, 4, 2)
    assert all(e.is_zero() for row in t.A for e in row)
    assert validate(t) == []


def test_dual_of_canonical_line():
    c = canonical_connection(BundleP1([2]), F2, 0).base
    d, perm = dual(c)
    assert d.degrees == (-2,) and perm == (0,)


def test_tensor_with_dual_is_valid():
    d, _ = dual(CEX)
    t, _ = tensor(CEX, d)
    assert t.degrees == (2, 0, 0, -2)
    assert validate(t) == []


def test_tensor_dual_random_validity_and_involution():
    rng = random.Random(34)
    for _ in range(40):
        field = GF(rng.choice([2, 3, 5]))
        a = random_conn0(rng, field, r_max=2, spread=2)
        b = random_conn0(rng, field, r_max=2, spread=2)
        t, _ = tensor(a, b)
        assert validate(t) == []
        da, _ = dual(a)
        assert validate(da) == []
        dda, _ = dual(da)
        assert dda == a


def test_tensor_rank_above_the_cap_is_refused():
    # 25 * 41 = 1025 is the smallest rank past 2^10; 33 * 32 = 1056 is one rank
    # past 32 * 32, the largest square product at the cap
    for ra, rb in ((25, 41), (33, 32)):
        a, b = (conn(F2, [0] * r, [[[]] * r] * r) for r in (ra, rb))
        with pytest.raises(PreconditionError,
                           match=rf"^tensor rank must be <= 2\^10 = 1024, got {ra * rb}$"):
            tensor(a, b)


# -- Cartier descent ----------------------------------------------------------------------


def test_cartier_descent_pinned_examples():
    c = canonical_connection(BundleP1([4, 2]), F2, 0).base
    bundle, frame = cartier_descent(c)
    assert bundle.degrees == (2, 1)
    assert frame == MatRF.identity(F2, 2)
    bundle, frame = cartier_descent(CEX)
    assert bundle.degrees == (1, 0)
    assert frame == MatRF(F2, [[RatFunc.one(F2), RatFunc.x(F2)],
                               [RatFunc.zero(F2), RatFunc.one(F2)]])
    with pytest.raises(PreconditionError):
        cartier_descent(CEX40)


def test_cartier_descent_rejects_a_dependent_frame(monkeypatch):
    # sections that are F_q(x^p)-multiples of each other are dependent over
    # F_q(x) too, so the re-check of the frame must refuse them.  w and x w
    # are independent over F_q(x^p), where the tail's pivots live, and
    # dependent over F_q(x): the frame check must be its own elimination
    c = canonical_connection(BundleP1([4, 2]), F2, 0).base
    w, den = next(pone._kernel_sections(c.A, Poly.one(F2)))
    for power in (2, 1):  # x^p w, then x w
        xp = Poly.monomial(F2, 1, power)
        monkeypatch.setattr(pone, "_kernel_sections",
                            lambda bmat, beta, level=None: [(w, den), ([xp * e for e in w], den)])
        with pytest.raises(NeedsExtensionError, match="horizontal sections do not form a frame"):
            cartier_descent(c)


def test_cartier_descent_takes_the_flat_pass_alone(monkeypatch):
    # a flat connection, at small and large p and over extension fields,
    # runs one projector pass and none of the rest of the sections' paths:
    # no _kernel_core, no _constant_round and no _t_iterates; and the
    # PreconditionError of psi != 0 is raised exactly where the sections
    # fall short of a frame
    rng = random.Random(36)
    flat = [random_flat_conn0(rng, field, r=r) for field in (F2, F3, GF(11), GF(293), GF(2, 2),
                                                              GF(7, 2)) for r in (1, 2, 3)]
    drawn = [CEX40] + [random_conn0(rng, field, r=r) for field in (F3, F5, GF(3, 2))
                       for r in (2, 3)]
    short = [len(list(matrix._kernel_sections(c.A, Poly.one(c.field)))) < c.rank for c in drawn]
    assert short[0] and not all(short)  # some draws are flat

    calls = []

    def counted(name, true):
        def run(*args, **kwargs):
            calls.append(name)
            return true(*args, **kwargs)
        return run
    with monkeypatch.context() as patch:
        for name in ("_katz_pass", "_kernel_core", "_constant_round", "_t_iterates"):
            patch.setattr(matrix, name, counted(name, getattr(matrix, name)))
        for c in flat:
            calls.clear()
            _, frame = cartier_descent(c)
            assert calls == ["_katz_pass"], (c.field, c.rank, calls)
            assert gauge_transform(c.matrix(), frame).is_zero()
    for c, fails in zip(drawn, short):
        if fails:
            with pytest.raises(PreconditionError,
                               match="p-curvature does not vanish; nothing descends"):
                cartier_descent(c)
        else:
            cartier_descent(c)


def test_cartier_refuses_exactly_where_psi_does_not_vanish():
    # the refusal comes from the section count, dim ker psi, falling short of
    # the rank; it must agree with psi = 0 on general and flat draws, at
    # ranks 1-4, over prime fields small and large and over extension fields
    rng = random.Random(39)
    seen = set()
    for field in (F2, F3, GF(293), GF(2, 2), GF(7, 2)):
        for r in (1, 2, 3, 4):
            for c in (random_conn0(rng, field, r=r), random_flat_conn0(rng, field, r=r)):
                flat = p_curvature(c).is_zero()
                seen.add((flat, r == 4))
                if flat:
                    _, frame = cartier_descent(c)
                    assert gauge_transform(c.matrix(), frame).is_zero()
                else:
                    with pytest.raises(PreconditionError,
                                       match="^p-curvature does not vanish; nothing descends$"):
                        cartier_descent(c)
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_cartier_roundtrip_randomized():
    rng = random.Random(35)
    for _ in range(30):
        field = GF(rng.choice([2, 3, 5]))
        c = random_flat_conn0(rng, field, r_max=3)
        bundle, frame = cartier_descent(c)
        assert bundle.degrees == tuple(d // field.p for d in c.degrees)
        # gauge the canonical pullback connection back through the frame
        assert gauge_transform(c.matrix(), frame).is_zero()
        assert gauge_transform(MatRF.zeros(field, c.rank), inverse(frame)) == c.matrix()


# -- flags -------------------------------------------------------------------------------


def test_flag_steps_and_validation():
    f = FlagP1((1, 0, 2))
    assert f.steps() == [(1,), (1, 0), (1, 0, 2)]
    with pytest.raises(PflagsError):
        FlagP1((0, 0, 1))


def test_complete_flag_pinned_examples():
    assert complete_flag(canonical_connection(BundleP1([6, 3, 0]), F3, 0)).perm == (0, 1, 2)
    assert complete_flag(CEX).perm == (0, 1)
    assert complete_flag(CEX40).perm == (0, 1)


def test_verify_flag_pinned_examples():
    canonical = canonical_connection(BundleP1([4, 2]), F2, 0).base
    assert verify_flag(canonical, FlagP1((1, 0)))
    assert verify_flag(canonical, FlagP1((0, 1)))
    assert not verify_flag(CEX, FlagP1((1, 0)))
    assert verify_flag(CEX, FlagP1((0, 1)))


def test_complete_flag_randomized_harness():
    rng = random.Random(36)
    for _ in range(100):
        field = GF(rng.choice([2, 3, 5]))
        c = random_conn0(rng, field, r_max=4)
        assert verify_flag(c, complete_flag(c))


def test_complete_flag_of_level_m_reduces_to_base():
    d = DmBundle(2, CEX)
    assert complete_flag(d).perm == complete_flag(CEX).perm


def test_operations_reject_invalid_connections():
    bad = conn(F2, [2, 0], [[[], []], [[1], []]])
    for fn in (p_curvature, complete_flag, cartier_descent):
        with pytest.raises(PreconditionError):
            fn(bad)


def test_bundle_automorphism_retries_only_singular_draws(monkeypatch):
    """A singular draw (``PflagsError`` from ``inverse``) is drawn again; any
    other error from ``inverse`` is a bug and propagates."""
    def failing_once(error):
        calls = []

        def stub(g):
            calls.append(g)
            if len(calls) == 1:
                raise error
            return inverse(g)

        monkeypatch.setattr(sampling, "inverse", stub)
        return calls

    calls = failing_once(PflagsError("matrix is singular"))
    g = sampling.random_bundle_automorphism(random.Random(5), GF(3), (3, 0))
    assert len(calls) == 2 and g is calls[1]
    calls = failing_once(TypeError("bug inside inverse"))
    with pytest.raises(TypeError, match="bug inside inverse"):
        sampling.random_bundle_automorphism(random.Random(5), GF(3), (3, 0))
    assert len(calls) == 1
