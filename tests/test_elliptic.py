import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pflags import elliptic
from pflags.elliptic import (
    AtiyahAtom,
    FlagSkeleton,
    HomConstraint,
    Pic0Group,
    PicClass,
    admits_connection,
    atiyah_profile,
    first_line_class,
    flag_skeleton,
    hom_constraint,
    line_classes,
    peel_order,
)
from pflags.errors import PflagsError, PreconditionError
from pflags.sampling import random_atom

G2 = Pic0Group((2,))
G23 = Pic0Group((2, 3))
TRIVIAL = Pic0Group(())
LAM = (1,)


# -- the recursion ------------------------------------------------------------------


def test_profile_5_3():
    pr = atiyah_profile(5, 3)
    assert pr.pairs == ((5, 3), (2, 3), (1, 2))
    assert pr.deg_l == (0, 1, 2)
    assert (pr.m, pr.ell, pr.h) == (2, 3, 1)
    assert pr.gr_ranks == (3, 1, 1)


def test_profile_rank_divides_degree():
    pr = atiyah_profile(4, 0)
    assert pr.m == 0 and pr.ell == 4
    assert pr.deg_l == (0, 0, 0, 0) and pr.gr_ranks == (1, 1, 1, 1)
    pr8 = atiyah_profile(2, 8)
    assert pr8.m == 0 and pr8.deg_l == (4, 4)


def test_profile_3_2():
    pr = atiyah_profile(3, 2)
    assert pr.pairs == ((3, 2), (1, 2))
    assert pr.deg_l == (0, 2) and pr.m == 1 and pr.ell == 2
    assert pr.gr_ranks == (2, 1)


def test_profile_rejects_bad_rank():
    with pytest.raises(PreconditionError):
        atiyah_profile(0, 3)


def test_profile_caps_the_rank():
    assert atiyah_profile(2**16, 1).ell == 2**16
    for r in (2**16 + 1, 2**31):
        with pytest.raises(PreconditionError, match="<= 2\\^16"):
            atiyah_profile(r, 3)


@given(st.integers(1, 40), st.integers(-60, 60))
@settings(max_examples=300, deadline=None)
def test_profile_invariants(r, d):
    pr = atiyah_profile(r, d)
    h = math.gcd(r, abs(d))
    assert pr.h == h
    assert all(math.gcd(rj, abs(dj)) == h for rj, dj in pr.pairs)
    ranks = [rj for rj, _ in pr.pairs]
    assert all(a > b for a, b in zip(ranks, ranks[1:]))
    assert sum(pr.gr_ranks) == r
    assert sum(g * l for g, l in zip(pr.gr_ranks, pr.deg_l)) == d
    assert pr.ell == pr.m + pr.pairs[-1][0]
    assert pr.pairs[-1][0] == h  # terminal rank equals the gcd
    if d % r == 0:
        assert pr.m == 0 and pr.ell == r
    if d == 0:
        assert all(l == 0 for l in pr.deg_l)


# -- line classes --------------------------------------------------------------------


def test_line_classes_pinned_examples():
    a = AtiyahAtom(G2, 5, 3, LAM)
    assert [(c.degree, c.tor) for c in line_classes(a)] == [(0, (0,)), (1, (0,)), (2, (1,))]
    a = AtiyahAtom(G2, 2, 0, LAM)
    assert [(c.degree, c.tor) for c in line_classes(a)] == [(0, (1,)), (0, (1,))]
    a = AtiyahAtom(G2, 3, 2, LAM)
    assert [(c.degree, c.tor) for c in line_classes(a)] == [(0, (0,)), (2, (1,))]


def test_line_classes_trivial_group():
    a = AtiyahAtom(TRIVIAL, 3, 2, ())
    assert [(c.degree, c.tor) for c in line_classes(a)] == [(0, ()), (2, ())]


def test_torsion_reduced_mod_factors():
    a = AtiyahAtom(G23, 2, 0, (5, 7))
    assert a.lam == (1, 1)
    with pytest.raises(PflagsError):
        AtiyahAtom(G2, 2, 0, (1, 1))


# -- connection existence ----------------------------------------------------------------


def test_admits_connection_pinned_examples():
    assert not admits_connection(AtiyahAtom(G2, 5, 3, LAM), 3)
    assert admits_connection(AtiyahAtom(G2, 3, 2, LAM), 2)
    for p in (2, 3, 5):
        for r in range(1, 11):
            assert admits_connection(AtiyahAtom(G2, r, 0, LAM), p)


def test_admits_connection_bundle_is_conjunction():
    good = AtiyahAtom(G2, 3, 2, LAM)
    bad = AtiyahAtom(G2, 5, 3, LAM)
    assert admits_connection([good, good], 2)
    assert not admits_connection([good, bad], 3)


def test_flag_skeleton_pinned_examples():
    sk = flag_skeleton([AtiyahAtom(G2, 3, 2, LAM)], 2)
    assert [(c.degree, c.tor, m) for c, m in sk.entries] == [(2, (1,), 1), (0, (0,), 2)]
    sk = flag_skeleton([AtiyahAtom(G2, 2, 0, LAM)], 3)
    assert [(c.degree, c.tor, m) for c, m in sk.entries] == [(0, (1,), 2)]
    with pytest.raises(PreconditionError, match="deg L_2 = 1"):
        flag_skeleton([AtiyahAtom(G2, 5, 3, LAM)], 3)


def test_flag_skeleton_conservation_randomized():
    rng = random.Random(41)
    hits = 0
    while hits < 60:
        atoms = [random_atom(rng, G23) for _ in range(rng.randint(1, 3))]
        p = rng.choice([2, 3, 5])
        if not admits_connection(atoms, p):
            continue
        hits += 1
        sk = flag_skeleton(atoms, p)
        assert sk.total_rank == sum(a.r for a in atoms)
        assert sk.total_degree == sum(a.d for a in atoms)
        assert all(m >= 1 for _, m in sk.entries)


def test_flag_skeleton_builds_each_distinct_class_once():
    # one class per recursion step and one for the terminal class, with its
    # multiplicity r_m: the skeleton of every line class, and the same
    # refusal, naming the first L_j whose degree p does not divide
    group = Pic0Group((4,))
    for r in range(1, 41):
        for d in range(-60, 61):
            pr = atiyah_profile(r, d)
            for lam in range(4):
                atom = AtiyahAtom(group, r, d, (lam,))
                for p in (2, 3):
                    bad = next((j for j, deg in enumerate(pr.deg_l) if deg % p), None)
                    if bad is None:
                        want = FlagSkeleton(zip(elliptic._line_classes(atom, pr), pr.gr_ranks))
                        assert flag_skeleton([atom], p) == want
                    else:
                        text = f"p = {p} does not divide deg L_{bad + 1} = {pr.deg_l[bad]}$"
                        with pytest.raises(PreconditionError, match=text):
                            flag_skeleton([atom], p)


def test_flag_skeleton_merges_equal_classes():
    sk = FlagSkeleton([(PicClass(G2, 0, (0,)), 1), (PicClass(G2, 0, (0,)), 2)])
    assert sk.entries == ((PicClass(G2, 0, (0,)), 3),)


def test_flag_skeleton_is_a_frozen_record():
    sk = flag_skeleton([AtiyahAtom(G2, 3, 2, LAM)], 2)
    same = FlagSkeleton([(PicClass(G2, 0, (0,)), 2), (PicClass(G2, 2, LAM), 1)])
    assert sk is not same and sk == same and hash(sk) == hash(same)
    assert sk != FlagSkeleton([(PicClass(G2, 2, LAM), 1)])
    assert repr(sk) == "{(2, [1])x1, (0, [0])x2}"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sk.entries = ()
    with pytest.raises(PflagsError):
        FlagSkeleton([(PicClass(G2, 0, (0,)), 0)])


# -- hom constraints ------------------------------------------------------------------------


def test_hom_constraint_pinned_examples():
    src = AtiyahAtom(G2, 2, 4, LAM)   # first class (2, lam)
    dst = AtiyahAtom(G2, 2, 1, (0,))  # first class (0, 0)
    assert first_line_class(src) == PicClass(G2, 2, LAM)
    assert first_line_class(dst) == PicClass(G2, 0, (0,))
    assert hom_constraint(src, dst) == HomConstraint.FORCES_ZERO_ON_FIL1
    a = AtiyahAtom(G2, 3, 2, LAM)
    assert hom_constraint(a, a) == HomConstraint.PRESERVES_FIL1
    assert hom_constraint(AtiyahAtom(G2, 5, 3, LAM), dst) == HomConstraint.PRESERVES_FIL1


def test_first_line_class_is_the_first_of_line_classes():
    # read off the profile directly, without building the other classes
    group = Pic0Group((4,))
    for r in range(1, 41):
        for d in range(-60, 61):
            for lam in range(4):
                atom = AtiyahAtom(group, r, d, (lam,))
                assert first_line_class(atom) == line_classes(atom)[0]


def test_hom_constraint_no_constraint_cases():
    lower = AtiyahAtom(G2, 2, 1, (0,))   # first class (0, 0)
    higher = AtiyahAtom(G2, 1, 2, LAM)   # first class (2, lam)
    assert hom_constraint(lower, higher) == HomConstraint.NO_CONSTRAINT
    twisted = AtiyahAtom(G2, 1, 0, LAM)  # first class (0, lam)
    assert hom_constraint(lower, twisted) == HomConstraint.NO_CONSTRAINT


def test_hom_constraint_reflexive_randomized():
    rng = random.Random(42)
    for _ in range(100):
        a = random_atom(rng, G23)
        assert hom_constraint(a, a) == HomConstraint.PRESERVES_FIL1


# -- peel order ---------------------------------------------------------------------------------


def test_peel_order_pinned_examples():
    a = AtiyahAtom(G2, 1, 2, LAM)
    b = AtiyahAtom(G2, 5, 3, (0,))
    assert [(c.degree, c.tor) for c in peel_order([a, b])] == [(2, (1,)), (0, (0,))]
    c0 = AtiyahAtom(G2, 1, 2, (0,))
    assert [(c.degree, c.tor) for c in peel_order([a, c0])] == [(2, (0,)), (2, (1,))]
    single = AtiyahAtom(G2, 3, 2, LAM)
    assert peel_order([single]) == [first_line_class(single)]


def test_peel_order_deterministic_and_sorted():
    rng = random.Random(43)
    for _ in range(100):
        atoms = [random_atom(rng, G23) for _ in range(rng.randint(1, 4))]
        order = peel_order(atoms)
        assert order == peel_order(list(reversed(atoms)))
        degs = [c.degree for c in order]
        assert degs == sorted(degs, reverse=True)
        for d in set(degs):
            block = [c for c in order if c.degree == d]
            zero_tor = [c for c in block if c.is_multiple_of_origin()]
            if zero_tor:
                assert block[0] == zero_tor[0]


# every atom is within the per-atom cap; only the sum of the ranks differs
AT_CAP = [AtiyahAtom(TRIVIAL, 2**16 - 1, 2), AtiyahAtom(TRIVIAL, 1, 0)]
ABOVE_CAP = [AtiyahAtom(TRIVIAL, 2**16 - 1, 2), AtiyahAtom(TRIVIAL, 2, 0)]


def test_bundle_operations_accept_the_total_rank_cap():
    assert admits_connection(AT_CAP, 2)
    assert flag_skeleton(AT_CAP, 2).total_rank == 2**16
    assert [c.degree for c in peel_order(AT_CAP)] == [0]


def test_bundle_operations_refuse_above_the_total_rank_cap(monkeypatch):
    def no_profile(r, d):
        raise AssertionError("profile built before the total-rank cap was checked")

    monkeypatch.setattr(elliptic, "atiyah_profile", no_profile)
    message = "total rank must be <= 2\\^16 = 65536, got 65537"
    for call in (lambda: admits_connection(ABOVE_CAP, 2), lambda: flag_skeleton(ABOVE_CAP, 2),
                 lambda: peel_order(ABOVE_CAP)):
        with pytest.raises(PreconditionError, match=message):
            call()


def test_group_arithmetic():
    assert G23.add((1, 2), (1, 2)) == (0, 1)
    assert G23.neg((1, 1)) == (1, 2)
    assert G23.zero == (0, 0)
    with pytest.raises(PflagsError):
        Pic0Group((0,))
