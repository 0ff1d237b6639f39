"""Acceptance suite: one test per criterion, at full size, exact comparisons.

Each test prints a PASS/FAIL line (run pytest with -s to see it) and
enforces the stated runtime budget.  All comparisons are exact: the library
computes over finite fields, so no tolerances apply.
"""

import time

import pytest

from pflags import properties
from pflags.elliptic import AtiyahAtom, Pic0Group, admits_connection, flag_skeleton
from pflags.errors import PreconditionError
from pflags.hitchin import HitchinDims, hitchin_dims

BUDGETS = {
    1: 10.0,
    2: 60.0,
    3: 60.0,
    4: 60.0,
    5: 5.0,
    6: 60.0,
    7: 120.0,
    8: 60.0,
    9: 120.0,
    10: 120.0,
}


def _run(number: int, title: str, result):
    print(result.line())
    assert result.passed, f"criterion {number} ({title}): {result.detail}"


def _timed(number: int, fn, *args, **kwargs):
    start = time.time()
    result = fn(*args, **kwargs)
    elapsed = time.time() - start
    assert elapsed < BUDGETS[number], (
        f"criterion {number} exceeded its {BUDGETS[number]}s budget: {elapsed:.1f}s"
    )
    return result


def test_criterion_1_level_structure_equivalence():
    # all degree multisets, r <= 4, |d_i| <= 2p^2, p in {2, 3}, m in {0, 1}:
    # existence iff p^{m+1} | d_i, with exactly vanishing canonical curvature
    result = _timed(1, properties.check_prop6_equivalence,
                    ps=(2, 3), r_max=4, ms=(0, 1))
    _run(1, "level-m existence equivalence", result)


def test_criterion_2_complete_flags_on_the_line():
    # 500 random valid connections, p in {2, 3, 5}, r <= 4: flags verify and
    # the p-curvature is exactly nilpotent
    result = _timed(2, properties.check_p1_flags, seed=1005, n=500)
    _run(2, "complete flags with nilpotent curvature", result)


def test_criterion_3_cartier_roundtrip():
    # 100 random flat connections: descend, pull back, gauge; entrywise equal
    result = _timed(3, properties.check_cartier_roundtrip, seed=1006, n=100)
    _run(3, "descent and pullback roundtrip", result)


def test_criterion_4_pullback_curvature_substitution():
    # 100 random level-m objects, s in {1, 2}: pullback curvature equals the
    # x -> x^{p^s} substitution, exactly
    result = _timed(4, properties.check_level_shift_curvature, seed=1007, n=100)
    _run(4, "pullback curvature substitution law", result)


def test_criterion_5_filtration_recursion():
    # exhaustive r <= 40, |d| <= 60 plus the two hand-derived profiles
    result = _timed(5, properties.check_atiyah_recursion, r_max=40, d_bound=60)
    _run(5, "canonical filtration recursion", result)


def test_criterion_6_connection_existence():
    result = _timed(6, properties.check_existence_criterion)
    _run(6, "genus-one existence criterion", result)
    # pinned instances, stated directly
    group = Pic0Group((2,))
    lam = (1,)
    assert admits_connection(AtiyahAtom(group, 5, 3, lam), 3) is False
    assert admits_connection(AtiyahAtom(group, 3, 2, lam), 2) is True
    for p in (2, 3, 5):
        for r in range(1, 11):
            assert admits_connection(AtiyahAtom(group, r, 0, lam), p) is True
    with pytest.raises(PreconditionError):
        flag_skeleton([AtiyahAtom(group, 5, 3, lam)], 3)


def test_criterion_7_charpoly_descent_and_gauge_invariance():
    # 300 random chart connections (r <= 3, p in {2, 3, 5}): every coefficient
    # descends; 50 random polynomial gauges leave the polynomial invariant
    result = _timed(7, properties.check_charpoly_descent, seed=1008, n=300, gauges=50)
    _run(7, "characteristic polynomial descent", result)


def test_criterion_8_dimension_count():
    result = _timed(8, properties.check_dimension_count)
    _run(8, "candidate-space dimension count", result)
    assert hitchin_dims(2, 2) == HitchinDims(5, 4, True)   # strict inequality
    assert hitchin_dims(2, 1) == HitchinDims(2, 2, False)  # equality, not strict


def test_criterion_9_no_flag_certificates():
    # the pinned fixture certifies; 200 embedded split connections never do
    result = _timed(9, properties.check_certificates, seed=1009, n=200)
    _run(9, "rank-2 no-flag certificate", result)


def test_criterion_10_nilpotent_triangularization():
    # 100 nilpotent-by-construction inputs triangularize exactly; the
    # certified fixture is rejected with a precondition error
    result = _timed(10, properties.check_nilpotent_flag_algorithm, seed=1010, n=100)
    _run(10, "nilpotent-curvature flag algorithm", result)
