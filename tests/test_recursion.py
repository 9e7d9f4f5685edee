from itertools import product
from math import gcd

import pytest

from kwise import coprime, recursion
from kwise.coprime import (
    BudgetError,
    ConstraintVector,
    _count_caps,
    _prime_caps,
    count_tuples,
)
from kwise.recursion import (
    RecursionReport,
    reduce_constraint,
    reduce_constraint_raw,
    verify_recursion,
)
from oracles import constraint_ok


def test_raw_shift_examples():
    assert reduce_constraint_raw(7, ConstraintVector((4,))).moduli == (28,)
    assert reduce_constraint_raw(4, ConstraintVector((5, 6))).moduli == (10, 24)
    assert reduce_constraint_raw(6, ConstraintVector((1, 1))).moduli == (1, 6)
    assert reduce_constraint_raw(4, ConstraintVector((5, 6, 7))).moduli == (10, 6, 28)


def test_reduced_shift_examples():
    assert reduce_constraint(7, ConstraintVector((4,))).moduli == (28,)
    assert reduce_constraint(4, ConstraintVector((5, 6))).moduli == (10, 3)
    assert reduce_constraint(6, ConstraintVector((1, 1))).moduli == (1, 6)
    assert reduce_constraint(4, ConstraintVector((5, 6, 7))).moduli == (10, 3, 7)
    assert reduce_constraint(1, ConstraintVector((5, 6))).moduli == (5, 6)


def test_shift_validation():
    c = ConstraintVector((4, 9))
    with pytest.raises(ValueError, match=r"gcd\(6, 4\) = 2"):
        reduce_constraint(6, c)
    with pytest.raises(ValueError):
        reduce_constraint_raw(8, c)
    with pytest.raises(ValueError):
        reduce_constraint(0, c)
    with pytest.raises(TypeError):
        reduce_constraint(3, (4, 9))


def test_reduced_shift_is_valid_constraint():
    vectors = [(1,), (2,), (6,), (1, 1), (2, 3), (5, 6), (4, 9), (5, 6, 7), (3, 5, 7, 11)]
    for moduli in vectors:
        c = ConstraintVector(moduli)
        for j in range(1, 61):
            if gcd(j, moduli[0]) != 1:
                continue
            reduced = reduce_constraint(j, c)
            # construction enforces pairwise coprimality; same k
            assert reduced.k == c.k
            raw = reduce_constraint_raw(j, c)
            assert len(raw.moduli) == len(reduced.moduli)


def test_shift_counts_agree_raw_vs_reduced():
    vectors = [(1,), (6,), (2, 3), (5, 6), (4, 9), (5, 6, 7)]
    for moduli in vectors:
        c = ConstraintVector(moduli)
        for j in (1, 2, 3, 7, 11, 12, 25):
            if gcd(j, moduli[0]) != 1:
                continue
            reduced = reduce_constraint(j, c)
            raw = reduce_constraint_raw(j, c)
            for n in (4, 7):
                direct = count_tuples(2, reduced, n)
                relaxed = _count_caps(2, c.k, _prime_caps(raw.moduli), n)
                assert direct == relaxed, (moduli, j, n)


def test_shift_matches_fixed_last_coordinate():
    # the shifted constraint must count exactly the extensions of j
    vectors = [(1,), (2,), (5, 6), (2, 3), (4, 9)]
    n = 8
    for moduli in vectors:
        c = ConstraintVector(moduli)
        for j in range(1, n + 1):
            if gcd(j, moduli[0]) != 1:
                continue
            reduced = reduce_constraint(j, c)
            for s in (1, 2):
                expect = sum(
                    1
                    for t in product(range(1, n + 1), repeat=s)
                    if constraint_ok(t + (j,), c.k, moduli)
                )
                assert count_tuples(s, reduced, n) == expect, (moduli, j, s)


def test_skipped_j_contribute_nothing():
    # tuples ending in a j sharing a factor with u_1 never satisfy anything
    moduli = (6,)
    c = ConstraintVector(moduli)
    n = 9
    for j in range(1, n + 1):
        if gcd(j, 6) == 1:
            continue
        assert not any(
            constraint_ok(t + (j,), c.k, moduli)
            for t in product(range(1, n + 1), repeat=2)
        )


def test_recursion_report_example():
    rep = verify_recursion(1, ConstraintVector((1,)), 4)
    assert rep == RecursionReport(
        s=1, k=2, n=4, moduli=(1,), lhs=11, rhs_reduced=11, rhs_raw=11
    )
    assert rep.passed


def test_recursion_small_grid():
    vectors = [(1,), (2,), (6,), (1, 1), (2, 3), (5, 6), (4, 9)]
    for moduli in vectors:
        c = ConstraintVector(moduli)
        for s in (1, 2):
            for n in (0, 1, 2, 3, 5, 8, 12):
                rep = verify_recursion(s, c, n)
                assert rep.passed, (moduli, s, n, rep)
                assert rep.lhs == count_tuples(s + 1, c, n)


def test_recursion_wide_vector():
    rep = verify_recursion(1, ConstraintVector((3, 5, 7, 11)), 10)
    assert rep.passed


def test_recursion_budget_and_validation():
    c = ConstraintVector((1,))
    with pytest.raises(BudgetError):
        verify_recursion(2, c, 1000, budget=10**5)
    with pytest.raises(ValueError):
        verify_recursion(0, c, 5)
    with pytest.raises(ValueError):
        verify_recursion(1, c, -1)


def test_recursion_counts_each_cap_map_once(monkeypatch):
    s, c, n = 2, ConstraintVector((5, 6)), 30
    counted = []

    def counting(s_, k, caps, n_, **kwargs):
        counted.append(caps)
        return _count_caps(s_, k, caps, n_, **kwargs)

    monkeypatch.setattr(recursion, "_count_caps", counting)
    rep = verify_recursion(s, c, n)
    assert rep.passed
    maps = {
        _prime_caps(shift(j, c).moduli)
        for j in range(1, n + 1)
        if gcd(j, 5) == 1
        for shift in (reduce_constraint, reduce_constraint_raw)
    }
    assert sorted(counted) == sorted(maps)
    # fewer counts than the two per j the shifts would otherwise take
    assert len(counted) < 2 * sum(1 for j in range(1, n + 1) if gcd(j, 5) == 1)


def test_cap_map_is_derived_once(monkeypatch):
    calls = 0
    prime_caps = coprime._prime_caps

    def counting(moduli):
        nonlocal calls
        calls += 1
        return prime_caps(moduli)

    monkeypatch.setattr(coprime, "_prime_caps", counting)
    monkeypatch.setattr(recursion, "_prime_caps", counting)
    for strategy in ("signature", "naive"):
        calls = 0
        count_tuples(2, ConstraintVector.trivial(2), 30, strategy=strategy)
        assert calls == 1, strategy
    calls = 0
    verify_recursion(2, ConstraintVector((5, 6)), 30)
    # one for the direct count, one per shift of each j coprime to u_1 = 5
    assert calls == 1 + 2 * sum(1 for j in range(1, 31) if gcd(j, 5) == 1) == 49
