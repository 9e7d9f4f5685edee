from itertools import permutations, product
from math import comb, factorial

import pytest

from kwise import coprime
from kwise.coprime import (
    BudgetError,
    ConstraintError,
    ConstraintVector,
    _count_caps,
    _prime_caps,
    _RelaxedModuli,
    _satisfies_caps,
    count_tuples,
    is_kwise_coprime,
    is_kwise_coprime_to,
    satisfies_constraint,
)
from oracles import constraint_ok, count_by_enumeration, kwise_ok, kwise_to_ok


def test_constraint_vector_basics():
    c = ConstraintVector((5, 6))
    assert c.k == 3
    assert c.moduli == (5, 6)
    assert ConstraintVector.trivial(4).moduli == (1, 1, 1)
    assert ConstraintVector.trivial(2).k == 2


def test_constraint_vector_rejects_bad_input():
    with pytest.raises(ConstraintError):
        ConstraintVector(())
    with pytest.raises(ConstraintError):
        ConstraintVector((5, 0))
    with pytest.raises(ConstraintError):
        ConstraintVector((3, -1))
    with pytest.raises(ConstraintError):
        ConstraintVector.trivial(1)


def test_constraint_vector_names_offending_pair():
    with pytest.raises(ConstraintError, match=r"gcd\(u_1, u_3\) = 5"):
        ConstraintVector((5, 6, 35))
    with pytest.raises(ConstraintError, match=r"gcd\(u_2, u_3\) = 2"):
        ConstraintVector((9, 10, 4))


def test_predicate_examples():
    assert is_kwise_coprime((6, 10, 15), 3)
    assert not is_kwise_coprime((6, 10, 15), 2)
    assert is_kwise_coprime((1, 1, 1, 1), 2)
    assert not is_kwise_coprime((4, 6), 2)
    # fewer than k values: vacuously true
    assert is_kwise_coprime((8,), 2)
    assert is_kwise_coprime((4, 8), 3)


def test_predicate_to_examples():
    assert is_kwise_coprime_to((3, 5, 7), 1, 2)
    assert not is_kwise_coprime_to((3, 6, 7), 1, 2)
    assert is_kwise_coprime_to((2, 3, 5), 2, 6)
    assert not is_kwise_coprime_to((2, 4, 5), 2, 6)
    assert is_kwise_coprime_to((2, 4, 5), 3, 6)
    assert is_kwise_coprime_to((10, 20, 30), 1, 1)


def test_predicates_reject_bad_input():
    with pytest.raises(ValueError):
        is_kwise_coprime((1, 2), 1)
    with pytest.raises(ValueError):
        is_kwise_coprime((0, 2), 2)
    with pytest.raises(ValueError):
        is_kwise_coprime_to((1, 2), 0, 5)
    with pytest.raises(ValueError):
        is_kwise_coprime_to((1, 2), 1, 0)
    with pytest.raises(ValueError):
        is_kwise_coprime_to((1, -3), 1, 5)


def test_kwise_matches_subset_gcd_oracle():
    for t in product(range(1, 21), repeat=3):
        for k in (2, 3):
            assert is_kwise_coprime(t, k) == kwise_ok(t, k)


def test_kwise_to_matches_subset_gcd_oracle():
    for t in product(range(1, 16), repeat=3):
        for k in (1, 2, 3):
            for u in (2, 6, 30):
                assert is_kwise_coprime_to(t, k, u) == kwise_to_ok(t, k, u)


def test_satisfies_constraint_matches_oracle():
    vectors = [(1,), (2,), (6,), (2, 3), (5, 6), (4, 9), (1, 5, 6)]
    for moduli in vectors:
        c = ConstraintVector(moduli)
        for t in product(range(1, 9), repeat=3):
            assert satisfies_constraint(t, c) == constraint_ok(t, c.k, moduli)


def test_satisfies_matches_caps_form():
    for moduli in [(1,), (6,), (2, 3), (4, 9)]:
        c = ConstraintVector(moduli)
        for t in product(range(1, 11), repeat=2):
            assert satisfies_constraint(t, c) == _satisfies_caps(t, c.k, moduli)


def test_permutation_invariance():
    c = ConstraintVector((2, 3))
    for t in product(range(1, 9), repeat=3):
        value = satisfies_constraint(t, c)
        assert all(satisfies_constraint(p, c) == value for p in permutations(t))


def test_count_examples():
    assert count_tuples(2, ConstraintVector((1,)), 4) == 11
    assert count_tuples(1, ConstraintVector((2,)), 10) == 5
    assert count_tuples(3, ConstraintVector((1, 1)), 2) == 7


def test_count_frozen_oracle_values():
    # values computed once by the subset-gcd enumeration oracle
    assert count_tuples(2, ConstraintVector((1,)), 100) == 6087
    assert count_tuples(3, ConstraintVector((1,)), 20) == 2488
    assert count_tuples(3, ConstraintVector.trivial(3), 20) == 6745
    assert count_tuples(2, ConstraintVector((3,)), 50) == 791
    assert count_tuples(2, ConstraintVector((2, 3)), 30) == 200
    assert count_tuples(3, ConstraintVector((2, 3)), 12) == 157
    assert count_tuples(4, ConstraintVector((5, 6)), 8) == 295
    assert count_tuples(4, ConstraintVector((3,)), 8) == 177
    assert count_tuples(1, ConstraintVector((4, 9)), 50) == 25
    assert count_tuples(2, ConstraintVector((5,)), 60) == 1457


def test_count_against_enumeration_oracle():
    for moduli in [(1,), (2,), (6,), (2, 3), (5, 6), (4, 9)]:
        c = ConstraintVector(moduli)
        for s in (1, 2, 3):
            for n in (0, 1, 2, 5, 8):
                expect = count_by_enumeration(s, c.k, moduli, n)
                assert count_tuples(s, c, n) == expect


def test_strategies_agree():
    for moduli in [(1,), (2,), (2, 3), (4, 9), (1, 1, 1), (7, 2, 9)]:
        c = ConstraintVector(moduli)
        for s in (1, 2, 3):
            for n in (1, 4, 7, 8):
                fast = count_tuples(s, c, n, strategy="signature")
                slow = count_tuples(s, c, n, strategy="naive")
                assert fast == slow


def test_parallel_matches_serial():
    c = ConstraintVector((1,))
    for n in (64, 200, 301):
        assert count_tuples(2, c, n, threads=3) == count_tuples(2, c, n, threads=1)
    c2 = ConstraintVector((2, 3))
    assert count_tuples(2, c2, 150, threads=2) == count_tuples(2, c2, 150)


def test_count_monotonicity():
    c = ConstraintVector((6,))
    values = [count_tuples(2, c, n) for n in range(0, 30)]
    assert values[0] == 0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_count_vacuous_when_s_below_k():
    # fewer values than the order: every tuple qualifies under trivial moduli
    for s, k in [(1, 2), (2, 3), (3, 4)]:
        assert count_tuples(s, ConstraintVector.trivial(k), 7) == 7**s


def test_single_value_counts():
    # s = 1 depends only on u_1: values coprime to it
    assert count_tuples(1, ConstraintVector((6,)), 100) == 33
    assert count_tuples(1, ConstraintVector((1,)), 100) == 100
    assert count_tuples(1, ConstraintVector((2, 3, 5)), 30) == 15


def test_wide_tuples_closed_form():
    # over [1, 2]^s a tuple qualifies when fewer than k entries are 2
    for k in (2, 3, 5):
        expect = sum(comb(40, t) for t in range(k))
        assert count_tuples(40, ConstraintVector.trivial(k), 2, budget=2**40) == expect
    # over [1, 3]^s: fewer than k entries are 2 and fewer than k are 3
    s = 30
    for k in (2, 4):
        expect = sum(
            factorial(s) // (factorial(a) * factorial(b) * factorial(s - a - b))
            for a in range(k)
            for b in range(k)
        )
        assert count_tuples(s, ConstraintVector.trivial(k), 3, budget=3**s) == expect


def test_single_value_count_needs_no_sieve(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve up to {limit} built for s = 1")

    monkeypatch.setattr(coprime, "sieve_primes", no_sieve)
    # values in [1, n] coprime to 6, n = 2 * 10^8
    n = 2 * 10**8
    assert count_tuples(1, ConstraintVector((6,)), n) == n - n // 2 - n // 3 + n // 6


def test_budget_enforced():
    with pytest.raises(BudgetError):
        count_tuples(5, ConstraintVector.trivial(2), 100, budget=10**6)
    with pytest.raises(BudgetError):
        count_tuples(2, ConstraintVector.trivial(2), 10**7)
    # naive is budgeted too
    with pytest.raises(BudgetError):
        count_tuples(3, ConstraintVector.trivial(2), 500, strategy="naive", budget=10**4)


def test_count_input_validation():
    c = ConstraintVector.trivial(2)
    with pytest.raises(ValueError):
        count_tuples(0, c, 5)
    with pytest.raises(ValueError):
        count_tuples(2, c, -1)
    with pytest.raises(ValueError):
        count_tuples(2, c, 5, strategy="guess")
    with pytest.raises(ValueError):
        count_tuples(2, c, 5, threads=0)
    with pytest.raises(TypeError):
        count_tuples(2, (1,), 5)


def test_relaxed_moduli_counting():
    # shared primes take the tightest cap; cross-check against enumeration
    relaxed = _RelaxedModuli((2, 6))
    for n in (4, 6, 9):
        got = _count_caps(2, relaxed.k, _prime_caps(relaxed.moduli), n)
        expect = sum(
            1
            for t in product(range(1, n + 1), repeat=2)
            if _satisfies_caps(t, 3, (2, 6))
        )
        assert got == expect
    # (2, 6) relaxed means: no entry even, at most one divisible by 3
    assert _count_caps(2, 3, _prime_caps((2, 6)), 9) == sum(
        1
        for t in product(range(1, 10), repeat=2)
        if all(v % 2 for v in t) and sum(v % 3 == 0 for v in t) <= 1
    )


def test_relaxation_monotone():
    # enlarging a modulus can only remove tuples
    for n in (5, 10, 20):
        loose = count_tuples(2, ConstraintVector((1,)), n)
        mid = count_tuples(2, ConstraintVector((3,)), n)
        tight = count_tuples(2, ConstraintVector((15,)), n)
        assert loose >= mid >= tight
