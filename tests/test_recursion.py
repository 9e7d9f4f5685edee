from itertools import product
from math import gcd

import numpy as np
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
    _verify,
    reduce_constraint,
    reduce_constraint_raw,
    verify_recursion,
)
from oracles import constraint_ok, verify_recursion_unshared


def test_raw_shift_examples():
    assert reduce_constraint_raw(7, ConstraintVector((4,))) == (28,)
    assert reduce_constraint_raw(4, ConstraintVector((5, 6))) == (10, 24)
    assert reduce_constraint_raw(6, ConstraintVector((1, 1))) == (1, 6)
    assert reduce_constraint_raw(4, ConstraintVector((5, 6, 7))) == (10, 6, 28)


def test_reduced_shift_examples():
    assert reduce_constraint(7, ConstraintVector((4,))).moduli == (28,)
    assert reduce_constraint(4, ConstraintVector((5, 6))).moduli == (10, 3)
    assert reduce_constraint(6, ConstraintVector((1, 1))).moduli == (1, 6)
    assert reduce_constraint(4, ConstraintVector((5, 6, 7))).moduli == (10, 3, 7)
    assert reduce_constraint(1, ConstraintVector((5, 6))).moduli == (5, 6)


def test_reduced_shift_divides_the_raw_shift(monkeypatch):
    # the reduced shift takes its numerators from the raw shift, once, and only divides
    calls = []
    raw_shift = recursion.reduce_constraint_raw
    monkeypatch.setattr(
        recursion, "reduce_constraint_raw", lambda j, c: calls.append(j) or raw_shift(j, c)
    )
    assert reduce_constraint(4, ConstraintVector((5, 6, 7))).moduli == (10, 3, 7)
    assert calls == [4]
    for moduli in ((1,), (6,), (5, 6), (4, 9), (5, 6, 7), (3, 5, 7, 11), (1, 4, 9, 25)):
        c = ConstraintVector(moduli)
        for j in range(1, 61):
            if gcd(j, moduli[0]) != 1:
                continue
            raw, reduced = raw_shift(j, c), reduce_constraint(j, c).moduli
            # component 1 keeps its value once there is another one; j is coprime to u_1
            assert len(raw) == 1 or reduced[0] == raw[0]
            assert all(r % q == 0 for r, q in zip(raw, reduced)), (moduli, j)


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
            assert len(raw) == len(reduced.moduli)


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
                relaxed = _count_caps(2, c.k, _prime_caps(raw), n)
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
    assert rep == RecursionReport(n=4, lhs=11, rhs_reduced=11, rhs_raw=11)
    assert RecursionReport._fields == ("n", "lhs", "rhs_reduced", "rhs_raw")
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
    # a numpy n is checked as a Python int: n^2 does not wrap to a negative number
    with pytest.raises(BudgetError):
        verify_recursion(1, ConstraintVector((5, 6)), np.int64(3037000500))
    with pytest.raises(TypeError):
        verify_recursion(1, c, 5.0)
    with pytest.raises(TypeError):
        verify_recursion(1, c, 5, threads=2.5)
    assert verify_recursion(np.int64(2), c, np.int64(20)) == verify_recursion(2, c, 20)
    with pytest.raises(ValueError):
        verify_recursion(0, c, 5)
    with pytest.raises(ValueError):
        verify_recursion(1, c, -1)
    for moduli in ((1,), reduce_constraint_raw(4, ConstraintVector((5, 6)))):
        with pytest.raises(TypeError, match="got tuple"):
            verify_recursion(2, moduli, 5)


def test_recursion_counts_each_cap_map_once(monkeypatch):
    s, c, n = 2, ConstraintVector((5, 6)), 30
    counted = []

    def counting(s_, k, caps, n_, **kwargs):
        counted.append((s_, caps))
        return _count_caps(s_, k, caps, n_, **kwargs)

    monkeypatch.setattr(recursion, "_count_caps", counting)
    rep = verify_recursion(s, c, n)
    assert rep.passed
    maps = {
        caps
        for j in range(1, n + 1)
        if gcd(j, 5) == 1
        for caps in (
            _prime_caps(reduce_constraint(j, c).moduli),
            _prime_caps(reduce_constraint_raw(j, c)),
        )
    }
    # one direct (s+1)-count, on the direct cap map, and each shifted map once
    assert [caps for s_, caps in counted if s_ == s + 1] == [_prime_caps(c.moduli)]
    counted = [caps for s_, caps in counted if s_ == s]
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
    count_tuples(2, ConstraintVector.trivial(2), 30)
    assert calls == 1
    calls = 0
    verify_recursion(2, ConstraintVector((5, 6)), 30)
    # one for the direct count, one per shift of each j coprime to u_1 = 5
    assert calls == 1 + 2 * sum(1 for j in range(1, 31) if gcd(j, 5) == 1) == 49


def test_sweep_derives_each_shift_once_and_counts_each_map_once_per_n(monkeypatch):
    s, c, n_max = 2, ConstraintVector((5, 6)), 100
    derived = 0
    prime_caps = coprime._prime_caps

    def deriving(moduli):
        nonlocal derived
        derived += 1
        return prime_caps(moduli)

    counted = []

    def counting(s_, k, caps, n, **kwargs):
        counted.append((s_, n, caps))
        return _count_caps(s_, k, caps, n, **kwargs)

    monkeypatch.setattr(coprime, "_prime_caps", deriving)
    monkeypatch.setattr(recursion, "_prime_caps", deriving)
    monkeypatch.setattr(recursion, "_count_caps", counting)
    reports = list(_verify(s, c, range(1, n_max + 1)))
    assert [r.n for r in reports] == list(range(1, n_max + 1))
    assert all(r.passed for r in reports)
    coprime_j = [j for j in range(1, n_max + 1) if gcd(j, 5) == 1]
    # one for the sweep's direct cap map, one per shift of each j coprime to u_1 = 5
    assert derived == 1 + 2 * len(coprime_j) == 161
    # one direct (s+1)-count per n, on the direct cap map
    direct = [(n, caps) for s_, n, caps in counted if s_ == s + 1]
    assert direct == [(n, prime_caps(c.moduli)) for n in range(1, n_max + 1)]
    counted = [(n, caps) for s_, n, caps in counted if s_ == s]
    maps = {
        j: {prime_caps(reduce_constraint(j, c).moduli), prime_caps(reduce_constraint_raw(j, c))}
        for j in coprime_j
    }
    # the counts a call per n makes: each distinct cap map of the j <= n once
    per_n = [(n, set().union(*(maps[j] for j in coprime_j if j <= n))) for n in range(1, n_max + 1)]
    assert sorted(counted) == sorted((n, caps) for n, distinct in per_n for caps in distinct)


def test_sweep_reports_match_calls_per_n():
    c = ConstraintVector((3, 2))
    sweep = list(_verify(2, c, range(0, 25)))
    assert sweep == [verify_recursion(2, c, n) for n in range(0, 25)]
    # any order and repeats: each report depends on its n alone
    ns = (9, 3, 17, 3, 0, 12)
    assert list(_verify(2, c, ns)) == [sweep[n] for n in ns]


def test_sweeps_at_two_orders_keep_their_own_states():
    # a memo that outlived its sweep would hand k = 3 the states of k = 2,
    # whose default cap is lower
    for s in (2, 3):
        for k in (2, 3, 2):
            c = ConstraintVector.trivial(k)
            for rep in _verify(s, c, range(1, 16)):
                got = (rep.lhs, rep.rhs_reduced, rep.rhs_raw)
                assert got == verify_recursion_unshared(s, c, rep.n), (s, k, rep.n)


class _CheckedMemo(dict):
    """An engine memo that fails the test once it holds more than MAX_MEMO_STATES states."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(self) <= coprime.MAX_MEMO_STATES
        self.largest = max(self.largest, len(self))


def test_memo_cap_bounds_the_memo_and_changes_no_count(monkeypatch):
    s, c, n_max = 2, ConstraintVector((5, 6)), 60
    want = list(_verify(s, c, range(1, n_max + 1)))
    calls = [
        (caps, n)
        for n in range(20, 61, 7)
        for caps in ((), ((2, 0),), ((3, 1), (5, 0)), ((2, 1), (7, 0), (11, 0)))
    ]
    fresh = [_count_caps(3, 3, caps, n) for caps, n in calls]
    monkeypatch.setattr(coprime, "MAX_MEMO_STATES", 16)
    assert list(_verify(s, c, range(1, n_max + 1))) == want
    memo = _CheckedMemo()
    assert [_count_caps(3, 3, caps, n, memo=memo) for caps, n in calls] == fresh
    # the memo filled up, so it was cleared on the way
    assert memo.largest == 16
