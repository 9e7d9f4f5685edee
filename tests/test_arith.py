from bisect import bisect_right
from math import isqrt, prod

import pytest

from kwise import arith
from kwise.arith import (
    BudgetError,
    Factorization,
    co_part,
    factorize,
    is_prime,
    sieve_primes,
    tight_part,
)
from oracles import (
    euler_phi,
    mobius,
    omega,
    squarefree_divisor_count,
    squarefree_divisors,
    totient_by_count,
)


def test_sieve_small():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []
    assert sieve_primes(0) == []


def test_sieve_matches_trial_division():
    primes = set(sieve_primes(2000))
    for n in range(2, 2001):
        by_trial = all(n % d for d in range(2, n))
        assert (n in primes) == by_trial


def test_odd_only_sieve_matches_trial_division_at_every_limit():
    # every limit up to 3000, and p^2 - 1, p^2, p^2 + 1 for each odd prime p <= 101:
    # p^2 is the first multiple the odd-only table strikes for p
    top = 101**2 + 1
    reference = [n for n in range(2, top + 1) if all(n % d for d in range(2, isqrt(n) + 1))]
    squares = [p * p + d for p in reference if 2 < p <= 101 for d in (-1, 0, 1)]
    for n in [*range(3001), *squares]:
        assert sieve_primes(n) == reference[: bisect_right(reference, n)], n


def test_sieve_prefix_consistency():
    # each limit is sieved on its own, and the answers must nest
    full = sieve_primes(5000)
    assert sieve_primes(100) == [p for p in full if p <= 100]
    assert sieve_primes(4999) == [p for p in full if p <= 4999]


def test_is_prime():
    primes = set(sieve_primes(500))
    for n in range(501):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_roundtrip_and_order():
    for n in range(1, 3000):
        f = factorize(n)
        primes = [p for p, _ in f]
        assert prod(p**e for p, e in f) == n
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in f)
        assert all(is_prime(p) for p in primes)


def factor_by_primes(n, primes):
    entries = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            entries.append((p, e))
    return tuple(entries) + (((n, 1),) if n > 1 else ())


def test_factorize_and_is_prime_never_sieve(monkeypatch):
    cases = (999983 * 1000003, 10**12 + 39, 360)

    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built")

    monkeypatch.setattr(arith, "_sieve", no_sieve)
    factorize.cache_clear()
    got = [(factorize(n), is_prime(n)) for n in cases]
    monkeypatch.undo()
    # every case lies below (10**6 + 3)**2, so what the primes leave is 1 or prime
    primes = sieve_primes(10**6 + 3)
    expected = [factor_by_primes(n, primes) for n in cases]
    assert got == [(e, e == ((n, 1),)) for n, e in zip(cases, expected)]
    assert [prime for _, prime in got] == [False, True, False]


def test_trial_division_keeps_the_sieve_cap(monkeypatch):
    # refused exactly when isqrt(n) > MAX_SIEVE, as when factorize sieved to isqrt(n)
    monkeypatch.setattr(arith, "MAX_SIEVE", 1000)
    factorize.cache_clear()
    assert factorize(997**2) == ((997, 2),)
    for call, n in ((factorize, 1009**2), (factorize, 2**22), (is_prime, 1009**2)):
        with pytest.raises(BudgetError):
            call(n)


def test_factorization_is_a_tuple_of_pairs():
    # the exported name is the type alias of what factorize returns
    assert Factorization == tuple[tuple[int, int], ...]
    f = factorize(40)
    assert type(f) is tuple and f == ((2, 3), (5, 1))
    assert all(type(pair) is tuple and len(pair) == 2 for pair in f)


def test_factorize_rejects_nonpositive():
    for bad in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(bad)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_divisor_sum():
    # sum of mu over divisors is the identity indicator
    for n in range(1, 300):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_omega_and_squarefree_divisor_count():
    assert omega(1) == 0
    assert omega(12) == 2
    assert omega(30) == 3
    for n in range(1, 2000):
        assert squarefree_divisor_count(n) == len(squarefree_divisors(n))
        assert squarefree_divisor_count(n) == 2 ** omega(n)


def test_euler_phi_against_count():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for n in range(1, 500):
        assert euler_phi(n) == totient_by_count(n)


def test_multiplicativity():
    from math import gcd

    pairs = [(a, b) for a in range(1, 40) for b in range(1, 40) if gcd(a, b) == 1]
    for a, b in pairs:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert mobius(a * b) == mobius(a) * mobius(b)
        assert omega(a * b) == omega(a) + omega(b)


def test_tight_part_examples():
    assert tight_part(6, 12) == 12
    assert tight_part(2, 12) == 4
    assert tight_part(5, 12) == 1
    assert tight_part(1, 99) == 1
    assert tight_part(99, 1) == 1


def test_co_part_examples():
    assert co_part(4, 6) == 4
    assert co_part(6, 5) == 1
    assert co_part(12, 10) == 4
    assert co_part(1, 7) == 1
    assert co_part(7, 1) == 1


def test_part_invariants():
    from math import gcd

    for a in range(1, 120):
        for b in range(1, 120):
            t = tight_part(a, b)
            assert b % t == 0
            # complementary divisor shares nothing with a, and every prime
            # of t divides a (so pulling the tight part out again is a no-op)
            assert gcd(b // t, a) == 1
            assert tight_part(a, t) == t
            c = co_part(a, b)
            assert a % c == 0
            assert gcd(a // c, b) == 1
            assert c == tight_part(b, a)


def test_parts_reject_nonpositive():
    with pytest.raises(ValueError):
        tight_part(0, 5)
    with pytest.raises(ValueError):
        tight_part(5, 0)
    with pytest.raises(ValueError):
        co_part(-2, 5)
