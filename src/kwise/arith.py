"""Prime sieve, factorization and the small multiplicative functions.

Everything here works on plain Python ints so results stay exact no matter
how large the operands get.  The sieve is cached and grows geometrically up
to MAX_SIEVE, so repeated factorization of small numbers never re-sieves.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt

__all__ = [
    "BudgetError",
    "Factorization",
    "MAX_SIEVE",
    "co_part",
    "euler_phi",
    "factorize",
    "is_prime",
    "mobius",
    "omega",
    "sieve_primes",
    "squarefree_divisor_count",
    "tight_part",
]

# the sieve holds a byte per integer and a Python int per prime
MAX_SIEVE = 10**8


class BudgetError(RuntimeError):
    """Raised when a request would exceed a work or memory budget."""


_sieve_lock = threading.Lock()
_sieved_limit = 0
_sieved_primes: tuple[int, ...] = ()


def _grow_sieve(limit: int) -> None:
    global _sieved_limit, _sieved_primes
    target = max(limit, min(2 * _sieved_limit, MAX_SIEVE), 1 << 10)
    flags = bytearray([1]) * (target + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(target) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, target + 1, p)))
    _sieved_primes = tuple(compress(range(target + 1), flags))
    _sieved_limit = target


def sieve_primes(limit: int) -> list[int]:
    """All primes p with 2 <= p <= limit, ascending; empty when limit < 2.

    A limit above MAX_SIEVE is refused before anything is allocated.
    """
    if limit < 2:
        return []
    if limit > MAX_SIEVE:
        raise BudgetError(f"a sieve up to {limit} exceeds the limit of {MAX_SIEVE}")
    if limit > _sieved_limit:
        with _sieve_lock:
            if limit > _sieved_limit:
                _grow_sieve(limit)
    return list(_sieved_primes[: bisect_right(_sieved_primes, limit)])


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division over sieved primes."""
    if n < 2:
        return False
    for p in sieve_primes(isqrt(n)):
        if n % p == 0:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, exponent) pairs.

    The empty tuple represents 1.  ``entries`` is the canonical form; the
    helpers below are the views everything else in the package needs.
    """

    entries: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def radical(self) -> int:
        out = 1
        for p, _ in self.entries:
            out *= p
        return out


# typed, so that 12.0 still fails in isqrt instead of hitting the entry for 12
@lru_cache(maxsize=1 << 14, typed=True)
def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division.

    Cached, since the verify commands factor the same moduli thousands of
    times; a refusal (a sieve past MAX_SIEVE) raises and is not cached.
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    entries = []
    rest = n
    for p in sieve_primes(isqrt(n)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            entries.append((p, e))
    if rest > 1:
        entries.append((rest, 1))
    return Factorization(tuple(entries))


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^omega(n)."""
    f = factorize(n)
    if any(e > 1 for _, e in f.entries):
        return 0
    return -1 if len(f.entries) % 2 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n).entries)


def squarefree_divisor_count(n: int) -> int:
    """Number of squarefree divisors of n, i.e. 2**omega(n)."""
    return 1 << omega(n)


def euler_phi(n: int) -> int:
    """Euler totient."""
    out = n
    for p, _ in factorize(n).entries:
        out = out // p * (p - 1)
    return out


def tight_part(a: int, b: int) -> int:
    """Largest divisor of b whose prime support lies inside that of a.

    Equivalently the product over primes p dividing gcd(a, b) of the full
    power of p in b.  tight_part(1, b) == 1 and tight_part(a, 1) == 1.
    """
    if a < 1 or b < 1:
        raise ValueError(f"tight_part expects positive integers, got ({a}, {b})")
    out = 1
    for p, e in factorize(b).entries:
        if a % p == 0:
            out *= p**e
    return out


def co_part(j: int, u: int) -> int:
    """Largest divisor of j whose prime support lies inside that of u.

    Same construction as tight_part with the roles swapped: the full power
    in j of every prime shared with u.
    """
    return tight_part(u, j)
