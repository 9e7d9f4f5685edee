"""Prime sieve, factorization, primality and the prime-support parts of a number.

Everything here works on plain Python ints so results stay exact no matter
how large the operands get.  A factorization is a plain tuple of
ascending (prime, exponent) pairs.  Factorization and primality go by
trial division and never sieve; the sieve keeps only its last table.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt

__all__ = [
    "BudgetError",
    "Factorization",
    "MAX_SIEVE",
    "co_part",
    "factorize",
    "is_prime",
    "sieve_primes",
    "tight_part",
]

# the sieve holds a byte per integer and a Python int per prime; trial
# division of n stops at the same bound, so it accepts isqrt(n) <= MAX_SIEVE
MAX_SIEVE = 10**8


class BudgetError(RuntimeError):
    """Raised when a request would exceed a work or memory budget."""


@lru_cache(maxsize=1)
def _sieve(limit: int) -> tuple[int, ...]:
    """The primes up to limit >= 2, from a sieve of the odd numbers only.

    flags[i] stands for 2i + 1, so the table holds (limit + 1) // 2 bytes.
    Each odd prime p <= isqrt(limit) strikes its odd multiples from p^2 on,
    a stride of p flags, as the even ones are not in the table.
    """
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return tuple(chain((2,), compress(range(1, limit + 1, 2), flags)))


def _primes(limit: int) -> tuple[int, ...]:
    """sieve_primes(limit) as the tuple the sieve caches, read in place, not copied.

    A limit above MAX_SIEVE is refused before anything is allocated.
    """
    if limit < 2:
        return ()
    if limit > MAX_SIEVE:
        raise BudgetError(f"a sieve up to {limit} exceeds the limit of {MAX_SIEVE}")
    return _sieve(limit)


def sieve_primes(limit: int) -> list[int]:
    """All primes p with 2 <= p <= limit, ascending; empty when limit < 2.

    A limit above MAX_SIEVE is refused before anything is allocated.
    """
    return list(_primes(limit))


def _trial_divisors(n: int) -> Iterable[int]:
    """2 and the odd numbers up to isqrt(n), refused before any work past MAX_SIEVE."""
    root = isqrt(n)
    if root > MAX_SIEVE:
        raise BudgetError(f"trial division up to {root} exceeds the limit of {MAX_SIEVE}")
    return chain((2,), range(3, root + 1, 2)) if root >= 2 else ()


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division up to isqrt(n)."""
    return n >= 2 and all(n % d for d in _trial_divisors(n))


# ascending (prime, exponent) pairs; () is the factorization of 1
Factorization = tuple[tuple[int, int], ...]


# typed, so that 12.0 still fails in isqrt instead of hitting the entry for 12
@lru_cache(maxsize=1 << 14, typed=True)
def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division into ascending (p, e) pairs.

    factorize(1) == () and factorize(12) == ((2, 2), (3, 1)).  Cached, since
    the verify commands factor the same moduli thousands of times; a refusal
    (isqrt(n) past MAX_SIEVE) raises and is not cached.
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    pairs = []
    rest = n
    for d in _trial_divisors(n):
        if d * d > rest:
            break
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            pairs.append((d, e))
    if rest > 1:
        pairs.append((rest, 1))
    return tuple(pairs)


def tight_part(a: int, b: int) -> int:
    """Largest divisor of b whose prime support lies inside that of a.

    Equivalently the product over primes p dividing gcd(a, b) of the full
    power of p in b, found by gcds alone, so b may be of any size.
    tight_part(1, b) == 1 and tight_part(a, 1) == 1.
    """
    if a < 1 or b < 1:
        raise ValueError(f"tight_part expects positive integers, got ({a}, {b})")
    out, g = 1, a
    while (g := gcd(b, g)) != 1:  # each g keeps the primes of the last that b still has
        out, b = out * g, b // g
    return out


def co_part(j: int, u: int) -> int:
    """Largest divisor of j whose prime support lies inside that of u.

    Same construction as tight_part with the roles swapped: the full power
    in j of every prime shared with u.
    """
    return tight_part(u, j)
