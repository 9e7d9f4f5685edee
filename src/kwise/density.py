"""Exact limiting densities for constrained tuples, with rigorous enclosures.

The density of k-wise coprime s-tuples is an Euler product: each prime
contributes the probability that it divides at most k - 1 of s uniformly
random residues.  Truncating the product at a prime limit P overshoots the
true value, and the omitted factors multiply to at least 1 - tail for an
explicit tail bound, so every result is returned as a certified enclosure
[lower, upper] plus the truncated-product point value.

All per-prime factors are exact fractions.  The truncated product, whose
exact terms run to megabits, is an outward-rounded fixed-point interval
[lo, hi] * 2^-F; the printed digits are those both ends round to, which
are then the exact product's, and F doubles until they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_PREC, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import comb, prod

from .arith import factorize, is_prime, sieve_primes
from .coprime import ConstraintVector

__all__ = [
    "DEFAULT_PRECISION",
    "DEFAULT_PRIME_LIMIT",
    "DensityEnclosure",
    "constraint_factor",
    "constraint_factor_mobius",
    "error_log_exponent",
    "kwise_coprime_probability",
    "limiting_density",
    "local_factor",
    "mobius_ratio_identity",
    "mobius_sum_weight",
    "tail_fraction",
]

DEFAULT_PRECISION = 50
DEFAULT_PRIME_LIMIT = 100_000


@dataclass(frozen=True)
class DensityEnclosure:
    """Certified decimal enclosure of a limiting density.

    lower and upper bound the exact limit from below and above; point is
    the truncated Euler product rounded to nearest and always lies inside
    [lower, upper].  tail_bound is the certified relative loss from the
    primes beyond prime_limit, rounded up.
    """

    lower: Decimal
    upper: Decimal
    point: Decimal
    prime_limit: int
    tail_bound: Decimal

    @property
    def width(self) -> Decimal:
        # a difference of two finite decimals is exact at MAX_PREC
        with localcontext() as ctx:
            ctx.prec = MAX_PREC
            return self.upper - self.lower


def _validate_order(s: int, k: int) -> None:
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")


@cache
def _binomials(s: int, r: int) -> tuple[int, ...]:
    return tuple(comb(s, m) for m in range(r))


def _weight(s: int, r: int, p: int) -> int:
    """W(s, r, p) = sum_{m<r} C(s,m) (p-1)^(r-1-m), the one per-prime weight.

    P[p divides fewer than r of s residues] = (p-1)^(s-r+1) W(s, r, p) / p^s
    for r <= s; every local factor, constraint factor and Mobius-sum weight
    in this module is a product or ratio of these.  Evaluated by Horner's
    rule in p - 1, with the binomials computed once per (s, r).
    """
    x, out = p - 1, 0
    for c in _binomials(s, r):
        out = out * x + c
    return out


def local_factor(s: int, k: int, p: int) -> Fraction:
    """Per-prime density factor: P[p divides at most k - 1 of s residues].

    Written as (1 - 1/p)^(s-k+1) * sum_{m<k} C(s,m) (1 - 1/p)^(k-1-m) p^-m,
    which telescopes the binomial tail; equals 1 exactly when s < k since
    no prime can divide k of fewer than k values.
    """
    _validate_order(s, k)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s < k:
        return Fraction(1)
    return Fraction(*_local_pair(s, k, p))


def _local_pair(s: int, k: int, p: int) -> tuple[int, int]:
    """local_factor as an unreduced integer pair, cheap enough for product loops."""
    return ((p - 1) ** (s - k + 1) * _weight(s, k, p), p**s)


def tail_fraction(s: int, k: int, prime_limit: int) -> Fraction:
    """Certified bound on the relative loss from primes above prime_limit.

    Each omitted factor lies in [1 - C(s,k) p^-k, 1]: the factor is the
    probability that no k of the s residues share the prime, and a union
    bound over the C(s,k) subsets costs p^-k each.  Summing p^-k over
    integers above prime_limit against the integral gives
    prime_limit^(1-k) / (k - 1), and prod(1 - x_p) >= 1 - sum(x_p).
    Zero when s < k, where every factor is exactly 1.
    """
    _validate_order(s, k)
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be at least 2, got {prime_limit}")
    return Fraction(comb(s, k), (k - 1) * prime_limit ** (k - 1))


def _decimal_ratio(num: int, den: int, digits: int, rounding: str) -> Decimal:
    """num/den to `digits` significant figures, rounded once as asked.

    The result, its exponent included, depends only on the value num/den.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return Decimal(num) / Decimal(den)


def _decimals(num: int, den: int, tail: Fraction, digits: int) -> tuple[Decimal, ...]:
    """(lower, upper, point): num/den (1 - tail) rounded down, num/den up and to nearest."""
    rest = 1 - tail
    return (
        _decimal_ratio(num * rest.numerator, den * rest.denominator, digits, ROUND_FLOOR),
        _decimal_ratio(num, den, digits, ROUND_CEILING),
        _decimal_ratio(num, den, digits, ROUND_HALF_EVEN),
    )


def _interval_enclosure(
    s: int,
    k: int,
    primes: list[int],
    factor: Fraction,
    tail: Fraction,
    digits: int,
    bits: int | None = None,
) -> tuple[Decimal, ...]:
    """_decimals of the truncated product X = factor * prod local_factor(s, k, p).

    Certificate: lo and hi start at 2^bits and take each factor a/b > 0, lo
    rounded down, hi up; if lo <= X_j 2^bits <= hi, then floor(lo a/b) <=
    X_j a/b 2^bits <= ceil(hi a/b).  The roundings of _decimals are monotone,
    so when lo and hi give the same decimals, exponents included, X gives
    them too.  Factors are at most 1, so each step moves an end at most one
    unit from X: the default bits leave 32 bits below the last digit for X
    not far below 1, and a straddled decimal doubles bits.  An output equal
    to a decimal of `digits` figures (0.64 = (3/4)(8/9)(24/25) at s = k = 2,
    P = 5) straddles at any width; past 8x the default bits, X is computed exactly.
    """
    start = -(-333 * digits // 100) + 32 + len(primes).bit_length()
    bits = bits or start
    while bits <= 8 * start:
        lo = hi = 1 << bits
        for a, b in chain((_local_pair(s, k, p) for p in primes), [factor.as_integer_ratio()]):
            lo = lo * a // b
            hi = -(-hi * a // b)
        low, high = (_decimals(end, 1 << bits, tail, digits) for end in (lo, hi))
        if repr(low) == repr(high):
            return low
        bits *= 2
    exact = factor * prod(Fraction(*_local_pair(s, k, p)) for p in primes)
    return _decimals(exact.numerator, exact.denominator, tail, digits)


def kwise_coprime_probability(
    s: int,
    k: int,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    precision: int = DEFAULT_PRECISION,
) -> DensityEnclosure:
    """Enclosure of the limiting probability that s random values are k-wise coprime.

    limiting_density with the trivial constraint: exactly 1 when s < k,
    otherwise the certified Euler product of local_factor up to prime_limit.
    """
    return limiting_density(s, ConstraintVector.trivial(k), prime_limit, precision)


def constraint_factor(s: int, k: int, i: int, u: int) -> Fraction:
    """Exact density correction for the i-wise-coprime-to-u condition.

    Multiplicative over the primes of u; each prime contributes the
    conditional probability that it divides at most i - 1 of the s values
    given that it divides at most k - 1.  Depends only on the radical of u,
    and is 1 when u = 1.
    """
    _validate_order(s, k)
    if not 1 <= i <= k - 1:
        raise ValueError(f"i must lie in [1, k-1] = [1, {k - 1}], got {i}")
    if u < 1:
        raise ValueError(f"u must be a positive integer, got {u}")
    num = den = 1
    for p in factorize(u).primes():
        num *= (p - 1) ** (k - i) * _weight(s, i, p)
        den *= _weight(s, k, p)
    return Fraction(num, den)


def mobius_sum_weight(s: int, i: int, d: int) -> Fraction:
    """Weight d^i * prod_{p|d} sum_{m<=i} C(s,m) (1-1/p)^(i-m) p^-m.

    The denominator weight appearing in the Mobius-sum form of the
    constraint factors.  The prime powers cancel, leaving the integer
    (d / rad d)^i * prod_{p|d} W(s, i + 1, p); for squarefree d that is
    prod_{p|d} sum_{m<=i} C(s,m)(p-1)^(i-m).
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if i < 1:
        raise ValueError(f"i must be at least 1, got {i}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    f = factorize(d)
    return Fraction((d // f.radical()) ** i * prod(_weight(s, i + 1, p) for p in f.primes()))


def constraint_factor_mobius(s: int, k: int, i: int, u: int) -> Fraction:
    """Mobius-sum route to the constraint factors.

    Evaluates sum over squarefree divisors d of u of mu(d) C(s,i)^omega(d) /
    prod_{p|d} w_p with w_p = W(s, i + 1, p), the squarefree case of
    mobius_sum_weight(s, i, d): over the denominator prod_{p|u} w_p, the d
    made of the primes T adds (-C(s,i))^|T| times the w_p outside T.  Still
    the inclusion-exclusion sum, independent of the product route and its
    per-prime ratio W(s, i, p) / W(s, k, p).  Equals
    constraint_factor(s,k,i,u) / constraint_factor(s,k,i+1,u) for i < k - 1
    and constraint_factor(s,k,k-1,u) at i = k - 1; mobius_ratio_identity
    checks that equality case by case.
    """
    _validate_order(s, k)
    if not 1 <= i <= k - 1:
        raise ValueError(f"i must lie in [1, k-1] = [1, {k - 1}], got {i}")
    if u < 1:
        raise ValueError(f"u must be a positive integer, got {u}")
    weights = [_weight(s, i + 1, p) for p in factorize(u).primes()]
    c = comb(s, i)
    total = 0
    for r in range(len(weights) + 1):
        for outside in combinations(weights, len(weights) - r):
            total += (-c) ** r * prod(outside)
    return Fraction(total, prod(weights))


def mobius_ratio_identity(s: int, k: int, u: int) -> list[tuple[int, Fraction, Fraction, bool]]:
    """Compare both routes to the constraint-factor ratios for every i.

    Returns (i, mobius-sum value, factor-ratio value, equal) for each i in
    1..k-1.  Exact rational comparison; any inequality is a real defect in
    one of the two routes, never a rounding artifact.  Each constraint
    factor is computed once and serves both ratios it appears in.
    """
    factors = [constraint_factor(s, k, i, u) for i in range(1, k)] + [Fraction(1)]
    out = []
    for i in range(1, k):
        lhs = constraint_factor_mobius(s, k, i, u)
        rhs = factors[i - 1] / factors[i]
        out.append((i, lhs, rhs, lhs == rhs))
    return out


def limiting_density(
    s: int,
    constraint: ConstraintVector,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    precision: int = DEFAULT_PRECISION,
) -> DensityEnclosure:
    """Enclosure of the limiting density of tuples satisfying a constraint.

    The k-wise Euler product times the exact constraint factors for each
    modulus.  The constraint factors are finite exact rationals, so the
    tail certificate is the same one the bare k-wise product carries.
    """
    if not isinstance(constraint, ConstraintVector):
        raise TypeError(
            f"constraint must be a ConstraintVector, got {type(constraint).__name__}"
        )
    k = constraint.k
    _validate_order(s, k)
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    tail = tail_fraction(s, k, prime_limit)
    if tail >= 1:
        raise ValueError(
            f"tail bound {tail} is not below 1; raise prime_limit above {prime_limit}"
        )
    primes = sieve_primes(prime_limit) if s >= k else []
    factor = Fraction(1)
    for i, u in enumerate(constraint.moduli, start=1):
        factor *= constraint_factor(s, k, i, u)
    tail_bound = _decimal_ratio(tail.numerator, tail.denominator, precision, ROUND_CEILING)
    return DensityEnclosure(
        *_interval_enclosure(s, k, primes, factor, tail, precision), prime_limit, tail_bound
    )


def error_log_exponent(s: int, k: int) -> int:
    """Log exponent in the counting error term: max of C(s-1, i) over 1 <= i <= k-1."""
    _validate_order(s, k)
    return max(comb(s - 1, i) for i in range(1, k))
