"""Exact limiting densities for constrained tuples, with rigorous enclosures.

The density of k-wise coprime s-tuples is an Euler product: each prime
contributes the probability that it divides at most k - 1 of s uniformly
random residues.  Truncating the product at a prime limit P overshoots the
true value, and the omitted factors multiply to at least 1 - tail for an
explicit tail bound, so every result is returned as a certified enclosure
[lower, upper] plus the truncated-product point value.

Every factor is an exact integer pair: one per block of sieve primes, whose
factors are built by one Horner loop and multiplied out with math.prod, and
one per prime that the constraint caps.  The truncated product, whose exact
terms run to megabits, is an outward-rounded fixed-point interval
[lo, hi] * 2^-F, one step per pair; the printed digits are those both ends
round to, which are then the exact product's, or, in the rare case that the
ends round apart, those of the exact product itself, built from the same
pairs.  F grows as the product falls.  No Python call is made per prime:
the sieve, the weights and the block products each make one pass over the
primes, and the fixed-point loop one step per block.
"""

from __future__ import annotations

import operator
from decimal import MAX_PREC, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import BudgetError, _primes, factorize, is_prime
from .coprime import ConstraintVector, _check_constraint, _prime_caps

__all__ = [
    "DEFAULT_PRECISION",
    "DEFAULT_PRIME_LIMIT",
    "DensityEnclosure",
    "MAX_PRECISION",
    "constraint_factor",
    "constraint_factor_mobius",
    "error_log_exponent",
    "kwise_coprime_probability",
    "limiting_density",
    "local_factor",
    "mobius_ratio_identity",
    "tail_fraction",
]

DEFAULT_PRECISION = 50
DEFAULT_PRIME_LIMIT = 100_000
# the decimal divisions grow faster than linearly in the digits: 10^5 takes seconds
MAX_PRECISION = 10**5


class DensityEnclosure(NamedTuple):
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


def _validate_order(s: int, k: int) -> tuple[int, int]:
    s, k = operator.index(s), operator.index(k)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return s, k


def _validate_factor_args(s: int, k: int, i: int, u: int) -> tuple[int, int, int, int]:
    s, k = _validate_order(s, k)
    i, u = operator.index(i), operator.index(u)
    if not 1 <= i <= k - 1:
        raise ValueError(f"i must lie in [1, k-1] = [1, {k - 1}], got {i}")
    if u < 1:
        raise ValueError(f"u must be a positive integer, got {u}")
    return s, k, i, u


# C(s, 0), C(s, 1), ... per s, each from the one before; grown in place, so one thread at a time
_BINOMIALS: dict[int, list[int]] = {}


def _weights(s: int, r: int, xs: list[int]) -> list[int]:
    """W(s, r, x + 1) = sum_{m<r} C(s,m) x^(r-1-m) for each x in xs, r <= s.

    The one weight formula, for one prime or a block of them: Horner's rule in
    x = p - 1, each x in turn, with no call per prime.  A pass of map over
    the list per coefficient was slower wherever the block is short or the
    values are long, and about even elsewhere.
    """
    row = _BINOMIALS.get(s) or _BINOMIALS.setdefault(s, [1])
    while len(row) < r:
        row.append(row[-1] * (s - len(row) + 1) // len(row))
    out, tail = [], row[1:r]
    for x in xs:
        w = 1  # C(s, 0)
        for c in tail:
            w = w * x + c
        out.append(w)
    return out


def local_factor(s: int, k: int, p: int) -> Fraction:
    """Per-prime density factor: P[p divides at most k - 1 of s residues]."""
    s, k = _validate_order(s, k)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    e, w = _below(s, k, p)
    return Fraction((p - 1) ** e * w, p**s)


# verify-lemma4 asks for the same (s, r, p) many times over its moduli
@lru_cache(maxsize=1 << 12)
def _below(s: int, r: int, p: int) -> tuple[int, int]:
    """P[p divides fewer than r of s residues] = (p-1)^e w / p^s, as (e, w).

    The one per-prime probability (_blocks reads _weights for a block of
    primes at once).  sum_{m<r} C(s,m) (p-1)^(s-m) = (p-1)^(s-r+1) W(s, r, p);
    once r > s it is p^s, as no prime divides r of fewer than r values.  e
    is kept apart so that a ratio of two cancels (p-1)^e before building it.
    """
    return (s - r + 1, _weights(s, r, [p - 1])[0]) if r <= s else (0, p**s)


def _blocks(s: int, k: int, primes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The product of _below(s, k, p) over each block of primes, as one pair; k <= s.

    A block of primes p has (prod (p-1))^e prod W(s, k, p) over (prod p)^s,
    e = s - k + 1.  A block is as many primes as keep (prod p)^s under
    2^2048, and at least one, so its three products stay cheap; only one
    block's lists exist at a time.
    """
    size = max(1, 2048 // (s * primes[-1].bit_length())) if primes else 1
    for i in range(0, len(primes), size):
        block = primes[i : i + size]
        xs = [p - 1 for p in block]
        yield prod(xs) ** (s - k + 1) * prod(_weights(s, k, xs)), prod(block) ** s


def tail_fraction(s: int, k: int, prime_limit: int) -> Fraction:
    """Certified bound on the relative loss from primes above prime_limit.

    Each omitted factor lies in [1 - C(s,k) p^-k, 1]: the factor is the
    probability that no k of the s residues share the prime, and a union
    bound over the C(s,k) subsets costs p^-k each.  Summing p^-k over
    integers above prime_limit against the integral gives
    prime_limit^(1-k) / (k - 1), and prod(1 - x_p) >= 1 - sum(x_p).
    Zero when s < k, where every factor is exactly 1.
    """
    s, k = _validate_order(s, k)
    prime_limit = operator.index(prime_limit)
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be at least 2, got {prime_limit}")
    if s < k:
        return Fraction(0)
    return Fraction(comb(s, k), (k - 1) * prime_limit ** (k - 1))


def _decimal_ratio(num: int, den: int, digits: int, rounding: str) -> Decimal:
    """num/den to `digits` significant figures, rounded once as asked.

    The result, its exponent included, depends only on the value num/den.
    Decimal(int) is superlinear in the int's length, so long operands are
    first divided as integers (an exact product at P = 10^6 rounds in 10 s,
    not 105 s), and short ones as Decimals, 1.5 times faster at 10^5 digits.
    q, r = divmod(num 10^e, den), e making q >= 10^digits by 0.30102 <
    log10(2) < 0.30103.  No boundary of `digits` figures lies in (q, q + 1),
    so (10q + [r != 0]) / 10^(e+1) rounds the same.
    """
    if max(num.bit_length(), den.bit_length()) > 4 * digits + 64:
        gap = num.bit_length() - den.bit_length() - 1  # num/den > 2^gap
        e = max(0, digits - gap * (30102 if gap > 0 else 30103) // 100_000)
        q, r = divmod(num * 10**e, den)
        num, den = q * 10 + (r != 0), 10 ** (e + 1)
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
    primes: Sequence[int],
    pairs: list[tuple[int, int]],
    tail: Fraction,
    digits: int,
    bits: int | None = None,
) -> tuple[Decimal, ...]:
    """_decimals of the truncated product X of _below(s, k, p) over primes, then pairs.

    Certificate: lo and hi bound X_j 2^F, X_j the product of the first j
    steps, from 2^bits at F = bits; a step is a block of primes (one exact
    pair of _blocks) or one of `pairs`.  Each pair a/b takes lo to floor(lo
    2^t a/b), hi to ceil(hi 2^t a/b) and F to F + t, t = 0 unless lo would
    fall below 2^(bits-1), so each step moves an end at most one unit, under
    2^(1-bits) of it.  _decimals rounds monotonely, so when lo and hi give
    the same decimals, exponents included, X gives them too; if not, X is
    computed exactly: bits sets how often, never the result.  The default is
    3.33 bits a digit, 32 guard bits and the bit length of the count of
    primes and pairs (the drift stays 31 bits below the last digit), plus,
    with sieve primes (k <= s), s - bitlen(2^s - W(s, k, 2)) + 2, as 2^s -
    W(s, k, 2) is 2^s P[2 divides k or more of s]: the first block, holding
    2, takes hi 2 units or more below 2^F, and no step raises it; near 1 it
    would else stay an exact 1, which prints with another exponent than lo.
    A tie (0.64 = (3/4)(8/9)(24/25) at s = k = 2, P = 5, straddled at any
    width) runs _blocks again, since keeping the block pairs through the
    loop costs every call memory (9 MiB at s = k = 2, P = 10^7), and
    multiplies them with math.prod.  A given bits replaces the default.
    """
    if not bits:
        near_one = s - ((1 << s) - _weights(s, k, [1])[0]).bit_length() + 2 if primes else 0
        bits = -(-333 * digits // 100) + 32 + (len(primes) + len(pairs)).bit_length() + near_one
    lo = hi = 1 << bits
    scale, half = bits, 1 << (bits - 1)
    for a, b in chain(_blocks(s, k, primes), pairs):
        if (down := lo * a // b) < half:
            t = bits + b.bit_length() - (lo * a).bit_length()
            lo, hi, scale = lo << t, hi << t, scale + t
            down = lo * a // b
        lo, hi = down, -(-hi * a // b)
    low, high = (_decimals(end, 1 << scale, tail, digits) for end in (lo, hi))
    if repr(low) == repr(high):
        return low
    return _decimals(*map(prod, zip(*chain(_blocks(s, k, primes), pairs))), tail, digits)


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


def _capped_pairs(s: int, k: int, caps: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """_below(s, c + 1, p) / _below(s, k, p) per capped prime (p, c < k - 1), (p-1)^f cancelled."""
    for p, c in caps:
        if c < s:  # a cap of s or more is no cap: the ratio is 1
            (e, w), (f, v) = _below(s, c + 1, p), _below(s, k, p)
            yield (p - 1) ** (e - f) * w, v


def constraint_factor(s: int, k: int, i: int, u: int) -> Fraction:
    """Exact density correction for the i-wise-coprime-to-u condition.

    prod_{p|u} P[p divides fewer than i of s] / P[p divides fewer than k of
    s]: the probability that no prime of u divides i of the s values, given
    that none divides k: the pairs limiting_density multiplies in, at cap
    i - 1, reduced.  Depends only on the radical of u, and is 1 at u = 1.
    """
    s, k, i, u = _validate_factor_args(s, k, i, u)
    num = den = 1
    for a, b in _capped_pairs(s, k, [(p, i - 1) for p, _ in factorize(u)]):
        num, den = num * a, den * b
    return Fraction(num, den)


def constraint_factor_mobius(s: int, k: int, i: int, u: int) -> Fraction:
    """Mobius-sum route to the constraint factors, as its Euler product.

    The sum over squarefree d | u of mu(d) C(s,i)^omega(d) / prod_{p|d} w_p
    is multiplicative in d, so it equals prod_{p|u} (w_p - C(s,i)) / w_p.
    w_p = W(s, i + 1, p) is the w of _below(s, i + 1, p), p^s once i >= s;
    at i > s, C(s,i) = 0 leaves only d = 1, and the value is 1.  Independent
    of the product route: mobius_ratio_identity checks that it equals
    constraint_factor(s,k,i,u) / constraint_factor(s,k,i+1,u), with
    constraint_factor(s,k,k,u) = 1.
    """
    s, k, i, u = _validate_factor_args(s, k, i, u)
    c, weights = comb(s, i), [_below(s, i + 1, p)[1] for p, _ in factorize(u)]
    return Fraction(prod(w - c for w in weights), prod(weights))


def mobius_ratio_identity(s: int, k: int, u: int) -> list[tuple[int, Fraction, Fraction, bool]]:
    """Compare both routes to the constraint-factor ratios for every i.

    Returns (i, mobius-sum value, factor-ratio value, equal) for each i in
    1..k-1.  Exact rational comparison; any inequality is a real defect in
    one of the two routes, never a rounding artifact.  Each constraint
    factor is computed once and serves both ratios it appears in.  s, k
    and u are integers (a float is a TypeError), so every value is a
    Fraction of Python ints and every flag a Python bool.
    """
    s, k = _validate_order(s, k)
    u = operator.index(u)
    factors = [constraint_factor(s, k, i, u) for i in range(1, k)] + [Fraction(1)]
    out = []
    for i in range(1, k):
        lhs, rhs = constraint_factor_mobius(s, k, i, u), factors[i - 1] / factors[i]
        out.append((i, lhs, rhs, lhs == rhs))
    return out


def limiting_density(
    s: int,
    constraint: ConstraintVector,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    precision: int = DEFAULT_PRECISION,
) -> DensityEnclosure:
    """Enclosure of the limiting density of tuples satisfying a constraint.

    The k-wise Euler product times the pair of each prime the cap map caps,
    in one certified loop; the capped primes are finitely many, so the tail
    certificate is the bare product's.  s,
    prime_limit and precision are integers (a float is a TypeError), and a
    precision above MAX_PRECISION is refused with BudgetError before any work.
    """
    _check_constraint(constraint)
    s, k = _validate_order(s, constraint.k)
    prime_limit, precision = operator.index(prime_limit), operator.index(precision)
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    if precision > MAX_PRECISION:
        raise BudgetError(f"precision {precision} exceeds the limit of {MAX_PRECISION} digits")
    tail = tail_fraction(s, k, prime_limit)
    if tail >= 1:
        raise ValueError(
            f"tail bound {tail} is not below 1; raise prime_limit above {prime_limit}"
        )
    primes = _primes(prime_limit) if s >= k else ()
    pairs = list(_capped_pairs(s, k, _prime_caps(constraint.moduli)))
    tail_bound = _decimal_ratio(tail.numerator, tail.denominator, precision, ROUND_CEILING)
    return DensityEnclosure(
        *_interval_enclosure(s, k, primes, pairs, tail, precision), prime_limit, tail_bound
    )


def error_log_exponent(s: int, k: int) -> int:
    """Log exponent in the counting error term: max of C(s-1, i) over 1 <= i <= k-1."""
    s, k = _validate_order(s, k)
    return max(comb(s - 1, i) for i in range(1, k))
