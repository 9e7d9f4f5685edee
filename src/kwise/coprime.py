"""Coprimality predicates and exact counting of constrained tuples.

A tuple of positive integers is k-wise coprime when every k of its entries
share no common factor.  That is equivalent to a per-prime rule: no prime
may divide k or more of the entries.  The same reshaping turns "every k
entries have gcd coprime to u" into "each prime dividing u divides fewer
than k entries".  All counting in this module runs on the per-prime form;
the Monte Carlo sampler in stats checks a gcd form instead, and the
subset-gcd form is kept to the test suite as an independent oracle.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, prod
from typing import Iterable, Sequence

from .arith import BudgetError, Factorization, _primes, factorize

__all__ = [
    "BudgetError",
    "ConstraintError",
    "ConstraintVector",
    "DEFAULT_BUDGET",
    "count_tuples",
    "is_kwise_coprime",
    "is_kwise_coprime_to",
    "satisfies_constraint",
]

DEFAULT_BUDGET = 200_000_000


class ConstraintError(ValueError):
    """Raised when a constraint vector is malformed."""


class ConstraintVector:
    """Pairwise-coprime moduli (u_1, ..., u_{k-1}) attached to a tuple problem.

    Entry u_i demands that every i entries of a tuple have gcd coprime to
    u_i; the vector length fixes k, the order of the k-wise condition.
    Moduli equal to 1 impose nothing, so ``trivial(k)`` encodes a bare
    k-wise problem.  Immutable: moduli is read-only, and equality and hash
    go by moduli.
    """

    __slots__ = ("_moduli",)

    def __init__(self, moduli: tuple[int, ...]) -> None:
        checked = []
        for i, m in enumerate(moduli, start=1):
            try:
                m = operator.index(m)
            except TypeError:
                raise TypeError(f"modulus u_{i} must be an integer, got {m!r}") from None
            if m < 1:
                raise ConstraintError(f"modulus u_{i} must be a positive integer, got {m}")
            checked.append(m)
        if not checked:
            raise ConstraintError("constraint vector needs at least one modulus (k >= 2)")
        # gcd(1, m) = 1, so only the moduli above 1 can share a factor, and one
        # gcd with the product of the earlier ones finds whether any pair does
        above = [i for i, m in enumerate(checked) if m != 1]
        earlier = checked[above[0]] if above else 1
        for b in above[1:]:
            if gcd(earlier, checked[b]) != 1:
                # name the first pair in (a, b) order, as a scan of every pair finds it
                g, a, b = next((g, a, b) for a, b in combinations(above, 2)
                               if (g := gcd(checked[a], checked[b])) != 1)
                raise ConstraintError(
                    f"moduli must be pairwise coprime: gcd(u_{a + 1}, u_{b + 1}) = {g} "
                    f"for u_{a + 1} = {checked[a]}, u_{b + 1} = {checked[b]}"
                )
            earlier *= checked[b]
        self._moduli = tuple(checked)

    @property
    def moduli(self) -> tuple[int, ...]:
        return self._moduli

    def __repr__(self) -> str:
        return f"ConstraintVector(moduli={self._moduli!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._moduli == other._moduli

    def __hash__(self) -> int:
        return hash((self._moduli,))

    @property
    def k(self) -> int:
        return len(self.moduli) + 1

    @classmethod
    def trivial(cls, k: int) -> "ConstraintVector":
        if k < 2:
            raise ConstraintError(f"k must be at least 2, got {k}")
        return cls((1,) * (k - 1))


def _check_constraint(constraint: object) -> None:
    """Refuse anything but a ConstraintVector, before any of its fields is read."""
    if not isinstance(constraint, ConstraintVector):
        raise TypeError(f"constraint must be a ConstraintVector, got {type(constraint).__name__}")


def _check_values(values: Sequence[int]) -> None:
    for v in values:
        if v < 1:
            raise ValueError(f"tuple entries must be positive integers, got {v}")


def _within_caps(entries: Iterable[Factorization], caps: dict[int, int], default: int) -> bool:
    """The one per-prime cap evaluator, behind the three predicates.

    entries yields the factorization, (p, e) pairs, of each entry or of the
    part of it that matters; a prime may divide at most caps.get(p, default)
    entries, whatever its exponents.  Stops at the first prime that goes
    over its cap.  The Monte Carlo sampler does not come here: it decides
    rows from gcds alone, as an independent route.
    """
    hits: dict[int, int] = {}
    for pairs in entries:
        for p, _ in pairs:
            c = hits.get(p, 0) + 1
            if c > caps.get(p, default):
                return False
            hits[p] = c
    return True


def is_kwise_coprime(values: Sequence[int], k: int) -> bool:
    """True iff every k entries of `values` have gcd 1.

    Evaluated through the per-prime criterion: no prime divides k or more
    of the entries.  Vacuously true when fewer than k entries are given.
    k is an integer (a float is a TypeError).
    """
    k = operator.index(k)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    _check_values(values)
    return _within_caps(map(factorize, values), {}, k - 1)


def is_kwise_coprime_to(values: Sequence[int], k: int, u: int) -> bool:
    """True iff every k entries of `values` have gcd coprime to u.

    Per-prime form: each prime dividing u divides fewer than k entries.
    k and u are integers (a float is a TypeError).
    """
    k, u = operator.index(k), operator.index(u)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if u < 1:
        raise ValueError(f"modulus must be a positive integer, got {u}")
    _check_values(values)
    pairs = factorize(u)
    return _within_caps(([(p, e) for p, e in pairs if v % p == 0] for v in values), {}, k - 1)


def satisfies_constraint(values: Sequence[int], constraint: ConstraintVector) -> bool:
    """Joint condition: k-wise coprime and i-wise coprime to each u_i."""
    _check_constraint(constraint)
    _check_values(values)
    caps = dict(_prime_caps(constraint.moduli))
    return _within_caps(map(factorize, values), caps, constraint.k - 1)


def _prime_caps(moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The cap map: sorted (p, cap) pairs for the primes with a non-default cap.

    Primes absent from it carry the k-wise default of k - 1, where k - 1 =
    len(moduli).  A prime dividing u_i may divide at most i - 1 < k - 1
    entries, so every cap lies below the default; when moduli share a prime,
    as the plain-tuple components of a raw shift may, the smallest cap wins.
    Canonical and hashable: the counting engine's input and verify_recursion's
    share key.
    """
    caps: dict[int, int] = {}
    for i, u in enumerate(moduli, start=1):
        for p, _ in factorize(u):
            caps[p] = min(i - 1, caps.get(p, i - 1))
    return tuple(sorted(caps.items()))


@lru_cache(maxsize=1 << 12)
def _picks(sizes: tuple[int, ...], cap: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(count taken from each group, weight) for every choice of more than cap coordinates.

    The weight is h(t) = (-1)^(t-cap) C(t-1, cap) for t coordinates in all,
    times the ways to take them from groups of sizes[g] equal coordinates.
    """
    return tuple(
        (a, (-1) ** (t - cap) * comb(t - 1, cap) * prod(map(comb, sizes, a)))
        for a in product(*(range(r + 1) for r in sizes))
        if (t := sum(a)) > cap
    )


# states one memo holds before it is cleared: one count at the default budget
# visits at most a few thousand, and a verify-recursion sweep reuses states
# mostly across nearby n.  The largest sweep the default budget admits took,
# on 2 vCPUs, 7-9 s and 22 MB at this cap, 7 s and 90 MB unbounded, and
# 17 s and 18 MB with a memo per count
MAX_MEMO_STATES = 1 << 14


def _count_caps(
    s: int, k: int, caps: tuple[tuple[int, int], ...], n: int, memo: dict | None = None
) -> int:
    """Exact count over [1, n]^s under the cap map `caps` (from _prime_caps).

    The one counting engine.  It checks nothing: each request checks its
    counts first (_check_work) and derives its cap map once.  At n = 0 the
    walk finds no prime and returns 0**s = 0.

    A prime p with cap c allows at most c entries divisible by it.  Over the
    coordinates T it divides, that indicator expands into weights h(|T|) with
    h(0) = 1, h(t) = 0 for 0 < t <= c and h(t) = (-1)^(t-c) C(t-1, c) above,
    so the count is the sum over per-prime choices of T of
    prod_p h(|T_p|) * prod_i floor(n / d_i), d_i the product of the primes
    whose T_p holds i.  Only floor(n / d_i) matters further down, since
    floor(floor(n / d) / p) = floor(n / dp), so, as in Deleglise and Rivat's
    blocking of the Mobius summation, a state is the prime to choose next and
    the sorted values floor(n / d_i) above 1 (a coordinate at 1 can take no
    prime and multiplies by 1).  The sum is symmetric in the coordinates, so
    states are memoised and a prime's choices are counts taken from each group
    of equal values, weighted by binomials (_picks, shared by every call).
    A prime needs c + 1 coordinates with floor(n / d_i) >= p; past the last
    capped prime, the first prime short of k of them ends the walk, since
    larger primes have fewer still.

    A state's value is the number of tuples with x_i <= m_i, m its sorted
    values, under the caps of the primes from its next prime p0 up to
    max(m), so the memo key names exactly those: m, the capped (p, cap)
    pairs with p0 <= p <= max(m), and p0 itself when m holds k or more
    values, since the default-cap primes of [p0, max(m)] then act too (with
    fewer than k values none can).  The key holds no n, no s and no cap
    map, so counts at other n, other s or under other cap maps reuse each
    other's states when `memo` is passed in; its values carry the default
    cap k - 1, so a memo serves one k only.  Without `memo` the count keeps
    its own.  The memo is cleared when it holds MAX_MEMO_STATES states.
    """
    cap_of = dict(caps)
    default = k - 1
    capped = [p for p, _ in caps if p <= n]
    # a prime on the default cap needs k entries, so below s = k only capped primes count
    primes = _primes(n) if s >= k else capped
    if not primes:
        return n**s
    last = capped[-1] if capped else 0
    if memo is None:
        memo = {}

    def total(start: int, ms: tuple[int, ...]) -> int:
        p0 = primes[start]
        top = ms[-1]
        key = (
            ms,
            caps[bisect_left(capped, p0) : bisect_right(capped, top)],
            p0 if len(ms) >= k else 0,
        )
        out = memo.get(key)
        if out is not None:
            return out
        out = prod(ms)
        for j in range(start, len(primes)):
            p = primes[j]
            lo = bisect_left(ms, p)
            cap = cap_of.get(p, default)
            if len(ms) - lo <= cap:
                if lo == len(ms) or p > last:
                    break
                continue
            nxt = primes[j + 1] if j + 1 < len(primes) else n + 1
            values = sorted(set(ms[lo:]))
            sizes = tuple(map(ms.count, values))
            for taken, weight in _picks(sizes, cap):
                child = list(ms[:lo])
                for v, r, a in zip(values, sizes, taken):
                    child += [v] * (r - a)
                    if v // p > 1:
                        child += [v // p] * a
                child.sort()
                # no later prime fits under the largest value: the walk ends here
                if not child or child[-1] < nxt:
                    out += weight * prod(child)
                else:
                    out += weight * total(j + 1, tuple(child))
        if len(memo) >= MAX_MEMO_STATES:
            memo.clear()
        memo[key] = out
        return out

    return total(0, (n,) * s)


def _check_work(s: int, n: int, threads: int, budget: int) -> tuple[int, int]:
    """Refuse a count over [1, n]^s before any work: bad arguments, or n**s above `budget`.

    The one check of every exact count: count_tuples, each direct count of a
    verify-recursion sweep (whose command checks the largest before the
    first) and each entry of a convergence grid.  Integers only, threads
    included (a float is a TypeError); returns s and n as Python ints, on
    which n**s cannot wrap.  For n >= 2, n**s >= 2^((bit_length(n) - 1) * s)
    refuses a volume past the budget's bit length before n**s is built, so
    the exact comparison only ever builds a power of about twice the
    budget's size; the message names the volume as n^s, never its digits,
    and an integer past 2048 bits (617 digits; Python's int-to-str limit is
    at least 640) by its bit length.
    """
    s, n, threads, budget = map(operator.index, (s, n, threads, budget))
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if n >= 2 and (n.bit_length() - 1) * s > budget.bit_length() or n**s > budget:
        n, s, budget = (x if x.bit_length() <= 2048 else f"({x.bit_length()}-bit integer)"
                        for x in (n, s, budget))
        raise BudgetError(f"enumeration volume n^s = {n}^{s} exceeds the budget of {budget} cells")
    return s, n


def count_tuples(
    s: int,
    constraint: ConstraintVector,
    n: int,
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of tuples in [1, n]^s satisfying the constraint.

    The entry for a single count: the Mobius-expansion engine (_count_caps),
    with a memo of its own, on the cap map derived here.  _check_work refuses
    it first unless s and n are integers and n**s is within a nonnegative
    `budget`; `threads` must be at least 1 and starts no workers.
    """
    _check_constraint(constraint)
    s, n = _check_work(s, n, threads, budget)
    return _count_caps(s, constraint.k, _prime_caps(constraint.moduli), n)
