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

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, prod
from typing import Iterable, Sequence

from .arith import BudgetError, factorize, sieve_primes

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


@dataclass(frozen=True)
class ConstraintVector:
    """Pairwise-coprime moduli (u_1, ..., u_{k-1}) attached to a tuple problem.

    Entry u_i demands that every i entries of a tuple have gcd coprime to
    u_i; the vector length fixes k, the order of the k-wise condition.
    Moduli equal to 1 impose nothing, so ``trivial(k)`` encodes a bare
    k-wise problem.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli = tuple(int(m) for m in self.moduli)
        object.__setattr__(self, "moduli", moduli)
        if not moduli:
            raise ConstraintError("constraint vector needs at least one modulus (k >= 2)")
        for i, m in enumerate(moduli, start=1):
            if m < 1:
                raise ConstraintError(f"modulus u_{i} must be a positive integer, got {m}")
        for a, b in combinations(range(len(moduli)), 2):
            g = gcd(moduli[a], moduli[b])
            if g != 1:
                raise ConstraintError(
                    f"moduli must be pairwise coprime: gcd(u_{a + 1}, u_{b + 1}) = {g} "
                    f"for u_{a + 1} = {moduli[a]}, u_{b + 1} = {moduli[b]}"
                )

    @property
    def k(self) -> int:
        return len(self.moduli) + 1

    @classmethod
    def trivial(cls, k: int) -> "ConstraintVector":
        if k < 2:
            raise ConstraintError(f"k must be at least 2, got {k}")
        return cls((1,) * (k - 1))


@dataclass(frozen=True)
class _RelaxedModuli:
    """Moduli vector without the pairwise-coprime requirement.

    The raw constraint shift produces components that may share primes; a
    prime appearing in several components is bound by the smallest cap.
    Kept as a separate type so code that relies on pairwise coprimality
    (all the density formulas) can never be handed one of these.
    """

    moduli: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.moduli) + 1


def _check_values(values: Sequence[int]) -> None:
    for v in values:
        if v < 1:
            raise ValueError(f"tuple entries must be positive integers, got {v}")


def _within_caps(entries: Iterable[Iterable[int]], caps: dict[int, int], default: int) -> bool:
    """The one per-prime cap evaluator, behind the predicates and the naive count.

    entries yields the distinct primes of each entry; a prime may
    divide at most caps.get(p, default) entries.  Stops at the first prime
    that goes over its cap.  The Monte Carlo sampler does not come here: it
    decides rows from gcds alone, as an independent route.
    """
    hits: dict[int, int] = {}
    for primes in entries:
        for p in primes:
            c = hits.get(p, 0) + 1
            if c > caps.get(p, default):
                return False
            hits[p] = c
    return True


def is_kwise_coprime(values: Sequence[int], k: int) -> bool:
    """True iff every k entries of `values` have gcd 1.

    Evaluated through the per-prime criterion: no prime divides k or more
    of the entries.  Vacuously true when fewer than k entries are given.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    _check_values(values)
    return _within_caps((factorize(v).primes() for v in values), {}, k - 1)


def is_kwise_coprime_to(values: Sequence[int], k: int, u: int) -> bool:
    """True iff every k entries of `values` have gcd coprime to u.

    Per-prime form: each prime dividing u divides fewer than k entries.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if u < 1:
        raise ValueError(f"modulus must be a positive integer, got {u}")
    _check_values(values)
    primes = factorize(u).primes()
    return _within_caps(([p for p in primes if v % p == 0] for v in values), {}, k - 1)


def satisfies_constraint(values: Sequence[int], constraint: ConstraintVector) -> bool:
    """Joint condition: k-wise coprime and i-wise coprime to each u_i."""
    _check_values(values)
    return _satisfies_caps(values, constraint.k, constraint.moduli)


def _prime_caps(moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The cap map: sorted (p, cap) pairs for the primes with a non-default cap.

    Primes absent from it carry the k-wise default of k - 1, where k - 1 =
    len(moduli).  A prime dividing u_i may divide at most i - 1 < k - 1
    entries, so every cap lies below the default; when moduli share a prime
    (relaxed vectors only) the smallest cap wins.  Canonical and hashable: the
    counting engine's input and verify_recursion's share key.
    """
    caps: dict[int, int] = {}
    for i, u in enumerate(moduli, start=1):
        for p in factorize(u).primes():
            caps[p] = min(i - 1, caps.get(p, i - 1))
    return tuple(sorted(caps.items()))


def _satisfies_caps(values: Sequence[int], k: int, moduli: tuple[int, ...]) -> bool:
    """Per-prime cap check; also valid for relaxed (non-coprime) moduli."""
    caps = dict(_prime_caps(moduli))
    return _within_caps((factorize(v).primes() for v in values), caps, k - 1)


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


def _count_mobius(s: int, k: int, caps: tuple[tuple[int, int], ...], n: int) -> int:
    """Exact count over [1, n]^s under the cap map `caps` (from _prime_caps).

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
    """
    cap_of = dict(caps)
    default = k - 1
    capped = [p for p, _ in caps if p <= n]
    # a prime on the default cap needs k entries, so below s = k only capped primes count
    primes = sieve_primes(n) if s >= k else capped
    last = capped[-1] if capped else 0
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def total(start: int, ms: tuple[int, ...]) -> int:
        key = (start, ms)
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
        memo[key] = out
        return out

    return total(0, (n,) * s if n > 1 else ())


def _count_caps(
    s: int,
    k: int,
    caps: tuple[tuple[int, int], ...],
    n: int,
    *,
    strategy: str = "signature",
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Counting core of count_tuples and verify_recursion, on a cap map from _prime_caps."""
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if strategy not in ("signature", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}, expected 'signature' or 'naive'")
    volume = n**s
    if volume > budget:
        raise BudgetError(
            f"enumeration volume n^s = {volume} exceeds the budget of {budget} cells"
        )
    if n == 0:
        return 0
    if strategy == "naive":
        cap_of = dict(caps)
        return sum(
            1
            for t in product(range(1, n + 1), repeat=s)
            if _within_caps((factorize(v).primes() for v in t), cap_of, k - 1)
        )
    return _count_mobius(s, k, caps, n)


def count_tuples(
    s: int,
    constraint: ConstraintVector,
    n: int,
    *,
    strategy: str = "signature",
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of tuples in [1, n]^s satisfying the constraint.

    The default "signature" strategy sums the Mobius expansion of the
    per-prime caps over squarefree divisor vectors (see _count_mobius);
    "naive" enumerates every tuple and evaluates the predicate, as a
    cross-check, both on the cap map derived here once.  Both refuse to start
    when n**s exceeds `budget`.  Counting is serial: `threads`, checked here,
    must be at least 1 and starts no workers.
    """
    if not isinstance(constraint, ConstraintVector):
        raise TypeError(f"constraint must be a ConstraintVector, got {type(constraint).__name__}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    caps = _prime_caps(constraint.moduli)
    return _count_caps(s, constraint.k, caps, n, strategy=strategy, budget=budget)
