"""Coprimality predicates and exact counting of constrained tuples.

A tuple of positive integers is k-wise coprime when every k of its entries
share no common factor.  That is equivalent to a per-prime rule: no prime
may divide k or more of the entries.  The same reshaping turns "every k
entries have gcd coprime to u" into "each prime dividing u divides fewer
than k entries".  All counting in this module runs on the per-prime form;
the subset-gcd form is kept to the test suite as an independent oracle.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

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
    """The one per-prime cap evaluator.

    entries yields the distinct primes of each entry; a prime may
    divide at most caps.get(p, default) entries.  Stops at the first prime
    that goes over its cap.
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


def _prime_caps(k: int, moduli: tuple[int, ...]) -> dict[int, int]:
    """Maximum multiplicity allowed for each prime with a non-default cap.

    Primes absent from the map carry the k-wise default of k - 1.  A prime
    dividing u_i may divide at most i - 1 entries; when moduli share a prime
    (relaxed vectors only) the smallest cap wins.
    """
    caps: dict[int, int] = {}
    for i, u in enumerate(moduli, start=1):
        for p in factorize(u).primes():
            caps[p] = min(i - 1, caps.get(p, i - 1))
    return {p: min(c, k - 1) for p, c in caps.items()}


def _satisfies_caps(values: Sequence[int], k: int, moduli: tuple[int, ...]) -> bool:
    """Per-prime cap check; also valid for relaxed (non-coprime) moduli."""
    return _within_caps((factorize(v).primes() for v in values), _prime_caps(k, moduli), k - 1)


def _spf_primes(v: int, spf: list[int]) -> Iterator[int]:
    """Distinct primes of v, read off the smallest-prime-factor table.

    Division by the smallest prime factor emits the primes in nondecreasing
    order, so skipping repeats of the last one leaves each prime once.
    """
    last = 0
    while v > 1:
        p = spf[v]
        if p != last:
            yield p
            last = p
        v //= p


def _hits_prime_caps(
    rows: list[list[int]], k: int, caps: dict[int, int], spf: list[int]
) -> int:
    """Rows within the caps: the Monte Carlo evaluator for wide tuples.

    Kept beside the cap evaluator so that the sampler calls into this
    module once per chunk of rows, not once per row; a per-row call across
    modules would put a trace span on every sample.
    """
    return sum(
        1 for row in rows if _within_caps((_spf_primes(v, spf) for v in row), caps, k - 1)
    )


class _MaskEngine:
    """Depth-first exact counter over [1, n]^s under per-prime caps.

    Each branch tracks how often every prime has been used by the fixed
    coordinates.  Once a prime reaches its cap, all remaining coordinates
    must avoid its multiples; the union of forbidden values is carried as a
    bitmask over [1, n] so the innermost coordinate costs one popcount
    instead of a scan.
    """

    def __init__(self, s: int, k: int, moduli: tuple[int, ...], n: int):
        self.s = s
        self.n = n
        caps = _prime_caps(k, moduli)
        primes = sieve_primes(n)
        self.allowed = [caps.get(p, k - 1) for p in primes]
        primes_of: list[tuple[int, ...]] = [()] * (n + 1)
        lists: list[list[int]] = [[] for _ in range(n + 1)]
        for idx, p in enumerate(primes):
            for m in range(p, n + 1, p):
                lists[m].append(idx)
        for v in range(1, n + 1):
            primes_of[v] = tuple(lists[v])
        self.primes_of = primes_of
        self._primes = primes
        self._masks: list[int | None] = [None] * len(primes)
        exc0 = 0
        for idx, cap in enumerate(self.allowed):
            if cap == 0:
                exc0 |= self._mask(idx)
        self._exc0 = exc0

    def _mask(self, idx: int) -> int:
        m = self._masks[idx]
        if m is None:
            p = self._primes[idx]
            m = 0
            for v in range(p, self.n + 1, p):
                m |= 1 << v
            self._masks[idx] = m
        return m

    def count(self, lo: int = 1, hi: int | None = None) -> int:
        """Tuples whose first coordinate lies in [lo, hi]."""
        if hi is None:
            hi = self.n
        if lo > hi or self.n == 0:
            return 0
        counts = [0] * len(self.allowed)
        return self._dfs(0, self._exc0, counts, lo, hi)

    def _dfs(self, level: int, exc: int, counts: list[int], lo: int, hi: int) -> int:
        if level == self.s - 1:
            span = hi - lo + 1
            blocked = ((exc >> lo) & ((1 << span) - 1)).bit_count()
            return span - blocked
        allowed = self.allowed
        primes_of = self.primes_of
        total = 0
        for v in range(lo, hi + 1):
            pf = primes_of[v]
            if any(counts[i] == allowed[i] for i in pf):
                continue
            new_exc = exc
            for i in pf:
                c = counts[i] + 1
                counts[i] = c
                if c == allowed[i]:
                    new_exc |= self._mask(i)
            total += self._dfs(level + 1, new_exc, counts, 1, self.n)
            for i in pf:
                counts[i] -= 1
        return total


def _count_single(k: int, moduli: tuple[int, ...], n: int) -> int:
    """s = 1 count by inclusion-exclusion over the zero-cap primes.

    Only primes capped at zero can forbid a single value, so the count is a
    Legendre-style sieve over their squarefree products.  Avoids building
    value tables for the large n that a one-dimensional budget allows.
    """
    zero = sorted(p for p, cap in _prime_caps(k, moduli).items() if cap == 0)
    total = 0
    for r in range(len(zero) + 1):
        for sub in combinations(zero, r):
            total += (-1) ** r * (n // prod(sub))
    return total


def _count_chunk(args: tuple[int, int, tuple[int, ...], int, int, int]) -> int:
    s, k, moduli, n, lo, hi = args
    return _MaskEngine(s, k, moduli, n).count(lo, hi)


def _count_caps(
    s: int,
    k: int,
    moduli: tuple[int, ...],
    n: int,
    *,
    strategy: str = "signature",
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Counting core shared by the public API and the relaxed internal path."""
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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
        return sum(
            1
            for t in product(range(1, n + 1), repeat=s)
            if _satisfies_caps(t, k, moduli)
        )
    if s == 1:
        return _count_single(k, moduli, n)
    if threads > 1 and n >= 64:
        chunks = min(threads * 4, n)
        bounds = [1 + (n * i) // chunks for i in range(chunks + 1)]
        jobs = [
            (s, k, moduli, n, bounds[i], bounds[i + 1] - 1)
            for i in range(chunks)
            if bounds[i] <= bounds[i + 1] - 1
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(_count_chunk, jobs))
    return _MaskEngine(s, k, moduli, n).count()


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

    The default "signature" strategy walks the tuple coordinates depth
    first, tracking per-prime multiplicities; "naive" enumerates every
    tuple and evaluates the predicate, as a cross-check.  Both refuse to
    start when n**s exceeds `budget`.  With threads > 1 the signature walk
    is partitioned over the first coordinate; counts are identical to the
    serial run.
    """
    if not isinstance(constraint, ConstraintVector):
        raise TypeError(f"constraint must be a ConstraintVector, got {type(constraint).__name__}")
    return _count_caps(
        s,
        constraint.k,
        constraint.moduli,
        n,
        strategy=strategy,
        threads=threads,
        budget=budget,
    )
