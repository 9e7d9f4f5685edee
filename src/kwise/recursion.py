"""Constraint shift operators and the counting recursion built on them.

Fixing the last coordinate j of an (s+1)-tuple problem leaves an s-tuple
problem whose moduli absorb j.  The raw shift is the direct absorption and
its components are generally not pairwise coprime; the reduced shift moves
the shared parts around until they are, without changing which tuples
count.  Verifying that both shifted counts match the direct (s+1)-count,
cell by cell, exercises every operator at once.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .arith import co_part, tight_part
from .coprime import (
    DEFAULT_BUDGET,
    ConstraintError,
    ConstraintVector,
    _check_constraint,
    _check_work,
    _count_caps,
    _prime_caps,
    count_tuples,  # not called here; bench/probes.py patches it by name
)

__all__ = [
    "RecursionReport",
    "reduce_constraint",
    "reduce_constraint_raw",
    "verify_recursion",
]


def reduce_constraint_raw(j: int, constraint: ConstraintVector) -> tuple[int, ...]:
    """Shift a fixed last coordinate j into the moduli, without cleanup.

    Component i becomes u_i * gcd(j, u_{i+1}) and the last becomes
    j * u_{k-1}.  The components usually violate pairwise coprimality, which
    is fine for counting: a prime in several components is simply bound by
    its smallest cap (_prime_caps).  So they come back as a plain tuple,
    which no entry that needs a ConstraintVector accepts.  Both shifts check
    j and the constraint here.
    """
    _check_constraint(constraint)
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    u = constraint.moduli
    g = gcd(j, u[0])
    if g != 1:
        raise ValueError(f"j must be coprime to u_1: gcd({j}, {u[0]}) = {g}")
    return (*(u[i] * gcd(j, u[i + 1]) for i in range(len(u) - 1)), j * u[-1])


def reduce_constraint(j: int, constraint: ConstraintVector) -> ConstraintVector:
    """Shift a fixed last coordinate j into the moduli, restoring coprimality.

    Counts the same tuples as the raw shift, and is the raw shift with the
    prime powers its components share divided out of all but the component
    with the tightest cap: component 1 stays (j is coprime to u_1), a middle
    component i loses tight_part(j, u_i), and the last loses
    tight_part(j, u_{k-1}) times the co_part(j, u_i) of i = 2..k-1.  Any
    inexact division or residual common factor means the operator
    definitions disagree, so both raise instead of patching.
    """
    comps = list(reduce_constraint_raw(j, constraint))
    u = constraint.moduli
    last = len(comps) - 1
    for i in (*range(1, last), last):
        den = tight_part(j, u[i])
        if i == last:
            for m in u[1:]:
                den *= co_part(j, m)
        if comps[i] % den:
            raise ArithmeticError(
                f"component {i + 1} of the reduced shift is not integral: {comps[i]}/{den}"
            )
        comps[i] //= den
    try:
        return ConstraintVector(tuple(comps))
    except ConstraintError as exc:
        raise ConstraintError(
            f"reduced shift of j = {j} into {u} is not pairwise coprime: {exc}"
        ) from exc


class RecursionReport(NamedTuple):
    """One verified cell of the counting recursion.

    lhs is the direct (s+1)-tuple count; rhs_reduced and rhs_raw sum the
    s-tuple counts over the last coordinate using the reduced and raw
    shifts.  All three must agree.
    """

    n: int
    lhs: int
    rhs_reduced: int
    rhs_raw: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs_reduced == self.rhs_raw


def _verify(
    s: int,
    constraint: ConstraintVector,
    ns: Iterable[int],
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[RecursionReport]:
    """One RecursionReport per n of `ns`, in order, from one sweep that keeps its work.

    Each n is checked by _check_work on its direct count, before any work at
    that n; n**(s+1) bounds every shifted count's n**s, so only the direct
    count carries the budget.  The direct cap map is derived once per sweep,
    and both shifts of each j, with their cap maps, once, when the sweep
    first reaches an n >= j.  Each distinct shifted cap map is counted once
    per n, whichever shift or j produced it: a second count would run the
    same deterministic engine on identical caps and could not disagree with
    the first, so sharing it gives up no check.  Every count, direct and
    shifted, shares one engine memo, scoped to this sweep (one k) and bounded
    by coprime.MAX_MEMO_STATES, so a count reuses the states of counts at
    other n and at the other s (see _count_caps for its key).
    """
    _check_constraint(constraint)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    k = constraint.k
    u1 = constraint.moduli[0]
    direct = _prime_caps(constraint.moduli)
    # (reduced, raw) cap maps of j = 1, 2, ...; None where j shares a factor with u_1
    shifts: list[tuple | None] = []
    memo: dict = {}
    for n in ns:
        # every count runs on the Python ints that the check returns
        s1, n = _check_work(s + 1, n, threads, budget)
        s = s1 - 1
        lhs = _count_caps(s1, k, direct, n, memo=memo)
        for j in range(len(shifts) + 1, n + 1):
            if gcd(j, u1) != 1:
                shifts.append(None)
                continue
            reduced = _prime_caps(reduce_constraint(j, constraint).moduli)
            raw = _prime_caps(reduce_constraint_raw(j, constraint))
            shifts.append((reduced, raw))
        pairs = [pair for pair in shifts[:n] if pair is not None]
        maps = dict.fromkeys(caps for pair in pairs for caps in pair)
        counts = {caps: _count_caps(s, k, caps, n, memo=memo) for caps in maps}
        rhs_reduced = sum(counts[reduced] for reduced, _ in pairs)
        rhs_raw = sum(counts[raw] for _, raw in pairs)
        yield RecursionReport(n=n, lhs=lhs, rhs_reduced=rhs_reduced, rhs_raw=rhs_raw)


def verify_recursion(
    s: int,
    constraint: ConstraintVector,
    n: int,
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> RecursionReport:
    """Check the recursion lowering an (s+1)-tuple count to s-tuple counts.

    Sums over the last coordinate j in [1, n]; values of j sharing a factor
    with u_1 contribute nothing (the pair j, u_1 alone would violate the
    constraint) and are skipped.  Exact integer comparison throughout.

    This is the sweep of _verify over the single n; the verify-recursion
    command runs that sweep over n = 1..N, so the two share one code path.
    """
    return next(_verify(s, constraint, (n,), threads=threads, budget=budget))
