"""Constraint shift operators and the counting recursion built on them.

Fixing the last coordinate j of an (s+1)-tuple problem leaves an s-tuple
problem whose moduli absorb j.  The raw shift is the direct absorption and
its components are generally not pairwise coprime; the reduced shift moves
the shared parts around until they are, without changing which tuples
count.  Verifying that both shifted counts match the direct (s+1)-count,
cell by cell, exercises every operator at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import co_part, tight_part
from .coprime import (
    DEFAULT_BUDGET,
    ConstraintError,
    ConstraintVector,
    _count_caps,
    _prime_caps,
    _RelaxedModuli,
    count_tuples,
)

__all__ = [
    "RecursionReport",
    "reduce_constraint",
    "reduce_constraint_raw",
    "verify_recursion",
]


def _check_shift_args(j: int, constraint: ConstraintVector) -> None:
    if not isinstance(constraint, ConstraintVector):
        raise TypeError(
            f"constraint must be a ConstraintVector, got {type(constraint).__name__}"
        )
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    g = gcd(j, constraint.moduli[0])
    if g != 1:
        raise ValueError(
            f"j must be coprime to u_1: gcd({j}, {constraint.moduli[0]}) = {g}"
        )


def reduce_constraint_raw(j: int, constraint: ConstraintVector) -> _RelaxedModuli:
    """Shift a fixed last coordinate j into the moduli, without cleanup.

    Component i becomes u_i * gcd(j, u_{i+1}) and the last becomes
    j * u_{k-1}.  The result usually violates pairwise coprimality, which
    is fine for counting: a prime in several components is simply bound by
    its smallest cap.
    """
    _check_shift_args(j, constraint)
    u = constraint.moduli
    k = constraint.k
    comps = [u[i] * gcd(j, u[i + 1]) for i in range(k - 2)]
    comps.append(j * u[k - 2])
    return _RelaxedModuli(tuple(comps))


def reduce_constraint(j: int, constraint: ConstraintVector) -> ConstraintVector:
    """Shift a fixed last coordinate j into the moduli, restoring coprimality.

    Counts the same tuples as the raw shift: each prime power that the raw
    components share is divided out of all but the component with the
    tightest cap.  Any inexact division or residual common factor means the
    operator definitions disagree, so both raise instead of patching.
    """
    _check_shift_args(j, constraint)
    u = constraint.moduli
    k = constraint.k
    comps = []
    if k >= 3:
        comps.append(u[0] * gcd(j, u[1]))
    for i in range(2, k - 1):
        num = u[i - 1] * gcd(j, u[i])
        den = tight_part(j, u[i - 1])
        if num % den:
            raise ArithmeticError(
                f"component {i} of the reduced shift is not integral: {num}/{den}"
            )
        comps.append(num // den)
    den = tight_part(j, u[k - 2])
    for i in range(1, k - 1):
        den *= co_part(j, u[i])
    num = j * u[k - 2]
    if num % den:
        raise ArithmeticError(
            f"component {k - 1} of the reduced shift is not integral: {num}/{den}"
        )
    comps.append(num // den)
    try:
        return ConstraintVector(tuple(comps))
    except ConstraintError as exc:
        raise ConstraintError(
            f"reduced shift of j = {j} into {u} is not pairwise coprime: {exc}"
        ) from exc


@dataclass(frozen=True)
class RecursionReport:
    """One verified cell of the counting recursion.

    lhs is the direct (s+1)-tuple count; rhs_reduced and rhs_raw sum the
    s-tuple counts over the last coordinate using the reduced and raw
    shifts.  All three must agree.
    """

    s: int
    k: int
    n: int
    moduli: tuple[int, ...]
    lhs: int
    rhs_reduced: int
    rhs_raw: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs_reduced == self.rhs_raw


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

    The s-tuple counts are shared: each shift's cap map (_prime_caps) is
    derived once and serves both as the key of the shared counts and as the
    counting engine's input, so each distinct cap map is counted once per
    call, whichever shift or j produced it.  The reduced and the raw shift of
    one j are looked up separately, and counted separately when their maps
    differ.  When the maps agree, a second count would run the same
    deterministic engine on identical caps and could not disagree with the
    first, so sharing it gives up no check.
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    k = constraint.k
    lhs = count_tuples(s + 1, constraint, n, threads=threads, budget=budget)
    counts: dict[tuple[tuple[int, int], ...], int] = {}

    def shifted_count(moduli: tuple[int, ...]) -> int:
        caps = _prime_caps(moduli)
        if caps not in counts:
            counts[caps] = _count_caps(s, k, caps, n, budget=budget)
        return counts[caps]

    rhs_reduced = 0
    rhs_raw = 0
    u1 = constraint.moduli[0]
    for j in range(1, n + 1):
        if gcd(j, u1) != 1:
            continue
        rhs_reduced += shifted_count(reduce_constraint(j, constraint).moduli)
        rhs_raw += shifted_count(reduce_constraint_raw(j, constraint).moduli)
    return RecursionReport(
        s=s,
        k=k,
        n=n,
        moduli=constraint.moduli,
        lhs=lhs,
        rhs_reduced=rhs_reduced,
        rhs_raw=rhs_raw,
    )
