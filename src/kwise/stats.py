"""Convergence diagnostics and Monte Carlo estimation.

The exact counts converge to density * n^s with an error of order
n^(s-1) * log(n)^d for a small exponent d; convergence_table reports the
raw and normalized errors over an n-grid so that trend is visible.

The Monte Carlo estimator samples uniform tuples from a finite box and
decides each one from gcds alone, for every s, with no factorization or
table, which makes it an independent statistical cross-check of the exact
machinery.  One gcd recurrence of order k decides every row: a prime may
divide k - 1 entries, and a prime of u_i, which may divide only i - 1,
enters it k - i levels up, seeded by gcd(x, u_i).  A tuple fails as soon
as one prime goes over its cap, so the evaluator spends its work only on
the rows that are still open: a parity pass first drops the rows that the
prime 2 already decides, and each column of the recurrence then drops the
rows that fail there.  Both steps remove only rows that some prime has
already made fail, and the rows they keep are decided by the full
recurrence, so the hit count is exactly the number of satisfying rows.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .coprime import (
    DEFAULT_BUDGET,
    BudgetError,
    ConstraintVector,
    _check_constraint,
    _check_work,
    _count_caps,
    _prime_caps,
)
from .density import DEFAULT_PRIME_LIMIT, error_log_exponent, limiting_density

# numpy is imported inside the sampling functions: only `mc` needs it, and
# every other command would otherwise pay for its import at start-up
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CountReport",
    "MonteCarloEstimate",
    "convergence_table",
    "monte_carlo",
]

# one chunk holds at most _CHUNK_ROWS rows and _CHUNK_CELLS entries (a wider row
# is refused), so memory does not grow with s; every s <= 16 draws full-height chunks
_CHUNK_ROWS = 1 << 16
_CHUNK_CELLS = 1 << 20


class CountReport(NamedTuple):
    """Exact count at one n against the density prediction.

    normalized_error divides the absolute error by n^(s-1) * log(n)^d with
    d = error_log_exponent(s, k); a bounded, non-growing sequence of these
    over a geometric grid is what convergence at the expected rate looks
    like.  At n = 1 the normalization is degenerate: it is 1 when d = 0 and
    otherwise the report carries infinity for a nonzero error.
    """

    n: int
    count: int
    predicted: float
    abs_error: float
    normalized_error: float


class MonteCarloEstimate(NamedTuple):
    """Sampled estimate of the constraint density on [1, range_n]^s."""

    samples: int
    hits: int
    estimate: float
    std_error: float
    seed: int
    range_n: int


def convergence_table(
    s: int,
    constraint: ConstraintVector,
    n_grid: Sequence[int],
    *,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> list[CountReport]:
    """Exact counts over an n-grid, each compared to the density prediction.

    Every grid entry is checked (_check_work), in grid order, before the
    density or any count is computed, so an over-budget entry is refused
    before any work.  The counts share one cap map and one engine memo.
    The prediction is a float, so it reads the density at the default
    density.DEFAULT_PRECISION digits, far more than a float holds.
    """
    grid = list(n_grid)
    if not grid:
        raise ValueError("n_grid must contain at least one value")
    for n in grid:
        if n < 1:
            raise ValueError(f"grid entries must be positive integers, got {n}")
    for i, n in enumerate(grid):
        s, grid[i] = _check_work(s, n, threads, budget)
    enclosure = limiting_density(s, constraint, prime_limit)
    density = float(enclosure.point)
    k = constraint.k
    d = error_log_exponent(s, k)
    caps, memo, out = _prime_caps(constraint.moduli), {}, []
    for n in grid:
        count = _count_caps(s, k, caps, n, memo=memo)
        predicted = density * float(n) ** s
        abs_error = abs(count - predicted)
        denom = float(n) ** (s - 1) * math.log(n) ** d
        if denom == 0.0:
            normalized = 0.0 if abs_error == 0.0 else math.inf
        else:
            normalized = abs_error / denom
        out.append(
            CountReport(
                n=n,
                count=count,
                predicted=predicted,
                abs_error=abs_error,
                normalized_error=normalized,
            )
        )
    return out


def _no_prime_on(cols: np.ndarray, k: int, live: np.ndarray, seeds: tuple[int, ...]) -> np.ndarray:
    """The rows of live in which no prime reaches level k - 1.

    A prime seeded at level e stands at level e + c - 1 once it divides c
    columns; seeds[j - 1] carries the primes seeded at level j or higher,
    and none is seeded above d = len(seeds).  A prime that reaches level
    k - 1 is caught at the last column m it needs.  Walking the earlier
    columns y, shared[j] is the part of column m whose primes stand at level
    j or higher: it starts as gcd(column m, seeds[j - 1]), or 1 above d, and
    since gcd intersects prime supports and lcm unites them, y lifts
    gcd(shared[j-1], y) into shared[j], with j taken downwards so that y
    counts once.  Level k - 1 is only tested, never stored: its seed as
    shared[k-1] != 1, and each y as gcd(shared[k-2], y) != 1.  After i
    earlier columns every level above i + d is still 1, and a prime below
    level k - 1 - (m - i) cannot reach k - 1 in the m - i columns left, so
    neither is updated or seeded.  Every value divides an entry of the row,
    so int64 stays exact; gcds with a seed of 2^63 or more run on Python ints.

    A row with such a prime fails whatever the later columns hold, so the
    rows that fail at column m leave live before column m + 1: the later
    columns are gathered through live and only for the rows still open, and
    the walk ends once no row is.
    """
    import numpy as np

    top, d = k - 1, len(seeds)
    for m in range(max(top - d, 0), cols.shape[1]):
        if not len(live):
            break
        x = cols[live, m]
        low = max(top - m, 1)
        found = {
            u: np.gcd(x if u < 2**63 else x.astype(object), u).astype(np.int64, copy=False)
            for u in set(seeds[low - 1 :])
        }
        shared = [x] + [found.get(u, 1) for u in seeds] + [1] * (top - d)
        bad = np.zeros(len(live), dtype=bool) | (shared[top] != 1)
        for i in range(m):
            y = cols[live, i]
            if i >= top - 1 - d:
                bad |= np.gcd(shared[top - 1], y) != 1
            for j in range(min(top - 1, i + 1 + d), max(top - m + i, 0), -1):
                shared[j] = np.lcm(shared[j], np.gcd(shared[j - 1], y))
        live = live[~bad]
    return live


def _hits(rows: np.ndarray, k: int, moduli: tuple[int, ...]) -> int:
    """Rows satisfying the constraint, decided from gcds alone by one walk of order k.

    A prime may divide at most k - 1 entries, and a prime of u_i at most
    i - 1, so _no_prime_on seeds it at level k - i.  Level j is seeded with
    the product of the u_i with 2 <= i <= k - j: they are pairwise coprime,
    so its gcd with x is the product of the gcd(x, u_i).  An order above s
    holds for every row of s entries, so the walk has order at most s + 1,
    and a modulus at an order above s seeds nothing.

    Two passes over the columns decide some primes before the walk.  The
    prime 2 is decided by parity: it fails at k entries, and at i entries
    for an even u_i, so a row with at least lim = min(k, each such i) even
    entries fails.  A prime of u_1 may divide no entry, so a row with an
    entry that shares a factor with u_1 fails, and u_1 seeds no level of the
    walk, where a seed at level k - 1 would lift every level at every
    earlier column.  Dropping those rows loses no passing row, and the walk
    still sees 2 in the rows that remain, so every verdict is exact.
    """
    import numpy as np

    n, s = rows.shape
    lim = min([k] + [i for i, u in enumerate(moduli, start=1) if u % 2 == 0])
    if lim <= s:
        evens = np.zeros(n, dtype=np.min_scalar_type(s))
        low = np.empty(n, dtype=np.int64)
        for m in range(s):
            np.bitwise_and(rows[:, m], 1, out=low)
            evens += low == 0
        live = np.flatnonzero(evens < lim)
    else:
        live = np.arange(n)
    u1 = moduli[0]
    if u1 != 1:
        for m in range(s):
            x = rows[live, m]
            live = live[np.gcd(x if u1 < 2**63 else x.astype(object), u1) == 1]
    # level j's seed is the product u_2 ... u_{k-j}; past the deepest u_i != 1 it is 1
    k = min(k, s + 1)
    seeds = tuple(u for u in reversed(list(accumulate(moduli[1 : k - 1], operator.mul))) if u != 1)
    return len(_no_prime_on(rows, k, live, seeds))


def monte_carlo(
    s: int,
    constraint: ConstraintVector,
    range_n: int,
    samples: int,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Estimate the density of satisfying tuples in [1, range_n]^s by sampling.

    Fully deterministic for a given (seed, samples): one PCG64 generator
    seeded with seed draws the rows in chunks of min(_CHUNK_ROWS,
    _CHUNK_CELLS // s) rows.  Every argument is checked before numpy is
    imported: s, range_n, samples and seed take integers only (a float is
    a TypeError), and an s above _CHUNK_CELLS, a row wider than a chunk,
    raises BudgetError.
    """
    _check_constraint(constraint)
    s, range_n, samples, seed = map(operator.index, (s, range_n, samples, seed))
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if s > _CHUNK_CELLS:
        raise BudgetError(f"s = {s} exceeds the sampler's row limit of {_CHUNK_CELLS} entries")
    if not 1 <= range_n < 2**63:
        raise ValueError(f"range_n must lie in [1, 2^63 - 1] (int64 draws), got {range_n}")
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    chunk = min(_CHUNK_ROWS, _CHUNK_CELLS // s)
    hits, remaining = 0, samples
    while remaining:
        take = min(chunk, remaining)
        rows = rng.integers(1, range_n, size=(take, s), dtype=np.int64, endpoint=True)
        hits += _hits(rows, constraint.k, constraint.moduli)
        remaining -= take
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return MonteCarloEstimate(
        samples=samples,
        hits=hits,
        estimate=estimate,
        std_error=std_error,
        seed=seed,
        range_n=range_n,
    )
