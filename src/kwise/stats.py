"""Convergence diagnostics and Monte Carlo estimation.

The exact counts converge to density * n^s with an error of order
n^(s-1) * log(n)^d for a small exponent d; convergence_table reports the
raw and normalized errors over an n-grid so that trend is visible.

The Monte Carlo estimator samples uniform tuples from a finite box and
decides each one from gcds alone, for every s, with no factorization or
table, which makes it an independent statistical cross-check of the exact
machinery.  One gcd walk per cap decides every row: a prime of u_i may
divide at most i - 1 entries and any other prime at most k - 1, so the
columns are walked once at order i with the primes of each u_i != 1 and
once at order k with every prime.  A walk counts the entries each prime
divides in levels that exist only once some row reaches them, so its work
follows the primes that recur.  A tuple fails as soon as one prime goes
over its cap, so the evaluator works only on the rows still open: a parity
pass first drops the rows that the prime 2 already decides, and each
column of each walk then drops the rows that fail there.
"""

from __future__ import annotations

import math
import operator
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
# is refused): 4 MiB of int32 or 8 MiB of int64, and monte_carlo holds one at a
# time, so memory does not grow with s; every s <= 64 draws full-height chunks,
# and a chunk of int32 rows at s = 10 is 640 KiB
_CHUNK_ROWS = 1 << 14
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


def _no_prime_on(cols: np.ndarray, k: int, live: np.ndarray, u: int = 0) -> np.ndarray:
    """The rows of live in which no prime of u divides k entries (any prime if u = 0).

    Such a prime is caught at the last column m it needs, where it divides
    x = gcd(column m, u), and gcd(column m, 0) is the column itself.  Walking
    the earlier columns y, shared[j] is the part of x whose primes divide j
    of them, and a level exists only once some live row holds a value other
    than 1 there: shared[0] is x, and y lifts gcd(shared[j-1], y) into
    shared[j], by lcm into a level that exists and as a new level otherwise,
    with j taken downwards so that y counts once.  A prime below level
    k - m + i after column i cannot reach k - 1 in the columns left, so only
    the levels from there up are lifted, and once no level is that high,
    column m is decided: a row fails where shared[k - 1] != 1.  Every value
    divides an entry of the row, so the columns' own dtype stays exact; gcds
    with a u of 2^63 or more run on Python ints.

    A row with such a prime fails whatever the later columns hold, so the
    rows that fail at column m leave live before column m + 1: the later
    columns are gathered through live and only for the rows still open, and
    the walk ends once no row is.
    """
    import numpy as np

    for m in range(k - 1, cols.shape[1]):
        if not len(live):
            break
        x = cols[live, m]
        if u:
            x = np.gcd(x if u < 2**63 else x.astype(object), u).astype(cols.dtype, copy=False)
        shared = [x] if (x != 1).any() else []
        for i in range(m):
            levels = range(min(len(shared), k - 1), max(k - m + i, 1) - 1, -1)
            if not levels:
                break
            y = cols[live, i]
            for j in levels:
                z = np.gcd(shared[j - 1], y)
                if j < len(shared):
                    shared[j] = np.lcm(shared[j], z)
                elif (z != 1).any():
                    shared.append(z)
        if len(shared) == k:
            live = live[shared[k - 1] == 1]
    return live


def _hits(rows: np.ndarray, k: int, moduli: tuple[int, ...]) -> int:
    """Rows satisfying the constraint, decided from gcds alone.

    A prime of u_i may divide at most i - 1 entries and any other prime at
    most k - 1, so _no_prime_on walks once at order i for each u_i != 1 and
    once at order k for every prime.  Each walk only drops failing rows, so
    the rows left after all of them are exactly the satisfying ones.  A row
    has s entries, so an order above s holds for every row: only u_1 ... u_s
    are read, by the parity limit and by the walks.

    A parity pass first decides the prime 2, which fails at k entries and at
    i entries for an even u_i: a row with at least lim = min(k, each such i)
    even entries fails.  Dropping those rows loses no passing row, and the
    walks still see 2 in the rows that remain, so every verdict is exact.
    """
    import numpy as np

    n, s = rows.shape
    moduli = moduli[:s]
    lim = min([k] + [i for i, u in enumerate(moduli, start=1) if u % 2 == 0])
    if lim <= s:
        evens = np.zeros(n, dtype=np.min_scalar_type(s))
        low = np.empty(n, dtype=rows.dtype)
        for m in range(s):
            np.bitwise_and(rows[:, m], 1, out=low)
            evens += low == 0
        live = np.flatnonzero(evens < lim)
    else:
        live = np.arange(n)
    for i, u in enumerate(moduli, start=1):
        if u != 1:
            live = _no_prime_on(rows, i, live, u)
    return len(_no_prime_on(rows, k, live))


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
    _CHUNK_CELLS // s) rows.  The rows are int32 when range_n and u_1 ...
    u_s are all below 2^31, since every value the evaluator forms divides an
    entry, and int64 otherwise.  Below 2^32 the generator maps one 32-bit
    word to each entry whatever the chunk height or the dtype, so neither
    changes the draws.  One chunk is alive at a time, at most 2^20 cells
    (4 MiB of int32, 8 MiB of int64) plus the walks' index arrays: each is
    released before the next is drawn, and tracemalloc reads the peak as
    1.19 chunks at s = 10, 1.03 at s = 64 and 1.16 for int64 rows at s = 10.
    Every argument is checked before numpy is imported: s, range_n, samples
    and seed take integers only (a float is a TypeError), and an s above
    _CHUNK_CELLS, a row wider than a chunk, raises BudgetError.
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

    dtype = np.int32 if max(range_n, *constraint.moduli[:s]) < 2**31 else np.int64
    rng = np.random.Generator(np.random.PCG64(seed))
    chunk = min(_CHUNK_ROWS, _CHUNK_CELLS // s)
    hits, remaining = 0, samples
    while remaining:
        take = min(chunk, remaining)
        # the draw goes straight into _hits, so no name holds a chunk while the next is drawn
        hits += _hits(
            rng.integers(1, range_n, size=(take, s), dtype=dtype, endpoint=True),
            constraint.k,
            constraint.moduli,
        )
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
