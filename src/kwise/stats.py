"""Convergence diagnostics and Monte Carlo estimation.

The exact counts converge to density * n^s with an error of order
n^(s-1) * log(n)^d for a small exponent d; convergence_table reports the
raw and normalized errors over an n-grid so that trend is visible.

The Monte Carlo estimator samples uniform tuples from a finite box and
decides each one from gcds alone, for every s, with no factorization or
table, which makes it an independent statistical cross-check of the exact
machinery.  A tuple fails as soon as one prime divides more of its
entries than that prime's cap allows, so the evaluator spends its work
only on the rows that are still open: a parity pass first drops the rows
that the prime 2 already decides, and each column of the gcd recurrence
then drops the rows that fail there.  Both steps remove only rows that some
prime has already made fail, and the rows they keep are decided by the
full recurrence, so the hit count is exactly the number of satisfying
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .coprime import DEFAULT_BUDGET, BudgetError, ConstraintVector, count_tuples
from .density import (
    DEFAULT_PRECISION,
    DEFAULT_PRIME_LIMIT,
    error_log_exponent,
    limiting_density,
)

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


@dataclass(frozen=True)
class CountReport:
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


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sampled estimate of the constraint density on [1, range_n]^s."""

    samples: int
    hits: int
    estimate: float
    std_error: float
    seed: int
    range_n: int
    streams: int


def convergence_table(
    s: int,
    constraint: ConstraintVector,
    n_grid: Sequence[int],
    *,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    precision: int = DEFAULT_PRECISION,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> list[CountReport]:
    """Exact counts over an n-grid, each compared to the density prediction."""
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError("n_grid must contain at least one value")
    for n in grid:
        if n < 1:
            raise ValueError(f"grid entries must be positive integers, got {n}")
    enclosure = limiting_density(s, constraint, prime_limit, precision)
    density = float(enclosure.point)
    d = error_log_exponent(s, constraint.k)
    out = []
    for n in grid:
        count = count_tuples(s, constraint, n, threads=threads, budget=budget)
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


def _no_prime_on(cols: np.ndarray, r: int, live: np.ndarray) -> np.ndarray:
    """The rows of live in which no prime divides r or more of the columns.

    A prime on r columns is caught at the last of them, column m, as a
    common factor of column m and r - 1 earlier columns.  Walking the
    earlier columns y, shared[j] is the part of column m whose primes divide
    at least j of them: gcd intersects prime supports and lcm unites them,
    so y lifts gcd(shared[j-1], y) into shared[j], with j taken downwards
    so that y counts once.  The top level is only tested, as
    gcd(shared[r-2], y) != 1, never stored; after i earlier columns every
    level above i is still 1, so it is neither updated nor tested, and
    nothing is updated after the last earlier column.  At r = 1 every entry
    other than 1 fails.  Every value divides an entry of the row, so int64
    stays exact.

    A row with such a prime fails whatever the later columns hold, so the
    rows that fail at column m leave live before column m + 1: the later
    columns are gathered through live and only for the rows still open.
    """
    import numpy as np

    if r == 1:
        for m in range(cols.shape[1]):
            live = live[cols[live, m] == 1]
        return live
    for m in range(r - 1, cols.shape[1]):
        shared = [cols[live, m]] + [1] * (r - 2)
        bad = np.zeros(len(live), dtype=bool)
        for i in range(m):
            y = cols[live, i]
            if i >= r - 2:
                bad |= np.gcd(shared[r - 2], y) != 1
            if i == m - 1:
                break
            for j in range(min(r - 2, i + 1), 0, -1):
                shared[j] = np.lcm(shared[j], np.gcd(shared[j - 1], y))
        live = live[~bad]
    return live


def _hits(rows: np.ndarray, k: int, moduli: tuple[int, ...]) -> int:
    """Rows satisfying the constraint, decided from gcds alone.

    Order k on the entries, and order i on gcd(x, u_i) for each u_i != 1;
    an order above s holds for every row and is not checked.  Each check
    keeps only the rows that pass it, so a later check sees only the rows
    still open.

    The prime 2 is decided first, by parity: it breaks order k once it
    divides k entries, and order i of an even u_i once it divides i
    entries, so a row with at least lim = min(k, each such i) even entries
    fails.  Dropping those rows loses no passing row, and the checks that
    follow still see 2 in the rows that remain, so every verdict is exact.
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
    live = _no_prime_on(rows, k, live)
    for i, u in enumerate(moduli, start=1):
        if u == 1 or i > s or not len(live):
            continue
        cols = rows[live]
        if u < 2**63:
            np.gcd(cols, u, out=cols)
        else:
            # exact Python-int gcds; each divides its entry, so it fits int64 again
            cols = np.gcd(cols.astype(object), u).astype(np.int64)
        live = live[_no_prime_on(cols, i, np.arange(len(live)))]
    return len(live)


def monte_carlo(
    s: int,
    constraint: ConstraintVector,
    range_n: int,
    samples: int,
    seed: int = 0,
    streams: int = 1,
) -> MonteCarloEstimate:
    """Estimate the density of satisfying tuples in [1, range_n]^s by sampling.

    Fully deterministic for a given (seed, streams, samples): stream m uses
    the seeded generator jumped m times, the per-stream sample counts split
    the total evenly with the remainder on the leading streams, and each
    stream draws its rows in chunks of min(_CHUNK_ROWS, _CHUNK_CELLS // s)
    rows.  An s above _CHUNK_CELLS, a row wider than a chunk, raises
    BudgetError before anything is drawn.
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if s > _CHUNK_CELLS:
        raise BudgetError(f"s = {s} exceeds the sampler's row limit of {_CHUNK_CELLS} entries")
    if not 1 <= range_n < 2**63:
        raise ValueError(f"range_n must lie in [1, 2^63 - 1] (int64 draws), got {range_n}")
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    if streams < 1 or streams > samples:
        raise ValueError(f"streams must lie in [1, samples], got {streams}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    import numpy as np

    base, extra = divmod(samples, streams)
    chunk = min(_CHUNK_ROWS, _CHUNK_CELLS // s)
    hits = 0
    for m in range(streams):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(m))
        remaining = base + (1 if m < extra else 0)
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
        streams=streams,
    )
