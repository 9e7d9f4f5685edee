import math
import tracemalloc

import numpy as np
import pytest

from kwise import stats
from kwise.arith import BudgetError, sieve_primes
from kwise.coprime import ConstraintVector, count_tuples
from kwise.density import kwise_coprime_probability, limiting_density
from kwise.recursion import reduce_constraint_raw
from kwise.stats import (
    CountReport,
    MonteCarloEstimate,
    _hits,
    convergence_table,
    monte_carlo,
)
from oracles import constraint_ok


def test_convergence_counts_match_direct_calls():
    c = ConstraintVector((1,))
    rows = convergence_table(2, c, [10, 50, 100], prime_limit=2000)
    assert [r.n for r in rows] == [10, 50, 100]
    for row in rows:
        assert row.count == count_tuples(2, c, row.n)
        assert row.abs_error == abs(row.count - row.predicted)
        assert row.normalized_error >= 0


def test_convergence_prediction_uses_point_density():
    c = ConstraintVector((2,))
    enc = limiting_density(2, c, 5000)
    rows = convergence_table(2, c, [40], prime_limit=5000)
    assert rows[0].predicted == pytest.approx(float(enc.point) * 40**2)


def test_convergence_normalization():
    c = ConstraintVector((1,))
    # s = 1: exponent is 0, so normalized error equals absolute error
    rows = convergence_table(1, ConstraintVector((6,)), [1, 7, 100, 999], prime_limit=100)
    for row in rows:
        assert row.normalized_error == pytest.approx(row.abs_error)
    # s = 2 at n = 1: the log normalization degenerates to infinity
    rows = convergence_table(2, c, [1], prime_limit=100)
    assert rows[0].count == 1
    assert math.isinf(rows[0].normalized_error)


def test_single_value_error_stays_within_divisor_bound():
    # |count - n * phi(u)/u| never exceeds the squarefree divisor count of u
    for u, theta in ((6, 4), (30, 8), (2, 2)):
        rows = convergence_table(1, ConstraintVector((u,)), [1, 9, 50, 500, 1000])
        for row in rows:
            assert row.abs_error <= theta + 1e-6, (u, row)


def test_normalized_error_trend_is_flat_or_falling():
    # least-squares slope in log n of the normalized error must not grow
    configs = [
        (2, 2, [10, 20, 40, 80, 160, 320, 640, 1000]),
        (3, 2, [10, 20, 40, 80, 160]),
        (3, 3, [10, 20, 40, 80, 160]),
    ]
    for s, k, grid in configs:
        rows = convergence_table(s, ConstraintVector.trivial(k), grid, prime_limit=20_000)
        xs = np.log([r.n for r in rows])
        ys = [r.normalized_error for r in rows]
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope <= 0, (s, k, slope, ys)


def test_convergence_counts_share_one_cap_map_and_one_memo(monkeypatch):
    c = ConstraintVector((5, 6))
    want = [count_tuples(3, c, n) for n in (4, 9, 30)]
    derived, memos = 0, []
    prime_caps, count_caps = stats._prime_caps, stats._count_caps

    def deriving(moduli):
        nonlocal derived
        derived += 1
        return prime_caps(moduli)

    def counting(s, k, caps, n, memo=None):
        memos.append(memo)
        return count_caps(s, k, caps, n, memo=memo)

    monkeypatch.setattr(stats, "_prime_caps", deriving)
    monkeypatch.setattr(stats, "_count_caps", counting)
    rows = convergence_table(3, c, [4, 9, 30], prime_limit=100)
    assert [r.count for r in rows] == want
    assert derived == 1
    assert len(memos) == 3 and all(m is memos[0] for m in memos) and memos[0] is not None


def test_convergence_validation():
    c = ConstraintVector((1,))
    with pytest.raises(ValueError):
        convergence_table(2, c, [])
    with pytest.raises(ValueError):
        convergence_table(2, c, [0, 5])
    # grid entries are integers: 10.5 is refused, not counted as 10
    with pytest.raises(TypeError):
        convergence_table(2, c, [10.5])
    with pytest.raises(TypeError):
        convergence_table(2, c, [10], threads=1.5)
    # the float rows read the density at its default precision: there is no precision
    with pytest.raises(TypeError):
        convergence_table(2, c, [10], precision=50)
    rows = convergence_table(np.int64(2), c, np.array([10, 100]), prime_limit=1000)
    assert rows == convergence_table(2, c, [10, 100], prime_limit=1000)
    assert all(type(r.n) is int and type(r.count) is int for r in rows)


def test_monte_carlo_deterministic():
    c = ConstraintVector((1,))
    a = monte_carlo(2, c, 10_000, 20_000, seed=42)
    b = monte_carlo(2, c, 10_000, 20_000, seed=42)
    assert a == b
    assert a.samples == 20_000 and a.range_n == 10_000 and a.seed == 42
    other = monte_carlo(2, c, 10_000, 20_000, seed=43)
    assert other.hits != a.hits


def test_monte_carlo_vacuous_is_certain():
    est = monte_carlo(2, ConstraintVector.trivial(3), 1000, 5000)
    assert est.hits == est.samples
    assert est.estimate == 1.0
    assert est.std_error == 0.0


def test_monte_carlo_tracks_density():
    # deterministic values; the bands were chosen at 5 standard errors
    est = monte_carlo(2, ConstraintVector((1,)), 100_000, 200_000, seed=123)
    target = float(kwise_coprime_probability(2, 2, 10_000).point)
    assert abs(est.estimate - target) <= 5 * est.std_error
    assert est.std_error == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.samples)
    )
    odd = monte_carlo(1, ConstraintVector((2,)), 10**6, 100_000, seed=5)
    assert abs(odd.estimate - 0.5) <= 5 * odd.std_error


def test_monte_carlo_wide_odd_pairwise_coprime_tuple_is_rare():
    est = monte_carlo(9, ConstraintVector((2,)), 500, 4000, seed=11)
    assert 0 <= est.estimate < 0.2


def test_monte_carlo_modulus_beyond_int64():
    # 2^65 + 1 = 3 * 11 * 131 * 2731 * 409891 * 7623851 does not fit in int64
    u = 2**65 + 1
    # the rows monte_carlo draws for one stream
    rng = np.random.Generator(np.random.PCG64(4))
    rows = rng.integers(1, 1000, size=(500, 2), dtype=np.int64, endpoint=True)

    def oracle(k, moduli):
        return sum(constraint_ok(tuple(map(int, row)), k, moduli) for row in rows)

    est = monte_carlo(2, ConstraintVector((u,)), 1000, 500, seed=4)
    assert est.hits == oracle(2, (u,))
    assert 0 < est.hits < 500
    assert _hits(rows, 3, (1, u)) == oracle(3, (1, u))


def _oracle_hits(rows, k, moduli):
    return sum(constraint_ok(tuple(map(int, row)), k, moduli) for row in rows)


def test_evaluator_all_rows_fail_before_last_column():
    # odd entries, the first two sharing 3: the parity pass keeps every row
    # with fewer than two even entries, and each one fails at column 1
    rng = np.random.Generator(np.random.PCG64(21))
    rows = 2 * rng.integers(0, 10**5, size=(300, 6), dtype=np.int64) + 1
    rows[:, :2] *= 3
    assert _hits(rows, 2, (1,)) == _oracle_hits(rows, 2, (1,)) == 0
    assert _hits(rows, 3, (1, 5)) == _oracle_hits(rows, 3, (1, 5))


def test_evaluator_stops_once_no_row_is_live(monkeypatch):
    # k = 2 fails at two even entries, so the parity pass drops every all-even
    # row and the gcd walk has no row to decide: no column may be walked
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(1) or gcd(*args))
    rows = np.full((4, 200), 6, dtype=np.int64)
    assert _hits(rows, 2, (1,)) == 0
    assert calls == []


def test_evaluator_skips_a_column_that_ends_no_prime(monkeypatch):
    # s = k = 2000 tests only column 1999, and on the all-ones row it is 1, so
    # no prime can end there: the column is skipped before any gcd is taken
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(1) or gcd(*args))
    rows = np.ones((1, 2000), dtype=np.int64)
    moduli = (1,) * 1999
    assert _hits(rows, 2000, moduli) == 1
    assert calls == []
    monkeypatch.setattr(np, "gcd", gcd)
    # a modulus at any order is still checked
    rng = np.random.Generator(np.random.PCG64(26))
    rows = rng.integers(1, 30, size=(300, 5), dtype=np.int64, endpoint=True)
    for moduli in ((1, 3, 1, 5), (7, 1, 2, 1), (1, 1, 1, 6)):
        assert _hits(rows, 5, moduli) == _oracle_hits(rows, 5, moduli)


def test_evaluator_decides_u1_in_one_pass(monkeypatch):
    # a prime of u_1 may divide no entry: the walk at order 1 is one gcd per
    # column, and the walk at order k stays linear in the columns at s = k = 200
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(1) or gcd(*args))
    rows = np.ones((1, 200), dtype=np.int64)
    assert _hits(rows, 200, (3,) + (1,) * 198) == 1
    assert len(calls) <= 2 * 200
    # a row with one entry sharing u_1 fails, also for a u_1 beyond int64 (object gcds)
    rng = np.random.Generator(np.random.PCG64(27))
    rows = rng.integers(1, 60, size=(300, 5), dtype=np.int64, endpoint=True)
    for moduli in ((3, 1, 5), (3 * 17**16, 1, 5), (10, 7), (2**64 - 59, 1, 1, 1)):
        expect = _oracle_hits(rows, len(moduli) + 1, moduli)
        assert _hits(rows, len(moduli) + 1, moduli) == expect
        assert 0 < expect < len(rows)


def test_evaluator_walks_each_modulus_once(monkeypatch):
    # u_i walks once at order i, one gcd per column from column i - 1 on, so a
    # 3 at u_2 or at u_151 costs at most one gcd per column at s = k = 200
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(1) or gcd(*args))
    ones = np.ones((1, 200), dtype=np.int64)
    for i in (2, 151):
        moduli = (1,) * (i - 1) + (3,) + (1,) * (199 - i)
        calls.clear()
        # the all-ones row satisfies every constraint; the subset oracle would
        # enumerate C(200, i) subsets, so it checks the same shapes below
        assert _hits(ones, 200, moduli) == 1
        assert len(calls) <= 2 * 200
    monkeypatch.setattr(np, "gcd", gcd)
    # the same shapes at s = k = 6, a 3 at u_2 or u_5, with more moduli beside it
    rng = np.random.Generator(np.random.PCG64(28))
    rows = rng.integers(1, 40, size=(300, 6), dtype=np.int64, endpoint=True)
    for moduli in ((1, 3, 1, 1, 1), (1, 1, 1, 1, 3), (5, 3, 1, 7, 2**61 - 1), (1, 1, 10, 1, 3)):
        expect = _oracle_hits(rows, 6, moduli)
        assert _hits(rows, 6, moduli) == expect
        assert 0 < expect < len(rows)


def test_evaluator_orders_above_s_hold_for_every_row():
    # k = 5 > s = 3, and the one modulus sits at order 4 > s: nothing to check
    rng = np.random.Generator(np.random.PCG64(22))
    rows = rng.integers(1, 60, size=(200, 3), dtype=np.int64, endpoint=True)
    moduli = (1, 1, 1, 30)
    assert _hits(rows, 5, moduli) == _oracle_hits(rows, 5, moduli) == len(rows)
    assert _hits(rows, 4, (1, 1, 1)) == len(rows)


def _count_gcd_and_lcm(monkeypatch):
    calls = []
    for name in ("gcd", "lcm"):
        f = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, f=f: calls.append(1) or f(*args))
    return calls


def test_evaluator_lifts_only_levels_that_can_reach_the_cap(monkeypatch):
    # s = k = 12: only column 11 is tested, and a prime that must divide all 12
    # entries stands at level i + 1 after i + 1 earlier columns, so each earlier
    # column lifts that one level: at most one gcd and one lcm per column
    calls = _count_gcd_and_lcm(monkeypatch)
    rows = np.array([sieve_primes(40)[:12], [3] * 12, [15] * 11 + [7]], dtype=np.int64)
    assert _hits(rows, 12, (1,) * 11) == _oracle_hits(rows, 12, (1,) * 11) == 2
    assert len(calls) <= 2 * (12 - 1)


def _late_prime_rows(s, moduli, copies):
    # row r carries the prime of u_i in copies[r][i - 2] entries, from column
    # s - i downwards (wrapping round to the last column), so it lands late
    rows = np.ones((len(copies), s), dtype=np.int64)
    for r, row in enumerate(copies):
        for i, count in enumerate(row, start=2):
            for c in range(count):
                rows[r, (s - i - c) % s] *= moduli[i - 1]
    return rows


def test_evaluator_walk_is_linear_on_late_primes(monkeypatch):
    # u_1 = 1 and u_i the (i - 1)-th odd prime, which divides only column s - i:
    # the walk at order i meets that prime late, and a level that would stay 1
    # in every live row is never made, so s = k = 200 takes at most s * k calls
    s = 200
    moduli = (1,) + tuple(sieve_primes(2000)[1 : s - 1])
    row = _late_prime_rows(s, moduli, [[1] * (s - 2)])
    calls = _count_gcd_and_lcm(monkeypatch)
    assert _hits(row, s, moduli) == 1
    assert len(calls) <= s * s
    monkeypatch.undo()
    # the same shape at s = k = 6, with rows where a prime of u_i reaches i entries
    moduli = (1, 3, 5, 7, 11)
    copies = [[1, 1, 1, 1], [2, 1, 1, 1], [1, 3, 1, 1], [1, 2, 3, 4], [1, 1, 1, 5], [0, 1, 0, 1]]
    rows = _late_prime_rows(6, moduli, copies)
    assert _hits(rows, 6, moduli) == _oracle_hits(rows, 6, moduli) == 3


def test_evaluator_reads_only_the_first_s_moduli():
    # an order above s holds for every row, so a chunk reads u_1 ... u_s only:
    # neither the parity limit nor the walks iterate the k - 1 moduli
    class Counted(tuple):
        iterations = 0

        def __iter__(self):
            Counted.iterations += 1
            return super().__iter__()

    rng = np.random.Generator(np.random.PCG64(29))
    rows = rng.integers(1, 40, size=(300, 2), dtype=np.int64, endpoint=True)
    moduli = (1, 1, 2) + (1,) * 996
    expect = _oracle_hits(rows, 1000, moduli)
    assert _hits(rows, 1000, Counted(moduli)) == expect == len(rows)
    assert Counted.iterations == 0


def test_evaluator_even_modulus_at_order_one():
    # any even entry fails u_1 = 2 or 6; 6 also rejects a multiple of 3
    rng = np.random.Generator(np.random.PCG64(23))
    rows = rng.integers(1, 40, size=(400, 4), dtype=np.int64, endpoint=True)
    for moduli in ((2,), (6,), (6, 5)):
        k = len(moduli) + 1
        expect = _oracle_hits(rows, k, moduli)
        assert _hits(rows, k, moduli) == expect
        assert 0 < expect < len(rows)
    # on odd rows u_1 = 2 rejects nothing more than k = 2 alone
    odd = rows[(rows % 2).all(axis=1)]
    assert _hits(odd, 2, (2,)) == _hits(odd, 2, (1,)) > 0


def test_evaluator_even_modulus_beyond_int64():
    # 2^64 and 3 * 2^63 at order 2 pass the parity pass and the object gcds
    rng = np.random.Generator(np.random.PCG64(24))
    rows = rng.integers(1, 50, size=(400, 4), dtype=np.int64, endpoint=True)
    rows[:5] = 2**62
    for u in (2**64, 3 * 2**63):
        expect = _oracle_hits(rows, 3, (1, u))
        assert _hits(rows, 3, (1, u)) == expect
        assert 0 < expect < len(rows)


def test_evaluator_wide_rows():
    # s = 30, k = 3: entries 1, primes below 500 or products of two of them,
    # so many rows pass and the failures fall on many columns, the last included
    rng = np.random.Generator(np.random.PCG64(25))
    primes = np.array(sieve_primes(500), dtype=np.int64)
    pool = np.concatenate([np.ones(60, dtype=np.int64), primes, primes[:20] * primes[20:40]])
    rows = rng.choice(pool, size=(120, 30))
    for moduli in ((1, 1), (1, 6), (7, 1)):
        expect = _oracle_hits(rows, 3, moduli)
        assert _hits(rows, 3, moduli) == expect
        assert 0 < expect < len(rows)


def test_monte_carlo_chunks_are_bounded_by_cells(monkeypatch):
    shapes = []
    hits = stats._hits

    def recording(rows, k, moduli):
        shapes.append(rows.shape)
        return hits(rows, k, moduli)

    monkeypatch.setattr(stats, "_hits", recording)
    c = ConstraintVector((1, 1))
    monte_carlo(200, c, 1000, 12_000, seed=3)
    assert len(shapes) == 3 and sum(n for n, _ in shapes) == 12_000
    assert all(n * s <= stats._CHUNK_CELLS and s == 200 for n, s in shapes)
    shapes.clear()
    monte_carlo(16, c, 1000, 70_000, seed=3)
    assert shapes == [(16384, 16)] * 4 + [(70_000 - 4 * 16384, 16)]
    shapes.clear()
    monkeypatch.setattr(stats, "_CHUNK_CELLS", 10)
    monte_carlo(10, c, 1000, 3, seed=3)
    assert shapes == [(1, 10)] * 3


@pytest.mark.parametrize(
    "s, range_n, samples, dtype",
    [(10, 10**6, 10**5, np.int32), (64, 10**6, 4 * 10**4, np.int32), (10, 2**31, 10**5, np.int64)],
)
def test_monte_carlo_holds_one_chunk_at_a_time(s, range_n, samples, dtype):
    # a chunk is 2^14 rows: 640 KiB of int32 at s = 10, 2^20 cells (4 MiB) at
    # s = 64, and 1.25 MiB of int64 at range 2^31; the walks over a chunk add
    # index arrays, and a chunk still held while the next is drawn would make 2
    chunk_bytes = 2**14 * s * np.dtype(dtype).itemsize
    c = ConstraintVector.trivial(3)
    monte_carlo(s, c, range_n, 1000)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        monte_carlo(s, c, range_n, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes


def test_monte_carlo_refuses_a_row_wider_than_a_chunk(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler drew rows")

    monkeypatch.setattr(stats, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(np.random, "Generator", no_draws)
    with pytest.raises(BudgetError, match="8 entries"):
        monte_carlo(9, ConstraintVector.trivial(2), 1000, 3)


def test_monte_carlo_validation():
    c = ConstraintVector((1,))
    with pytest.raises(ValueError):
        monte_carlo(0, c, 100, 10)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 0, 10)
    with pytest.raises(ValueError, match=r"2\^63 - 1"):
        monte_carlo(2, c, 2**63, 10)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 100, 0)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 100, 10, seed=-1)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 100, 10, seed=2**64)
    for moduli in ((1,), reduce_constraint_raw(4, ConstraintVector((5, 6)))):
        with pytest.raises(TypeError, match="got tuple"):
            monte_carlo(2, moduli, 100, 10)


def test_monte_carlo_takes_an_integer_range(monkeypatch):
    # 10.5 would draw from [1, 10] and report range_n = 10.5
    c = ConstraintVector((1,))
    for bad in (10.5, 10.0, "10"):
        with pytest.raises(TypeError):
            monte_carlo(2, c, bad, 100)
    est = monte_carlo(2, c, np.int64(10), np.int64(100), seed=np.uint64(3))
    assert type(est.range_n) is int and type(est.samples) is int and type(est.seed) is int
    assert est == monte_carlo(2, c, 10, 100, seed=3)

    # every argument is checked before numpy draws anything
    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler drew rows")

    monkeypatch.setattr(np.random, "Generator", no_draws)
    for bad in ({"s": 2.0}, {"samples": 10.5}, {"seed": 1.5}):
        with pytest.raises(TypeError):
            monte_carlo(**{"s": 2, "constraint": c, "range_n": 10, "samples": 10, **bad})


def test_monte_carlo_has_no_streams():
    # one seeded PCG64 stream per run; the streams argument is gone
    with pytest.raises(TypeError):
        monte_carlo(2, ConstraintVector((1,)), 100, 10, streams=1)


def test_report_types_are_frozen():
    rep = CountReport(n=1, count=1, predicted=1.0, abs_error=0.0, normalized_error=0.0)
    with pytest.raises(AttributeError):
        rep.count = 2
    est = MonteCarloEstimate(
        samples=1, hits=1, estimate=1.0, std_error=0.0, seed=0, range_n=1
    )
    with pytest.raises(AttributeError):
        est.hits = 0
