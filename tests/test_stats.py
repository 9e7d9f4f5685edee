import math

import numpy as np
import pytest

from kwise import stats
from kwise.arith import BudgetError, sieve_primes
from kwise.coprime import ConstraintVector, count_tuples
from kwise.density import kwise_coprime_probability, limiting_density
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


def test_convergence_validation():
    c = ConstraintVector((1,))
    with pytest.raises(ValueError):
        convergence_table(2, c, [])
    with pytest.raises(ValueError):
        convergence_table(2, c, [0, 5])


def test_monte_carlo_deterministic():
    c = ConstraintVector((1,))
    a = monte_carlo(2, c, 10_000, 20_000, seed=42)
    b = monte_carlo(2, c, 10_000, 20_000, seed=42)
    assert a == b
    assert a.samples == 20_000 and a.range_n == 10_000 and a.seed == 42
    other = monte_carlo(2, c, 10_000, 20_000, seed=43)
    assert other.hits != a.hits


def test_monte_carlo_streams_deterministic():
    c = ConstraintVector((1,))
    a = monte_carlo(2, c, 5000, 9999, seed=7, streams=4)
    b = monte_carlo(2, c, 5000, 9999, seed=7, streams=4)
    assert a == b
    assert a.streams == 4
    assert 0 < a.estimate < 1


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


def test_evaluator_orders_above_s_hold_for_every_row():
    # k = 5 > s = 3, and the one modulus sits at order 4 > s: nothing to check
    rng = np.random.Generator(np.random.PCG64(22))
    rows = rng.integers(1, 60, size=(200, 3), dtype=np.int64, endpoint=True)
    moduli = (1, 1, 1, 30)
    assert _hits(rows, 5, moduli) == _oracle_hits(rows, 5, moduli) == len(rows)
    assert _hits(rows, 4, (1, 1, 1)) == len(rows)


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
    assert shapes == [(65536, 16), (70_000 - 65536, 16)]
    shapes.clear()
    monkeypatch.setattr(stats, "_CHUNK_CELLS", 10)
    monte_carlo(10, c, 1000, 3, seed=3)
    assert shapes == [(1, 10)] * 3


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
        monte_carlo(2, c, 100, 10, streams=11)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 100, 10, seed=-1)
    with pytest.raises(ValueError):
        monte_carlo(2, c, 100, 10, seed=2**64)


def test_report_types_are_frozen():
    rep = CountReport(n=1, count=1, predicted=1.0, abs_error=0.0, normalized_error=0.0)
    with pytest.raises(AttributeError):
        rep.count = 2
    est = MonteCarloEstimate(
        samples=1, hits=1, estimate=1.0, std_error=0.0, seed=0, range_n=1, streams=1
    )
    with pytest.raises(AttributeError):
        est.hits = 0
